// Node-layout ablation: the paper's MBT charges full child-block arrays in
// block RAM (array-block policy) and cites its node data as pointer + label
// + flag. This bench compares, on the calibrated worst-case partitions:
//   * MBT array-block  — hardware arrays, the paper's layout
//   * MBT sparse       — only non-empty entries (software lower bound)
//   * Tree Bitmap      — compressed nodes (bitmaps + popcount addressing),
//                        the classic answer to array-block waste
// quantifying what a compressed node layout would have saved the prototype.
#include <iostream>
#include <map>

#include "bench_common.hpp"
#include "classifier/tree_bitmap.hpp"
#include "mem/memory_model.hpp"
#include "workload/calibration.hpp"

namespace {

using namespace ofmtl;

void compare(const FilterSet& set, FieldId field, const std::string& title) {
  bench::print_heading(title);
  stats::Table table({"Partition", "Unique prefixes", "MBT array Kbits",
                      "MBT sparse Kbits", "TreeBitmap Kbits",
                      "TBM vs array saving %"});

  // Build the per-partition prefix sets once.
  FieldSearchConfig config;
  config.strides = {4, 4, 4, 4};  // shared stride grid for a fair comparison
  FieldSearch search(field, config);
  for (const auto& entry : set.entries) {
    (void)search.add_rule(entry.match.get(field));
  }

  static const char* const kNames[] = {"hi", "mid", "lo", "p3",
                                       "p4", "p5",  "p6", "p7"};
  for (std::size_t p = 0; p < search.tries().size(); ++p) {
    const auto& mbt = search.tries()[p];
    const unsigned label_bits =
        mbt.prefix_count() <= 1 ? 1 : ceil_log2(mbt.prefix_count());

    // Rebuild the same prefix set into a tree bitmap.
    std::vector<std::pair<Prefix, Label>> prefixes;
    // The trie does not expose its prefix map directly; re-derive from the
    // rules (same decomposition the FieldSearch used).
    std::map<std::pair<unsigned, std::uint64_t>, Label> dedup;
    for (const auto& entry : set.entries) {
      const auto& fm = entry.match.get(field);
      Prefix whole;
      if (fm.kind == MatchKind::kPrefix) {
        whole = fm.prefix;
      } else if (fm.kind == MatchKind::kExact) {
        whole = Prefix{fm.value, field_bits(field), field_bits(field)};
      } else {
        continue;
      }
      const unsigned plen = whole.partition16_length(static_cast<unsigned>(p));
      const auto part = Prefix::from_value(
          whole.partition16(static_cast<unsigned>(p)), plen, 16);
      const auto [it, inserted] = dedup.try_emplace(
          {part.length(), part.value64()}, static_cast<Label>(dedup.size()));
      if (inserted) prefixes.emplace_back(part, it->second);
    }
    TreeBitmapTrie tbm(16, config.strides, prefixes);

    const double array_kb =
        mem::to_kbits(mbt.total_bits(TrieStorage::kArrayBlock, label_bits));
    const double sparse_kb =
        mem::to_kbits(mbt.total_bits(TrieStorage::kSparse, label_bits));
    const double tbm_kb = mem::to_kbits(tbm.total_bits(label_bits));
    table.add(p < 8 ? kNames[search.tries().size() == 2 && p == 1 ? 2 : p]
                    : std::to_string(p),
              mbt.prefix_count(), array_kb, sparse_kb, tbm_kb,
              100.0 * (1.0 - tbm_kb / array_kb));
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  const auto mac = workload::generate_mac_filterset(workload::mac_target("gozb"));
  compare(mac, FieldId::kEthDst,
          "Node-layout ablation - Ethernet tries, MAC gozb (stride 4x4)");

  const auto routing =
      workload::generate_routing_filterset(workload::routing_target("coza"));
  compare(routing, FieldId::kIpv4Dst,
          "Node-layout ablation - IPv4 tries, Routing coza (stride 4x4)");

  std::cout
      << "\nTree Bitmap trades the array-block waste for per-node bitmaps "
         "and popcount logic: typically a 3-10x memory reduction at the "
         "cost of wider nodes and a popcount in the lookup stage - the "
         "compressed alternative the paper's label method complements.\n";
  return 0;
}
