#include "classifier/tree_bitmap.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

#include "core/flat_hash.hpp"
#include "net/types.hpp"

namespace ofmtl {

namespace {

/// Internal-bitmap position of a prefix chunk of length `len` and value
/// `value` (the classic 2^len - 1 + value heap indexing).
[[nodiscard]] constexpr unsigned internal_position(unsigned len,
                                                   std::uint64_t value) {
  return (1U << len) - 1 + static_cast<unsigned>(value);
}

[[nodiscard]] unsigned popcount_below(std::uint64_t bits, unsigned position) {
  const std::uint64_t mask =
      position >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << position) - 1;
  return static_cast<unsigned>(std::popcount(bits & mask));
}

[[nodiscard]] unsigned popcount_below128(const U128& bits, unsigned position) {
  if (position <= 64) return popcount_below(bits.lo, position);
  return static_cast<unsigned>(std::popcount(bits.lo)) +
         popcount_below(bits.hi, position - 64);
}

[[nodiscard]] bool test_bit128(const U128& bits, unsigned position) {
  return position < 64 ? (bits.lo >> position & 1)
                       : (bits.hi >> (position - 64) & 1);
}

[[nodiscard]] U128 set_bit128(const U128& bits, unsigned position) {
  return bits | (U128{1} << position);
}

}  // namespace

TreeBitmapTrie::TreeBitmapTrie(unsigned width, std::vector<unsigned> strides,
                               std::vector<std::pair<Prefix, Label>> prefixes)
    : width_(width), strides_(std::move(strides)) {
  if (width == 0 || width > 64) throw std::invalid_argument("bad trie width");
  const unsigned total = std::accumulate(strides_.begin(), strides_.end(), 0U);
  if (strides_.empty() || total != width_) {
    throw std::invalid_argument("strides must sum to key width");
  }
  for (const unsigned s : strides_) {
    if (s == 0 || s > 6) throw std::invalid_argument("tree bitmap stride <= 6");
  }
  cum_before_.resize(strides_.size());
  unsigned cum = 0;
  for (std::size_t i = 0; i < strides_.size(); ++i) {
    cum_before_[i] = cum;
    cum += strides_[i];
  }
  for (const auto& [prefix, label] : prefixes) {
    if (prefix.width() != width_) {
      throw std::invalid_argument("prefix width mismatch");
    }
    (void)label;
  }
  // Last-label-wins dedup, preserving first insertion position. Keyed on a
  // hash of (length, value) — all prefixes share width_ — so bulk builds
  // stay linear instead of quadratic in the prefix count.
  struct PrefixKeyHash {
    [[nodiscard]] std::size_t operator()(const Prefix& p) const noexcept {
      const U128 v = p.value();
      return static_cast<std::size_t>(detail::mix64(
          v.hi * 0x9E3779B97F4A7C15ULL ^ v.lo ^
          (std::uint64_t{p.length()} << 57)));
    }
  };
  std::vector<std::pair<Prefix, Label>> unique;
  unique.reserve(prefixes.size());
  std::unordered_map<Prefix, std::size_t, PrefixKeyHash> positions;
  positions.reserve(prefixes.size());
  for (const auto& entry : prefixes) {
    const auto [it, inserted] = positions.try_emplace(entry.first, unique.size());
    if (inserted) {
      unique.push_back(entry);
    } else {
      unique[it->second].second = entry.second;
    }
  }
  (void)build(0, 0, unique);
}

std::uint32_t TreeBitmapTrie::build(
    std::size_t level, std::uint64_t path,
    const std::vector<std::pair<Prefix, Label>>& prefixes) {
  const unsigned stride = strides_[level];
  const unsigned cum = cum_before_[level];
  const bool last = level + 1 == strides_.size();

  Node node;
  node.level = static_cast<std::uint8_t>(level);

  // Internal bitmap covers chunk lengths 0..stride-1; the last level has no
  // children, so its bitmap additionally covers full-stride chunks.
  std::vector<Label> local_results((std::size_t{1} << (stride + 1)) - 1,
                                   kNoLabel);
  std::vector<std::vector<std::pair<Prefix, Label>>> per_child(
      std::size_t{1} << stride);

  for (const auto& [prefix, label] : prefixes) {
    if (prefix.length() < cum) continue;  // ended at an ancestor node
    const unsigned remaining = prefix.length() - cum;
    if (remaining < stride || (remaining == stride && last)) {
      const std::uint64_t chunk_value =
          remaining == 0 ? 0 : prefix.slice(cum, remaining);
      const unsigned position = internal_position(remaining, chunk_value);
      node.internal = set_bit128(node.internal, position);
      local_results[position] = label;
    } else {
      // Descends: full-stride chunk addresses the child (a prefix with
      // remaining == stride ends at length 0 inside that child).
      const std::uint64_t chunk = prefix.slice(cum, stride);
      per_child[chunk].emplace_back(prefix, label);
    }
  }

  const auto node_index = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(node);

  // Results stored contiguously in bitmap order.
  nodes_[node_index].result_base = static_cast<std::uint32_t>(results_.size());
  for (std::size_t position = 0; position < local_results.size(); ++position) {
    if (test_bit128(nodes_[node_index].internal,
                    static_cast<unsigned>(position))) {
      results_.push_back(local_results[position]);
    }
  }

  std::vector<std::uint64_t> child_chunks;
  for (std::uint64_t chunk = 0; chunk < per_child.size(); ++chunk) {
    if (!per_child[chunk].empty()) {
      nodes_[node_index].external |= std::uint64_t{1} << chunk;
      child_chunks.push_back(chunk);
    }
  }
  if (!child_chunks.empty()) {
    // Reserve the dense child-table span first so popcount addressing works,
    // then fill it as the depth-first recursion returns.
    const auto base = static_cast<std::uint32_t>(child_table_.size());
    nodes_[node_index].child_base = base;
    child_table_.resize(child_table_.size() + child_chunks.size());
    for (std::size_t i = 0; i < child_chunks.size(); ++i) {
      const std::uint64_t chunk = child_chunks[i];
      const std::uint64_t child_path =
          path | (chunk << (width_ - cum - stride));
      child_table_[base + i] = build(level + 1, child_path, per_child[chunk]);
    }
  }
  return node_index;
}

std::optional<Label> TreeBitmapTrie::lookup(std::uint64_t key) const {
  if (nodes_.empty()) return std::nullopt;
  std::optional<Label> best;
  std::uint32_t node_index = 0;
  for (std::size_t level = 0; level < strides_.size(); ++level) {
    const Node& node = nodes_[node_index];
    const unsigned stride = strides_[level];
    const std::uint64_t chunk =
        (key >> (width_ - cum_before_[level] - stride)) & low_mask(stride);
    // Longest internal prefix: probe the chunk's ancestor positions longest
    // first (the last level also holds full-stride chunks).
    const bool last = level + 1 == strides_.size();
    for (unsigned len = last ? stride + 1 : stride; len-- > 0;) {
      const unsigned position = internal_position(len, chunk >> (stride - len));
      if (!test_bit128(node.internal, position)) continue;
      best = results_[node.result_base +
                      popcount_below128(node.internal, position)];
      break;
    }
    if (!(node.external >> chunk & 1)) break;
    const std::uint32_t slot =
        node.child_base + popcount_below(node.external, static_cast<unsigned>(chunk));
    node_index = child_table_[slot];
  }
  return best;
}

std::size_t TreeBitmapTrie::node_count(std::size_t level) const {
  std::size_t count = 0;
  for (const auto& node : nodes_) {
    if (node.level == level) ++count;
  }
  return count;
}

unsigned TreeBitmapTrie::node_bits(std::size_t level, unsigned label_bits) const {
  const unsigned stride = strides_.at(level);
  const bool last = level + 1 == strides_.size();
  const unsigned internal_bits = (1U << (last ? stride + 1 : stride)) - 1;
  const unsigned external_bits = last ? 0 : (1U << stride);
  const unsigned child_ptr = last ? 0 : bits_for_max_value(nodes_.size());
  const unsigned result_ptr =
      bits_for_max_value(std::max<std::size_t>(results_.size(), 1));
  (void)label_bits;
  return internal_bits + external_bits + child_ptr + result_ptr;
}

std::uint64_t TreeBitmapTrie::total_bits(unsigned label_bits) const {
  std::uint64_t bits = 0;
  for (std::size_t level = 0; level < strides_.size(); ++level) {
    bits += node_count(level) * node_bits(level, label_bits);
  }
  bits += results_.size() * static_cast<std::uint64_t>(label_bits);
  bits += child_table_.size() *
          static_cast<std::uint64_t>(bits_for_max_value(nodes_.size()));
  return bits;
}

mem::MemoryReport TreeBitmapTrie::memory_report(const std::string& name,
                                                unsigned label_bits) const {
  mem::MemoryReport report;
  for (std::size_t level = 0; level < strides_.size(); ++level) {
    report.add(name + ".L" + std::to_string(level + 1), node_count(level),
               node_bits(level, label_bits));
  }
  report.add(name + ".results", results_.size(), label_bits);
  report.add(name + ".child_table", child_table_.size(),
             bits_for_max_value(nodes_.size()));
  return report;
}

}  // namespace ofmtl
