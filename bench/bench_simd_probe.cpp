// Microbenchmark of the lookup path's probe kernels, stage by stage: the
// flat-hash tag-group compare, the exact-match LUT batch probe, the range
// matcher's rank-select lookup and the multibit-trie level-array descent.
// The two vector kernels are measured on the compiled vector backend
// (`_simd`) and again with the portable SWAR kernels forced (`_swar`), so
// the vector speedup per stage is visible in isolation from the end-to-end
// pipeline numbers (perfbench). The range and trie rows call the
// structure's one scalar lookup per key; they have no vector kernel, so
// each is one row.
//
// Writes BENCH_simd_probe.json in million_ops_per_sec (higher is better).
// CI floors every row with conservative machine-independent minimums
// (scripts/check_bench.py --min-metric) so an accidental scalarization of
// the hot loops fails loudly on any hardware.
#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "classifier/range_matcher.hpp"
#include "core/flat_hash.hpp"
#include "core/lut.hpp"
#include "core/multibit_trie.hpp"
#include "core/search_context.hpp"
#include "core/simd.hpp"
#include "net/prefix.hpp"
#include "workload/rng.hpp"

namespace {

using namespace ofmtl;
using workload::Rng;

constexpr std::size_t kQueries = 4096;

/// Million operations per second given total ops and elapsed milliseconds.
[[nodiscard]] double mops(std::size_t ops, double ms) {
  return static_cast<double>(ops) / ms / 1e3;
}

/// Warm `fn` once (page in structures), then time one run of its `ops`
/// operations in Mops.
template <typename Fn>
[[nodiscard]] double measure(std::size_t ops, Fn&& fn) {
  fn();
  return mops(ops, bench::time_ms(fn));
}

/// Run `fn` under the current backend and again with SWAR forced, appending
/// `<name>_simd` and `<name>_swar`.
template <typename Fn>
void measure_both(std::vector<std::pair<std::string, double>>& results,
                  const std::string& name, std::size_t ops, Fn&& fn) {
  results.emplace_back(name + "_simd", measure(ops, fn));
  simd::ScopedForceSwar forced(true);
  results.emplace_back(name + "_swar", measure(ops, fn));
}

}  // namespace

int main() {
  bench::print_heading("SIMD lane-engine kernels: vector vs forced SWAR");
  std::vector<std::pair<std::string, double>> results;
  Rng rng(20250808);

  // --- raw tag-group kernel: 16-byte compare + movemask ---------------------
  {
    constexpr std::size_t kTags = std::size_t{1} << 16;
    constexpr std::size_t kRounds = 256;
    std::vector<std::uint8_t> tags(kTags);
    for (auto& tag : tags) {
      const std::uint64_t draw = rng.next();
      tag = draw % 8 == 0 ? detail::kTagEmpty
                          : static_cast<std::uint8_t>(draw & 0x7F);
    }
    volatile std::uint32_t sink = 0;
    const auto run = [&] {
      std::uint32_t acc = 0;
      for (std::size_t round = 0; round < kRounds; ++round) {
        const auto probe = static_cast<std::uint8_t>(round & 0x7F);
        for (std::size_t group = 0; group + 16 <= kTags; group += 16) {
          acc ^= simd::match_bytes16(tags.data() + group, probe);
        }
      }
      sink = acc;
    };
    measure_both(results, "kernel/tag_match", kRounds * (kTags / 16), run);
  }

  // --- exact-match LUT batch probe ------------------------------------------
  {
    ExactMatchLut lut(128);
    constexpr std::size_t kStored = 4096;
    std::vector<U128> stored;
    for (std::size_t i = 0; i < kStored; ++i) {
      stored.push_back(U128{rng.next() & 0xFFFF, rng.next()});
      lut.insert(stored.back());
    }
    std::vector<U128> queries;
    for (std::size_t i = 0; i < kQueries; ++i) {
      queries.push_back(i % 2 == 0 ? stored[rng.below(stored.size())]
                                   : U128{rng.next(), rng.next()});
    }
    std::vector<Label> out(queries.size());
    constexpr std::size_t kRounds = 200;
    measure_both(results, "em_probe", kRounds * kQueries, [&] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        lut.lookup_batch(queries, out);
      }
    });
  }

  // --- range matcher: rank-select lookup -----------------------------------
  {
    const std::uint64_t max = low_mask(16);
    RangeMatcher ranges(16);
    for (int i = 0; i < 512; ++i) {
      const std::uint64_t lo = rng.next() & max;
      ranges.add({lo, std::min<std::uint64_t>(max, lo + rng.below(1 << 14))});
    }
    std::vector<std::uint64_t> keys;
    for (std::size_t i = 0; i < kQueries; ++i) keys.push_back(rng.next() & max);
    volatile std::size_t sink = 0;
    constexpr std::size_t kRounds = 200;
    results.emplace_back("range_narrow", measure(kRounds * kQueries, [&] {
      std::size_t acc = 0;
      for (std::size_t round = 0; round < kRounds; ++round) {
        for (const std::uint64_t key : keys) acc += ranges.lookup(key).size();
      }
      sink = acc;
    }));
  }

  // --- multibit trie: level-array descent + parent chains -------------------
  {
    MultibitTrie trie = MultibitTrie::partition16();
    for (int i = 0; i < 2000; ++i) {
      const unsigned len = 1 + static_cast<unsigned>(rng.below(16));
      const std::uint64_t value = (rng.next() & 0xFFFF) >> (16 - len)
                                  << (16 - len);
      trie.insert(Prefix{U128{value}, len, 16}, static_cast<Label>(i % 512));
    }
    std::vector<std::uint64_t> keys;
    for (std::size_t i = 0; i < kQueries; ++i) keys.push_back(rng.next() & 0xFFFF);
    std::vector<LabelList> lists(keys.size());
    constexpr std::size_t kRounds = 100;
    results.emplace_back("trie_batch", measure(kRounds * kQueries, [&] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < keys.size(); ++i) {
          trie.lookup_all(keys[i], lists[i]);
        }
      }
    }));
  }

  for (const auto& [name, value] : results) {
    std::printf("  %-28s %10.2f Mops\n", name.c_str(), value);
  }
  auto metadata = bench::common_metadata();
  metadata.emplace_back("queries", std::to_string(kQueries));
  metadata.emplace_back("simd_level", simd::to_string(simd::detect_level()));
  bench::write_bench_json("simd_probe", "million_ops_per_sec", results,
                          metadata);
  return 0;
}
