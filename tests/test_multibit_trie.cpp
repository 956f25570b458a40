// Multi-bit trie tests: LPM correctness against the unibit-trie oracle and
// brute force, lookup_all completeness, removal fallback, stride sweeps, and
// the node/memory accounting invariants the figures depend on.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "classifier/unibit_trie.hpp"
#include "core/multibit_trie.hpp"
#include "workload/rng.hpp"

namespace ofmtl {
namespace {

/// Longest-prefix match: the front of lookup_all, which lists longest first.
std::optional<Label> longest(const MultibitTrie& trie, std::uint64_t key) {
  std::vector<Label> labels;
  trie.lookup_all(key, labels);
  if (labels.empty()) return std::nullopt;
  return labels.front();
}

TEST(MultibitTrie, RejectsBadConfig) {
  EXPECT_THROW(MultibitTrie(16, {8, 9}), std::invalid_argument);   // sum != 16
  EXPECT_THROW(MultibitTrie(16, {}), std::invalid_argument);
  EXPECT_THROW(MultibitTrie(0, {0}), std::invalid_argument);
  EXPECT_NO_THROW(MultibitTrie(16, {5, 5, 6}));
  EXPECT_NO_THROW(MultibitTrie(32, {8, 8, 8, 8}));
}

TEST(MultibitTrie, EmptyLookupMisses) {
  auto trie = MultibitTrie::partition16();
  EXPECT_EQ(longest(trie, 0x1234), std::nullopt);
  EXPECT_EQ(trie.prefix_count(), 0U);
}

TEST(MultibitTrie, DefaultRouteMatchesEverything) {
  auto trie = MultibitTrie::partition16();
  trie.insert(Prefix::from_value(0, 0, 16), 9);
  EXPECT_EQ(longest(trie, 0), 9U);
  EXPECT_EQ(longest(trie, 0xFFFF), 9U);
}

TEST(MultibitTrie, LongestWinsAcrossLevels) {
  auto trie = MultibitTrie::partition16();
  trie.insert(Prefix::from_value(0xAB00, 8, 16), 1);   // ends level 2
  trie.insert(Prefix::from_value(0xABC0, 12, 16), 2);  // ends level 3
  trie.insert(Prefix::from_value(0xABCD, 16, 16), 3);  // exact
  EXPECT_EQ(longest(trie, 0xABCD), 3U);
  EXPECT_EQ(longest(trie, 0xABCE), 2U);
  EXPECT_EQ(longest(trie, 0xAB01), 1U);
  EXPECT_EQ(longest(trie, 0xAC01), std::nullopt);
}

TEST(MultibitTrie, LongestWinsWithinOneLevel) {
  // /3 and /5 both end inside the first level (stride 5): controlled
  // expansion must give the /5 priority on its subrange only.
  auto trie = MultibitTrie::partition16();
  trie.insert(Prefix::from_value(0b1010000000000000, 3, 16), 1);
  trie.insert(Prefix::from_value(0b1010100000000000, 5, 16), 2);
  EXPECT_EQ(longest(trie, 0b1010100000000000), 2U);
  EXPECT_EQ(longest(trie, 0b1010000000000000), 1U);
  EXPECT_EQ(longest(trie, 0b1011000000000000), 1U);
}

TEST(MultibitTrie, InsertionOrderIrrelevant) {
  auto a = MultibitTrie::partition16();
  auto b = MultibitTrie::partition16();
  const auto p1 = Prefix::from_value(0xAB00, 8, 16);
  const auto p2 = Prefix::from_value(0xABC0, 12, 16);
  a.insert(p1, 1);
  a.insert(p2, 2);
  b.insert(p2, 2);
  b.insert(p1, 1);
  for (std::uint64_t key = 0xAB00; key <= 0xABFF; ++key) {
    EXPECT_EQ(longest(a, key), longest(b, key)) << key;
  }
}

TEST(MultibitTrie, LookupAllReportsNestedPrefixesLongestFirst) {
  auto trie = MultibitTrie::partition16();
  trie.insert(Prefix::from_value(0, 0, 16), 0);
  trie.insert(Prefix::from_value(0b1010000000000000, 3, 16), 1);
  trie.insert(Prefix::from_value(0b1010100000000000, 5, 16), 2);  // same level as /3
  trie.insert(Prefix::from_value(0xA800, 8, 16), 3);
  std::vector<Label> labels;
  trie.lookup_all(0xA8FF, labels);
  EXPECT_EQ(labels, (std::vector<Label>{3, 2, 1, 0}));
  trie.lookup_all(0xA0FF, labels);
  EXPECT_EQ(labels, (std::vector<Label>{1, 0}));
}

TEST(MultibitTrie, RemoveRestoresFallback) {
  auto trie = MultibitTrie::partition16();
  trie.insert(Prefix::from_value(0xAB00, 8, 16), 1);
  trie.insert(Prefix::from_value(0xABC0, 12, 16), 2);
  EXPECT_TRUE(trie.remove(Prefix::from_value(0xABC0, 12, 16)));
  EXPECT_EQ(longest(trie, 0xABC5), 1U);
  EXPECT_FALSE(trie.remove(Prefix::from_value(0xABC0, 12, 16)));
  EXPECT_EQ(trie.prefix_count(), 1U);
}

TEST(MultibitTrie, RemoveWithinLevelFallsBackToSameLevelPrefix) {
  auto trie = MultibitTrie::partition16();
  trie.insert(Prefix::from_value(0b1010000000000000, 3, 16), 1);
  trie.insert(Prefix::from_value(0b1010100000000000, 5, 16), 2);
  EXPECT_TRUE(trie.remove(Prefix::from_value(0b1010100000000000, 5, 16)));
  EXPECT_EQ(longest(trie, 0b1010100000000000), 1U);
}

TEST(MultibitTrie, RemoveFallsBackToLengthZeroPrefix) {
  // The /0 is the only prefix left covering the /3's cells once it goes.
  auto trie = MultibitTrie::partition16();
  trie.insert(Prefix::from_value(0, 0, 16), 1);
  trie.insert(Prefix::from_value(0xE000, 3, 16), 2);
  EXPECT_TRUE(trie.remove(Prefix::from_value(0xE000, 3, 16)));
  EXPECT_EQ(longest(trie, 0xE123), 1U);
  std::vector<Label> labels;
  trie.lookup_all(0xE123, labels);
  EXPECT_EQ(labels, std::vector<Label>{1});
  EXPECT_EQ(trie.level_stats(0).labelled_nodes, 32U);  // every L1 cell
}

TEST(MultibitTrie, NodeAccountingBasics) {
  auto trie = MultibitTrie::partition16();
  // Root block is always allocated: 2^5 = 32 slots, zero stored nodes.
  EXPECT_EQ(trie.level_stats(0).allocated_entries, 32U);
  EXPECT_EQ(trie.stored_nodes(TrieStorage::kSparse), 0U);

  trie.insert(Prefix::exact(0xABCD, 16), 1);
  // Path: one L1 pointer node, one L2 pointer node, one L3 labelled node.
  EXPECT_EQ(trie.stored_nodes(0, TrieStorage::kSparse), 1U);
  EXPECT_EQ(trie.stored_nodes(1, TrieStorage::kSparse), 1U);
  EXPECT_EQ(trie.stored_nodes(2, TrieStorage::kSparse), 1U);
  EXPECT_EQ(trie.stored_nodes(TrieStorage::kArrayBlock), 32U + 32U + 64U);
  EXPECT_EQ(trie.level_stats(2).labelled_nodes, 1U);
}

TEST(MultibitTrie, SparseNeverExceedsArrayBlock) {
  workload::Rng rng(42);
  auto trie = MultibitTrie::partition16();
  for (int i = 0; i < 500; ++i) {
    const unsigned len = 1 + static_cast<unsigned>(rng.below(16));
    trie.insert(
        Prefix::from_value(rng.below(0x10000), len, 16),
        static_cast<Label>(i));
  }
  for (std::size_t level = 0; level < trie.level_count(); ++level) {
    EXPECT_LE(trie.stored_nodes(level, TrieStorage::kSparse),
              trie.stored_nodes(level, TrieStorage::kArrayBlock));
  }
}

TEST(MultibitTrie, L1NeverExceedsStrideCapacity) {
  // The paper: "The maximum stored nodes in L1 are 32" for stride-5 L1.
  workload::Rng rng(7);
  auto trie = MultibitTrie::partition16();
  for (int i = 0; i < 5000; ++i) {
    trie.insert(Prefix::exact(rng.below(0x10000), 16), static_cast<Label>(i));
  }
  EXPECT_LE(trie.stored_nodes(0, TrieStorage::kSparse), 32U);
  EXPECT_LE(trie.stored_nodes(0, TrieStorage::kArrayBlock), 32U);
}

TEST(MultibitTrie, LayoutsHaveNoPointerAtLeafLevel) {
  auto trie = MultibitTrie::partition16();
  trie.insert(Prefix::exact(0x1234, 16), 0);
  const auto layouts = trie.layouts(12);
  ASSERT_EQ(layouts.size(), 3U);
  EXPECT_GT(layouts[0].pointer_bits, 0U);
  EXPECT_GT(layouts[1].pointer_bits, 0U);
  EXPECT_EQ(layouts[2].pointer_bits, 0U);
  for (const auto& layout : layouts) {
    EXPECT_EQ(layout.label_bits, 12U);
    EXPECT_EQ(layout.flag_bits, 1U);
    EXPECT_EQ(layout.node_bits(),
              layout.pointer_bits + layout.label_bits + 1U);
  }
}

TEST(MultibitTrie, TotalBitsSumLevelBits) {
  workload::Rng rng(3);
  auto trie = MultibitTrie::partition16();
  for (int i = 0; i < 200; ++i) {
    trie.insert(Prefix::exact(rng.below(0x10000), 16), static_cast<Label>(i));
  }
  std::uint64_t sum = 0;
  for (std::size_t level = 0; level < trie.level_count(); ++level) {
    sum += trie.level_bits(level, TrieStorage::kSparse, 12);
  }
  EXPECT_EQ(sum, trie.total_bits(TrieStorage::kSparse, 12));
  EXPECT_EQ(trie.memory_report("t", TrieStorage::kSparse, 12).total_bits(), sum);
}

TEST(MultibitTrie, WriteCountGrowsAndReinsertIsFree) {
  auto trie = MultibitTrie::partition16();
  trie.insert(Prefix::exact(0x1234, 16), 5);
  const auto writes = trie.write_count();
  EXPECT_GT(writes, 0U);
  trie.insert(Prefix::exact(0x1234, 16), 5);  // identical re-insert
  EXPECT_EQ(trie.write_count(), writes);
}

TEST(MultibitTrie, InsertCostMatchesActualWritesOnEmptyTrie) {
  workload::Rng rng(17);
  for (int trial = 0; trial < 100; ++trial) {
    const unsigned len = static_cast<unsigned>(rng.below(17));
    const auto prefix = Prefix::from_value(rng.below(0x10000), len, 16);
    auto trie = MultibitTrie::partition16();
    const auto predicted = trie.insert_cost(prefix);
    trie.insert(prefix, 1);
    EXPECT_EQ(predicted, trie.write_count()) << prefix.to_string();
  }
}

TEST(MultibitTrie, UniformLayoutsTakeWorstCase) {
  auto small = MultibitTrie::partition16();
  small.insert(Prefix::exact(1, 16), 0);
  auto big = MultibitTrie::partition16();
  workload::Rng rng(5);
  for (int i = 0; i < 3000; ++i) {
    big.insert(Prefix::exact(rng.below(0x10000), 16), static_cast<Label>(i));
  }
  const auto uniform = uniform_layouts({&small, &big}, 12);
  const auto big_own = big.layouts(12);
  for (std::size_t level = 0; level < uniform.size(); ++level) {
    EXPECT_GE(uniform[level].pointer_bits, big_own[level].pointer_bits);
  }
}

// ---- randomized equivalence against the unibit-trie oracle, across stride
// configurations (the stride ablation surface) ----

struct StrideCase {
  const char* name;
  std::vector<unsigned> strides;
};

class MbtOracle : public ::testing::TestWithParam<StrideCase> {};

TEST_P(MbtOracle, MatchesUnibitOnRandomPrefixSets) {
  workload::Rng rng(0xC0FFEE);
  for (int trial = 0; trial < 8; ++trial) {
    MultibitTrie mbt(16, GetParam().strides);
    UnibitTrie oracle(16);
    std::map<std::pair<unsigned, std::uint64_t>, Label> inserted;
    for (int i = 0; i < 300; ++i) {
      const unsigned len = static_cast<unsigned>(rng.below(17));
      const auto prefix = Prefix::from_value(rng.below(0x10000), len, 16);
      const auto label = static_cast<Label>(
          inserted.try_emplace({prefix.length(), prefix.value64()},
                               static_cast<Label>(inserted.size()))
              .first->second);
      mbt.insert(prefix, label);
      oracle.insert(prefix, label);
    }
    for (int probe = 0; probe < 2000; ++probe) {
      const std::uint64_t key = rng.below(0x10000);
      EXPECT_EQ(longest(mbt, key), oracle.lookup(key)) << "key " << key;
    }
    // lookup_all equals the oracle's full matching set, longest first.
    for (int probe = 0; probe < 300; ++probe) {
      const std::uint64_t key = rng.below(0x10000);
      std::vector<Label> mbt_all;
      mbt.lookup_all(key, mbt_all);
      auto oracle_all = oracle.lookup_all(key);  // shortest first
      std::reverse(oracle_all.begin(), oracle_all.end());
      EXPECT_EQ(mbt_all, oracle_all) << "key " << key;
    }
  }
}

TEST_P(MbtOracle, RemovalKeepsOracleEquivalence) {
  workload::Rng rng(0xFEED);
  MultibitTrie mbt(16, GetParam().strides);
  UnibitTrie oracle(16);
  std::vector<Prefix> live;
  std::map<std::pair<unsigned, std::uint64_t>, Label> labels;
  for (int step = 0; step < 400; ++step) {
    if (live.empty() || rng.chance(0.65)) {
      const unsigned len = static_cast<unsigned>(rng.below(17));
      const auto prefix = Prefix::from_value(rng.below(0x10000), len, 16);
      const auto label = static_cast<Label>(
          labels.try_emplace({prefix.length(), prefix.value64()},
                             static_cast<Label>(labels.size()))
              .first->second);
      mbt.insert(prefix, label);
      oracle.insert(prefix, label);
      live.push_back(prefix);
    } else {
      const std::size_t victim = rng.below(live.size());
      const Prefix prefix = live[victim];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      // The same prefix may still be present via a duplicate entry in live.
      const bool still_live =
          std::any_of(live.begin(), live.end(),
                      [&prefix](const Prefix& p) { return p == prefix; });
      if (!still_live) {
        EXPECT_TRUE(mbt.remove(prefix));
        EXPECT_TRUE(oracle.remove(prefix));
      }
    }
    if (step % 20 == 0) {
      for (int probe = 0; probe < 200; ++probe) {
        const std::uint64_t key = rng.below(0x10000);
        EXPECT_EQ(longest(mbt, key), oracle.lookup(key))
            << "step " << step << " key " << key;
        std::vector<Label> mbt_all;
        mbt.lookup_all(key, mbt_all);
        auto oracle_all = oracle.lookup_all(key);  // shortest first
        std::reverse(oracle_all.begin(), oracle_all.end());
        EXPECT_EQ(mbt_all, oracle_all) << "step " << step << " key " << key;
      }
    }
  }
}

/// A pool of candidate prefixes churned in and out of one trie.
struct ChurnSet {
  const char* name;
  std::size_t pool;     ///< candidate prefixes
  unsigned min_len;
  unsigned max_len;
  bool pin_default;     ///< a /0 stays live throughout
  int steps;
};

TEST_P(MbtOracle, ChurnMatchesOnePassRebuild) {
  // After every insert/remove/relabel step the churned trie must answer
  // every key exactly like a trie built in one pass from the surviving
  // prefixes. The sparse set keeps a few short disjoint-ish prefixes over a
  // pinned /0, so removals fall back to the /0 alone.
  const ChurnSet sets[] = {
      {"dense", 40, 0, 16, false, 80},
      {"sparse_over_default", 8, 1, 6, true, 40},
  };
  workload::Rng rng(0xC4A9);
  for (const ChurnSet& set : sets) {
    std::vector<Prefix> pool;
    for (std::size_t i = 0; i < set.pool; ++i) {
      const auto len = static_cast<unsigned>(
          set.min_len + rng.below(set.max_len - set.min_len + 1));
      pool.push_back(Prefix::from_value(rng.below(0x10000), len, 16));
    }
    std::vector<std::optional<Label>> live(pool.size());
    Label next_label = 0;
    MultibitTrie churned(16, GetParam().strides);
    const Prefix default_route = Prefix::from_value(0, 0, 16);
    if (set.pin_default) churned.insert(default_route, 999);
    for (int step = 0; step < set.steps; ++step) {
      const std::size_t pick = rng.below(pool.size());
      // Duplicates in the pool share one stored prefix, so they change
      // together.
      std::optional<Label> now;
      if (live[pick] && rng.chance(0.6)) {
        ASSERT_TRUE(churned.remove(pool[pick]));
      } else {
        // Fresh insert or in-place relabel of a live prefix.
        now = next_label++;
        churned.insert(pool[pick], *now);
      }
      for (std::size_t i = 0; i < pool.size(); ++i) {
        if (pool[i] == pool[pick]) live[i] = now;
      }
      MultibitTrie rebuilt(16, GetParam().strides);
      if (set.pin_default) rebuilt.insert(default_route, 999);
      for (std::size_t i = 0; i < pool.size(); ++i) {
        if (live[i]) rebuilt.insert(pool[i], *live[i]);
      }
      ASSERT_EQ(churned.prefix_count(), rebuilt.prefix_count());
      std::vector<Label> got;
      std::vector<Label> want;
      for (std::uint64_t key = 0; key < 0x10000; ++key) {
        churned.lookup_all(key, got);
        rebuilt.lookup_all(key, want);
        ASSERT_EQ(got, want) << set.name << " step " << step << " key " << key;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strides, MbtOracle,
    ::testing::Values(StrideCase{"paper_5_5_6", {5, 5, 6}},
                      StrideCase{"two_level_8_8", {8, 8}},
                      StrideCase{"four_level_4x4", {4, 4, 4, 4}},
                      StrideCase{"uneven_6_5_5", {6, 5, 5}},
                      StrideCase{"single_level_16", {16}}),
    [](const ::testing::TestParamInfo<StrideCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace ofmtl
