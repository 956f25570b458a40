// Unibit trie vs. brute force, and RangeMatcher vs. brute force.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "classifier/range_matcher.hpp"
#include "classifier/unibit_trie.hpp"
#include "workload/rng.hpp"

namespace ofmtl {
namespace {

TEST(UnibitTrie, Basics) {
  UnibitTrie trie(8);
  EXPECT_EQ(trie.lookup(5), std::nullopt);
  trie.insert(Prefix::from_value(0b10100000, 3, 8), 1);
  trie.insert(Prefix::from_value(0b10110000, 4, 8), 2);
  EXPECT_EQ(trie.lookup(0b10111111), 2U);
  EXPECT_EQ(trie.lookup(0b10100000), 1U);
  EXPECT_EQ(trie.lookup(0b11100000), std::nullopt);
  EXPECT_EQ(trie.prefix_count(), 2U);
}

TEST(UnibitTrie, RemoveAndReinsert) {
  UnibitTrie trie(8);
  const auto p = Prefix::from_value(0xF0, 4, 8);
  trie.insert(p, 7);
  EXPECT_TRUE(trie.remove(p));
  EXPECT_FALSE(trie.remove(p));
  EXPECT_EQ(trie.lookup(0xF5), std::nullopt);
  trie.insert(p, 8);
  EXPECT_EQ(trie.lookup(0xF5), 8U);
}

TEST(UnibitTrie, BruteForceEquivalence) {
  workload::Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    UnibitTrie trie(10);
    std::vector<std::pair<Prefix, std::uint32_t>> prefixes;
    for (int i = 0; i < 60; ++i) {
      const unsigned len = static_cast<unsigned>(rng.below(11));
      const auto prefix = Prefix::from_value(rng.below(1 << 10), len, 10);
      // Keep last-insert-wins semantics consistent with brute force.
      std::erase_if(prefixes, [&](const auto& e) { return e.first == prefix; });
      prefixes.emplace_back(prefix, static_cast<std::uint32_t>(i));
      trie.insert(prefix, static_cast<std::uint32_t>(i));
    }
    for (std::uint64_t key = 0; key < (1 << 10); ++key) {
      std::optional<std::uint32_t> best;
      unsigned best_len = 0;
      for (const auto& [prefix, value] : prefixes) {
        if (prefix.matches(key) && (!best || prefix.length() >= best_len)) {
          best = value;
          best_len = prefix.length();
        }
      }
      EXPECT_EQ(trie.lookup(key), best) << key;
    }
  }
}

TEST(RangeMatcher, DeduplicatesRanges) {
  RangeMatcher matcher(16);
  const auto a = matcher.add({10, 20});
  const auto b = matcher.add({10, 20});
  const auto c = matcher.add({15, 25});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(matcher.unique_ranges(), 2U);
}

TEST(RangeMatcher, NarrowestFirst) {
  RangeMatcher matcher(16);
  const auto wide = matcher.add({0, 65535});
  const auto mid = matcher.add({1000, 2000});
  const auto tight = matcher.add({1500, 1510});
  const auto& labels = matcher.lookup(1505);
  ASSERT_EQ(labels.size(), 3U);
  EXPECT_EQ(labels[0], tight);
  EXPECT_EQ(labels[1], mid);
  EXPECT_EQ(labels[2], wide);
  EXPECT_EQ(matcher.lookup(500), std::vector<std::uint32_t>{wide});
}

/// Brute force over the whole 10-bit key space after every add and every
/// remove: each live range containing the key, narrowest first (ties by
/// label). Removes interleave with adds, so boundaries split and merge
/// while lookups keep answering.
TEST(RangeMatcher, BruteForceEquivalence) {
  workload::Rng rng(123);
  for (int trial = 0; trial < 10; ++trial) {
    RangeMatcher matcher(10);
    std::vector<ValueRange> held;  // one entry per reference
    const auto expect_brute_force = [&](int step) {
      std::vector<std::uint32_t> live;
      for (const ValueRange& range : held) live.push_back(*matcher.find(range));
      std::sort(live.begin(), live.end(), [&](std::uint32_t x, std::uint32_t y) {
        const auto sx = matcher.range_of(x).span();
        const auto sy = matcher.range_of(y).span();
        return sx != sy ? sx < sy : x < y;
      });
      live.erase(std::unique(live.begin(), live.end()), live.end());
      for (std::uint64_t key = 0; key < (1 << 10); ++key) {
        std::vector<std::uint32_t> expected;
        for (const std::uint32_t label : live) {
          if (matcher.range_of(label).contains(key)) expected.push_back(label);
        }
        ASSERT_EQ(matcher.lookup(key), expected)
            << "trial " << trial << " step " << step << " key " << key;
      }
    };
    for (int step = 0; step < 40; ++step) {
      if (!held.empty() && rng.below(3) == 0) {
        const std::size_t victim = rng.below(held.size());
        ASSERT_TRUE(matcher.remove(held[victim]));
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(victim));
      } else if (!held.empty() && rng.below(5) == 0) {
        const ValueRange range = held[rng.below(held.size())];  // extra ref
        matcher.add(range);
        held.push_back(range);
      } else {
        std::uint64_t a = rng.below(1 << 10);
        std::uint64_t b = rng.below(1 << 10);
        if (a > b) std::swap(a, b);
        matcher.add({a, b});
        held.push_back({a, b});
      }
      expect_brute_force(step);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(RangeMatcher, StorageBitsGrowWithRanges) {
  RangeMatcher small(16);
  small.add({1, 2});
  RangeMatcher big(16);
  workload::Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    const std::uint64_t lo = rng.below(60000);
    big.add({lo, lo + rng.below(1000)});
  }
  EXPECT_GT(big.storage_bits(8), small.storage_bits(8));
}

}  // namespace
}  // namespace ofmtl
