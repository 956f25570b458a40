// Tree Bitmap trie: LPM equivalence against the unibit oracle across stride
// configurations, plus the compressed-layout memory accounting.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "classifier/tree_bitmap.hpp"
#include "classifier/unibit_trie.hpp"
#include "core/multibit_trie.hpp"
#include "workload/rng.hpp"

namespace ofmtl {
namespace {

TEST(TreeBitmap, RejectsBadConfig) {
  EXPECT_THROW(TreeBitmapTrie(16, {8, 9}, {}), std::invalid_argument);
  EXPECT_THROW(TreeBitmapTrie(16, {8, 8}, {}), std::invalid_argument);  // s>6
  EXPECT_NO_THROW(TreeBitmapTrie(16, {4, 4, 4, 4}, {}));
}

TEST(TreeBitmap, BasicsAndDefaultRoute) {
  TreeBitmapTrie trie(16, {4, 4, 4, 4},
                      {{Prefix::from_value(0, 0, 16), 0},
                       {Prefix::from_value(0xAB00, 8, 16), 1},
                       {Prefix::exact(0xABCD, 16), 2}});
  EXPECT_EQ(trie.lookup(0xABCD), 2U);
  EXPECT_EQ(trie.lookup(0xABCE), 1U);
  EXPECT_EQ(trie.lookup(0x1234), 0U);
}

TEST(TreeBitmap, FullStrideBoundaryPrefixes) {
  // Lengths on exact stride boundaries (4, 8, 12, 16) exercise the
  // "length-0 in child" encoding and the widened last-level bitmap.
  TreeBitmapTrie trie(16, {4, 4, 4, 4},
                      {{Prefix::from_value(0xA000, 4, 16), 1},
                       {Prefix::from_value(0xAB00, 8, 16), 2},
                       {Prefix::from_value(0xABC0, 12, 16), 3},
                       {Prefix::exact(0xABCD, 16), 4}});
  EXPECT_EQ(trie.lookup(0xABCD), 4U);
  EXPECT_EQ(trie.lookup(0xABC1), 3U);
  EXPECT_EQ(trie.lookup(0xABF0), 2U);
  EXPECT_EQ(trie.lookup(0xAF00), 1U);
  EXPECT_EQ(trie.lookup(0xB000), std::nullopt);
}

TEST(TreeBitmap, DuplicateLastLabelWins) {
  TreeBitmapTrie trie(16, {4, 4, 4, 4},
                      {{Prefix::exact(0x1111, 16), 7},
                       {Prefix::exact(0x1111, 16), 9}});
  EXPECT_EQ(trie.lookup(0x1111), 9U);
}

struct TbmCase {
  const char* name;
  std::vector<unsigned> strides;
};

class TreeBitmapOracle : public ::testing::TestWithParam<TbmCase> {};

TEST_P(TreeBitmapOracle, MatchesUnibitOnRandomSets) {
  workload::Rng rng(0xBEEF);
  for (int trial = 0; trial < 8; ++trial) {
    std::map<std::pair<unsigned, std::uint64_t>, Label> dedup;
    std::vector<std::pair<Prefix, Label>> prefixes;
    UnibitTrie oracle(16);
    for (int i = 0; i < 250; ++i) {
      const unsigned len = static_cast<unsigned>(rng.below(17));
      const auto prefix = Prefix::from_value(rng.below(0x10000), len, 16);
      const auto label = static_cast<Label>(i);
      dedup[{prefix.length(), prefix.value64()}] = label;
      prefixes.emplace_back(prefix, label);
      oracle.insert(prefix, label);
    }
    TreeBitmapTrie trie(16, GetParam().strides, prefixes);
    for (int probe = 0; probe < 3000; ++probe) {
      const std::uint64_t key = rng.below(0x10000);
      EXPECT_EQ(trie.lookup(key), oracle.lookup(key)) << "key " << key;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strides, TreeBitmapOracle,
    ::testing::Values(TbmCase{"four_level_4", {4, 4, 4, 4}},
                      TbmCase{"mixed_6_5_5", {6, 5, 5}},
                      TbmCase{"three_level_5_5_6", {5, 5, 6}},
                      TbmCase{"eight_level_2", {2, 2, 2, 2, 2, 2, 2, 2}}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(TreeBitmap, MemoryBeatsArrayBlockMbt) {
  // The compression claim: tree-bitmap nodes cost less than the array-block
  // MBT on realistic (clustered) prefix sets.
  workload::Rng rng(77);
  std::vector<std::pair<Prefix, Label>> prefixes;
  std::set<std::uint64_t> unique_values;
  auto mbt = MultibitTrie(16, {4, 4, 4, 4});
  for (int i = 0; i < 2000; ++i) {
    const auto prefix = Prefix::exact(0x2000 | rng.below(0x4000), 16);
    unique_values.insert(prefix.value64());
    prefixes.emplace_back(prefix, static_cast<Label>(i));
    mbt.insert(prefix, static_cast<Label>(i));
  }
  TreeBitmapTrie tbm(16, {4, 4, 4, 4}, prefixes);
  const unsigned label_bits = 12;
  EXPECT_LT(tbm.total_bits(label_bits),
            mbt.total_bits(TrieStorage::kArrayBlock, label_bits));
  EXPECT_GT(tbm.node_count(), 0U);
  EXPECT_EQ(tbm.result_count(), unique_values.size());

  const auto report = tbm.memory_report("tbm", label_bits);
  EXPECT_EQ(report.total_bits(), tbm.total_bits(label_bits));
}

TEST(TreeBitmap, NodeBitsLayout) {
  TreeBitmapTrie trie(16, {4, 4, 4, 4}, {{Prefix::exact(1, 16), 0}});
  // Non-last level: internal 2^4-1=15 + external 2^4=16 + pointers.
  EXPECT_GE(trie.node_bits(0, 12), 15U + 16U);
  // Last level: widened internal 2^5-1=31, no external/child pointer.
  EXPECT_GE(trie.node_bits(3, 12), 31U);
  EXPECT_LT(trie.node_bits(3, 12), trie.node_bits(0, 12) + 31U);
}

}  // namespace
}  // namespace ofmtl
