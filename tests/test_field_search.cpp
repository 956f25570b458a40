// FieldSearch unit tests: the per-field decomposition into algorithms,
// candidate-list semantics (most specific first), wildcard labels, unique
// value counting, and the update-word accounting the Fig. 5 model uses.
#include <gtest/gtest.h>

#include "core/field_search.hpp"

namespace ofmtl {
namespace {

/// Search one packet (a one-lane batch) through a fresh context; returns
/// its candidate list per algorithm.
std::vector<LabelList> search_one(const FieldSearch& search,
                                  const PacketHeader& header) {
  SearchContext ctx;
  ctx.begin(1, search.algorithm_count());
  const PacketHeader* const headers[] = {&header};
  search.search_batch(headers, ctx, 0);
  const auto candidates = ctx.packet_candidates(0);
  return {candidates.begin(), candidates.end()};
}

TEST(FieldSearch, AlgorithmCounts) {
  EXPECT_EQ(FieldSearch(FieldId::kVlanId).algorithm_count(), 1U);
  EXPECT_EQ(FieldSearch(FieldId::kSrcPort).algorithm_count(), 1U);
  EXPECT_EQ(FieldSearch(FieldId::kIpv4Dst).algorithm_count(), 2U);
  EXPECT_EQ(FieldSearch(FieldId::kEthDst).algorithm_count(), 3U);
  EXPECT_EQ(FieldSearch(FieldId::kIpv6Dst).algorithm_count(), 8U);
}

TEST(FieldSearch, EmCandidates) {
  FieldSearch search(FieldId::kVlanId);
  const auto exact = search.add_rule(FieldMatch::exact(std::uint64_t{10}));
  ASSERT_EQ(exact.size(), 1U);
  const auto any = search.add_rule(FieldMatch::any());
  ASSERT_EQ(any.size(), 1U);
  EXPECT_NE(exact[0], any[0]);

  PacketHeader h;
  h.set_vlan_id(10);
  auto out = search_one(search, h);
  ASSERT_EQ(out.size(), 1U);
  // Exact label first (most specific), wildcard after.
  EXPECT_EQ(out[0], (LabelList{exact[0], any[0]}));

  h.set_vlan_id(99);
  out = search_one(search, h);
  EXPECT_EQ(out[0], (LabelList{any[0]}));
}

TEST(FieldSearch, EmRejectsNonExact) {
  FieldSearch search(FieldId::kVlanId);
  EXPECT_THROW((void)search.add_rule(FieldMatch::of_range(1, 2)),
               std::invalid_argument);
}

TEST(FieldSearch, LpmPartitionLabelsAndCandidates) {
  FieldSearch search(FieldId::kIpv4Dst);
  // /8: high partition keeps 8 bits, low partition is wildcard.
  const auto labels8 = search.add_rule(
      FieldMatch::of_prefix(Prefix::from_value(0x0A000000, 8, 32)));
  ASSERT_EQ(labels8.size(), 2U);
  // /24: high exact 16 bits, low 8 bits.
  const auto labels24 = search.add_rule(
      FieldMatch::of_prefix(Prefix::from_value(0x0A010200, 24, 32)));
  EXPECT_NE(labels8[0], labels24[0]);

  PacketHeader h;
  h.set_ipv4_dst(Ipv4Address{0x0A010203});
  auto out = search_one(search, h);
  ASSERT_EQ(out.size(), 2U);
  // High partition: /16 piece of the /24 rule is longer than the /8 piece.
  EXPECT_EQ(out[0], (LabelList{labels24[0], labels8[0]}));
  // Low partition: the /24's 8-bit piece, then the /8's wildcard piece.
  EXPECT_EQ(out[1], (LabelList{labels24[1], labels8[1]}));

  // An address only the /8 covers.
  h.set_ipv4_dst(Ipv4Address{0x0AFF0000});
  out = search_one(search, h);
  EXPECT_EQ(out[0], (LabelList{labels8[0]}));
  EXPECT_EQ(out[1], (LabelList{labels8[1]}));
}

TEST(FieldSearch, SharedPartitionValuesShareLabels) {
  FieldSearch search(FieldId::kEthDst);
  // Two MACs sharing the OUI: identical hi/mid partitions -> same labels.
  const auto a = search.add_rule(FieldMatch::exact(std::uint64_t{0xAABBCC000001ULL}));
  const auto b = search.add_rule(FieldMatch::exact(std::uint64_t{0xAABBCC000002ULL}));
  ASSERT_EQ(a.size(), 3U);
  EXPECT_EQ(a[0], b[0]);  // hi 0xAABB
  EXPECT_EQ(a[1], b[1]);  // mid 0xCC00
  EXPECT_NE(a[2], b[2]);  // lo differs
  EXPECT_EQ(search.unique_values(), (std::vector<std::size_t>{1, 1, 2}));
}

TEST(FieldSearch, RangeCandidatesNarrowestFirst) {
  FieldSearch search(FieldId::kDstPort);
  const auto wide = search.add_rule(FieldMatch::of_range(0, 65535));
  const auto tight = search.add_rule(FieldMatch::of_range(80, 80));

  PacketHeader h;
  h.set_dst_port(80);
  auto out = search_one(search, h);
  EXPECT_EQ(out[0], (LabelList{tight[0], wide[0]}));
}

TEST(FieldSearch, UpdateWordsReflectLabelMethod) {
  FieldSearch search(FieldId::kEthDst);
  (void)search.add_rule(FieldMatch::exact(std::uint64_t{0xAABBCC000001ULL}));
  const auto words_first = search.update_words();
  // Re-adding a rule with shared hi/mid partitions only writes the new lo.
  (void)search.add_rule(FieldMatch::exact(std::uint64_t{0xAABBCC000002ULL}));
  const auto words_second = search.update_words();
  EXPECT_GT(words_second, words_first);
  EXPECT_LT(words_second - words_first, words_first);
}

TEST(FieldSearch, RemoveUnknownThrows) {
  FieldSearch search(FieldId::kVlanId);
  EXPECT_THROW((void)search.remove_rule(FieldMatch::exact(std::uint64_t{1})),
               std::invalid_argument);
  FieldSearch lpm(FieldId::kIpv4Dst);
  EXPECT_THROW((void)lpm.remove_rule(FieldMatch::of_prefix(
                   Prefix::from_value(0x0A000000, 8, 32))),
               std::invalid_argument);
  FieldSearch rm(FieldId::kDstPort);
  EXPECT_THROW((void)rm.remove_rule(FieldMatch::of_range(1, 2)),
               std::invalid_argument);
}

TEST(FieldSearch, MemoryReportNamesPartitions) {
  FieldSearch search(FieldId::kEthDst);
  (void)search.add_rule(FieldMatch::exact(std::uint64_t{0xAABBCCDDEEFFULL}));
  const auto report = search.memory_report("f");
  bool hi = false, mid = false, lo = false;
  for (const auto& component : report.components()) {
    hi |= component.name.find(".trie.hi.") != std::string::npos;
    mid |= component.name.find(".trie.mid.") != std::string::npos;
    lo |= component.name.find(".trie.lo.") != std::string::npos;
  }
  EXPECT_TRUE(hi);
  EXPECT_TRUE(mid);
  EXPECT_TRUE(lo);
}

}  // namespace
}  // namespace ofmtl
