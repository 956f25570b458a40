// Flow-layer unit tests: FieldMatch/FlowMatch semantics, FlowTable priority
// and stable ordering, instruction/action encoding sizes and printing, and
// the flow-stats tracker in isolation.
#include <gtest/gtest.h>

#include "flow/flow_stats.hpp"
#include "flow/flow_table.hpp"
#include "flow/instruction.hpp"

namespace ofmtl {
namespace {

TEST(FieldMatch, Semantics) {
  EXPECT_TRUE(FieldMatch::any().matches(U128{123}));
  EXPECT_TRUE(FieldMatch::exact(std::uint64_t{5}).matches(U128{5}));
  EXPECT_FALSE(FieldMatch::exact(std::uint64_t{5}).matches(U128{6}));

  const auto prefix =
      FieldMatch::of_prefix(Prefix::from_value(0xAB00, 8, 16));
  EXPECT_TRUE(prefix.matches(U128{0xABFF}));
  EXPECT_FALSE(prefix.matches(U128{0xAC00}));

  const auto range = FieldMatch::of_range(10, 20);
  EXPECT_TRUE(range.matches(U128{15}));
  EXPECT_FALSE(range.matches(U128{21}));
  EXPECT_FALSE(range.matches(U128{1, 15}));  // high bits set: out of range

  const auto masked = FieldMatch::masked(U128{0x10}, U128{0xF0});
  EXPECT_TRUE(masked.matches(U128{0x1F}));
  EXPECT_FALSE(masked.matches(U128{0x2F}));
}

TEST(FlowMatch, ConstrainedFieldsAndMatching) {
  FlowMatch match;
  EXPECT_TRUE(match.constrained_fields().empty());
  match.set(FieldId::kVlanId, FieldMatch::exact(std::uint64_t{7}));
  match.set(FieldId::kDstPort, FieldMatch::of_range(80, 90));
  const auto fields = match.constrained_fields();
  ASSERT_EQ(fields.size(), 2U);
  EXPECT_EQ(fields[0], FieldId::kVlanId);
  EXPECT_EQ(fields[1], FieldId::kDstPort);

  PacketHeader h;
  h.set_vlan_id(7);
  h.set_dst_port(85);
  EXPECT_TRUE(match.matches(h));
  h.set_dst_port(95);
  EXPECT_FALSE(match.matches(h));
}

TEST(FlowMatch, ToStringListsConstraints) {
  FlowMatch match;
  match.set(FieldId::kVlanId, FieldMatch::exact(std::uint64_t{7}));
  const auto text = match.to_string();
  EXPECT_NE(text.find("VLAN ID"), std::string::npos);
  EXPECT_NE(text.find("7"), std::string::npos);
}

FlowEntry entry_with_priority(FlowEntryId id, std::uint16_t priority) {
  FlowEntry entry;
  entry.id = id;
  entry.priority = priority;
  entry.match.set(FieldId::kVlanId, FieldMatch::exact(std::uint64_t{1}));
  return entry;
}

TEST(FlowTableOrdering, HighestPriorityWins) {
  FlowTable table;
  table.insert(entry_with_priority(1, 5));
  table.insert(entry_with_priority(2, 50));
  table.insert(entry_with_priority(3, 10));
  PacketHeader h;
  h.set_vlan_id(1);
  ASSERT_NE(table.lookup(h), nullptr);
  EXPECT_EQ(table.lookup(h)->id, 2U);
}

TEST(FlowTableOrdering, EqualPriorityStableByInsertion) {
  FlowTable table;
  table.insert(entry_with_priority(10, 5));
  table.insert(entry_with_priority(11, 5));
  PacketHeader h;
  h.set_vlan_id(1);
  EXPECT_EQ(table.lookup(h)->id, 10U);
  EXPECT_TRUE(table.remove(10));
  EXPECT_EQ(table.lookup(h)->id, 11U);
}

TEST(FlowTableOrdering, ReplaceSortsByPriority) {
  FlowTable table;
  table.replace({entry_with_priority(1, 1), entry_with_priority(2, 9),
                 entry_with_priority(3, 5)});
  EXPECT_EQ(table.entries()[0].id, 2U);
  EXPECT_EQ(table.entries()[1].id, 3U);
  EXPECT_EQ(table.entries()[2].id, 1U);
}

TEST(Instructions, ToStringAndBits) {
  InstructionSet ins;
  EXPECT_EQ(ins.to_string(), "(empty)");
  ins = goto_and_write(2, {OutputAction{7}});
  ins.write_metadata = MetadataWrite{1, 0xFF};
  const auto text = ins.to_string();
  EXPECT_NE(text.find("goto-table:2"), std::string::npos);
  EXPECT_NE(text.find("write-metadata"), std::string::npos);
  EXPECT_NE(text.find("output:7"), std::string::npos);
  // presence flags + goto(8) + metadata(128) + output action(16+32)
  EXPECT_EQ(ins.bits(), 5U + 8U + 128U + 48U);
}

TEST(Actions, BitsAndPrinting) {
  EXPECT_EQ(action_bits(OutputAction{1}), 16U + 32U);
  EXPECT_EQ(action_bits(PopVlanAction{}), 16U);
  EXPECT_EQ(action_bits(SetFieldAction{FieldId::kEthDst, U128{1}}),
            16U + 8U + 48U);
  EXPECT_EQ(to_string(Action{DropAction{}}), "drop");
  EXPECT_EQ(to_string(Action{OutputAction{3}}), "output:3");
}

TEST(FlowStatsTracker, Lifecycle) {
  FlowStatsTracker tracker;
  tracker.install({0, 1}, {.idle_timeout = 10, .hard_timeout = 100}, 5);
  EXPECT_EQ(tracker.tracked(), 1U);

  ExecutionResult result;
  result.matched_entries = {1, 2};  // entry 2 untracked: ignored
  result.visited_tables = {0, 1};
  tracker.record(result, 64, 8);
  const FlowStats* stats = tracker.find({0, 1});
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->packets, 1U);
  EXPECT_EQ(stats->bytes, 64U);
  EXPECT_EQ(stats->installed_at, 5U);
  EXPECT_EQ(stats->last_used, 8U);
  EXPECT_EQ(tracker.find({1, 2}), nullptr);

  EXPECT_TRUE(tracker.expired(17).empty());  // 8 + 10 = 18 > 17
  EXPECT_EQ(tracker.expired(18),             // idle fires
            (std::vector<Expiry>{{{0, 1}, Timeout::kIdle}}));
  EXPECT_EQ(tracker.expired(105),            // both fire: hard wins
            (std::vector<Expiry>{{{0, 1}, Timeout::kHard}}));
  tracker.erase({0, 1});
  EXPECT_EQ(tracker.tracked(), 0U);
}

TEST(FlowStatsTracker, ZeroTimeoutsNeverExpire) {
  FlowStatsTracker tracker;
  tracker.install({0, 1}, {}, 0);
  EXPECT_TRUE(tracker.expired(1'000'000).empty());
}

}  // namespace
}  // namespace ofmtl
