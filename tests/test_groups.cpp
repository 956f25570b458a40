// Group-table tests: validation, ALL/SELECT/INDIRECT execution semantics
// through both pipelines, the live-equivalence invariant with groups, and
// the Group action on the wire.
#include <gtest/gtest.h>

#include "core/switch_model.hpp"
#include "flow/group_table.hpp"
#include "ofp/messages.hpp"
#include "workload/rng.hpp"

namespace ofmtl {
namespace {

Group flood_group(GroupId id, std::initializer_list<std::uint32_t> ports) {
  Group group;
  group.id = id;
  group.type = GroupType::kAll;
  for (const auto port : ports) {
    group.buckets.push_back(GroupBucket{1, {OutputAction{port}}});
  }
  return group;
}

TEST(GroupTable, Validation) {
  GroupTable table;
  EXPECT_THROW(table.add(Group{}), std::invalid_argument);  // no buckets
  Group indirect;
  indirect.id = 1;
  indirect.type = GroupType::kIndirect;
  indirect.buckets = {GroupBucket{1, {OutputAction{1}}},
                      GroupBucket{1, {OutputAction{2}}}};
  EXPECT_THROW(table.add(indirect), std::invalid_argument);  // >1 bucket
  Group select;
  select.id = 2;
  select.type = GroupType::kSelect;
  select.buckets = {GroupBucket{0, {OutputAction{1}}}};
  EXPECT_THROW(table.add(select), std::invalid_argument);  // zero weight

  table.add(flood_group(3, {1, 2}));
  EXPECT_THROW(table.add(flood_group(3, {4})), std::invalid_argument);  // dup
  EXPECT_EQ(table.size(), 1U);
  EXPECT_NE(table.find(3), nullptr);
  EXPECT_TRUE(table.remove(3));
  EXPECT_FALSE(table.remove(3));
  EXPECT_THROW(table.modify(flood_group(3, {4})), std::invalid_argument);
}

TEST(GroupTable, SelectBucketWeighted) {
  Group group;
  group.id = 1;
  group.type = GroupType::kSelect;
  group.buckets = {GroupBucket{3, {OutputAction{1}}},
                   GroupBucket{1, {OutputAction{2}}}};
  // Deterministic: the same hash picks the same bucket.
  const auto& a = GroupTable::select_bucket(group, 42);
  const auto& b = GroupTable::select_bucket(group, 42);
  EXPECT_EQ(&a, &b);
  // Weighted: over the hash space, bucket 0 gets 3/4 of the picks.
  std::size_t first = 0;
  for (std::uint64_t h = 0; h < 4000; ++h) {
    if (&GroupTable::select_bucket(group, h) == &group.buckets[0]) ++first;
  }
  EXPECT_EQ(first, 3000U);
}

FlowMod flow_to_group(FlowEntryId id, std::uint16_t vlan, GroupId group) {
  FlowMod mod;
  mod.entry.id = id;
  mod.entry.priority = 1;
  mod.entry.match.set(FieldId::kVlanId, FieldMatch::exact(std::uint64_t{vlan}));
  mod.entry.instructions.write_actions.push_back(GroupAction{group});
  return mod;
}

TEST(SwitchModelGroups, AllGroupFloodsEveryBucket) {
  SwitchModel sw({{FieldId::kVlanId}});
  sw.add_group(flood_group(7, {2, 3, 4}));
  ASSERT_EQ(sw.apply(flow_to_group(1, 10, 7)), FlowModStatus::kOk);

  PacketHeader h;
  h.set_vlan_id(10);
  const auto result = sw.process(h);
  EXPECT_EQ(result.verdict, Verdict::kForwarded);
  EXPECT_EQ(result.output_ports, (std::vector<std::uint32_t>{2, 3, 4}));
  EXPECT_EQ(sw.process_reference(h), result);
}

TEST(SwitchModelGroups, SelectGroupSpreadsFlows) {
  SwitchModel sw({{FieldId::kVlanId}});
  Group ecmp;
  ecmp.id = 9;
  ecmp.type = GroupType::kSelect;
  ecmp.buckets = {GroupBucket{1, {OutputAction{5}}},
                  GroupBucket{1, {OutputAction{6}}}};
  sw.add_group(std::move(ecmp));
  ASSERT_EQ(sw.apply(flow_to_group(1, 10, 9)), FlowModStatus::kOk);

  workload::Rng rng(5);
  std::size_t to5 = 0, to6 = 0;
  for (int i = 0; i < 400; ++i) {
    PacketHeader h;
    h.set_vlan_id(10);
    h.set_ipv4_src(Ipv4Address{static_cast<std::uint32_t>(rng.next())});
    h.set_ipv4_dst(Ipv4Address{static_cast<std::uint32_t>(rng.next())});
    const auto result = sw.process(h);
    ASSERT_EQ(result.output_ports.size(), 1U);
    (result.output_ports[0] == 5 ? to5 : to6) += 1;
    // Same packet -> same pick, and equivalence holds.
    EXPECT_EQ(sw.process(h).output_ports, result.output_ports);
    EXPECT_EQ(sw.process_reference(h), result);
  }
  // Both paths carry a meaningful share (hash spreads flows).
  EXPECT_GT(to5, 100U);
  EXPECT_GT(to6, 100U);
}

TEST(SwitchModelGroups, IndirectGroupAndModify) {
  SwitchModel sw({{FieldId::kVlanId}});
  Group nexthop;
  nexthop.id = 4;
  nexthop.type = GroupType::kIndirect;
  nexthop.buckets = {GroupBucket{1, {OutputAction{8}}}};
  sw.add_group(nexthop);
  ASSERT_EQ(sw.apply(flow_to_group(1, 10, 4)), FlowModStatus::kOk);
  ASSERT_EQ(sw.apply(flow_to_group(2, 20, 4)), FlowModStatus::kOk);

  PacketHeader h;
  h.set_vlan_id(10);
  EXPECT_EQ(sw.process(h).output_ports, (std::vector<std::uint32_t>{8}));

  // Re-pointing the group re-routes every referencing flow at once.
  nexthop.buckets = {GroupBucket{1, {OutputAction{9}}}};
  sw.modify_group(nexthop);
  EXPECT_EQ(sw.process(h).output_ports, (std::vector<std::uint32_t>{9}));
  h.set_vlan_id(20);
  EXPECT_EQ(sw.process(h).output_ports, (std::vector<std::uint32_t>{9}));
}

TEST(SwitchModelGroups, DanglingGroupDrops) {
  SwitchModel sw({{FieldId::kVlanId}});
  // Group 99 is never defined.
  ASSERT_EQ(sw.apply(flow_to_group(1, 10, 99)), FlowModStatus::kOk);
  PacketHeader h;
  h.set_vlan_id(10);
  const auto result = sw.process(h);
  EXPECT_EQ(result.verdict, Verdict::kDropped);
  EXPECT_EQ(sw.process_reference(h), result);
}

TEST(SwitchModelGroups, GroupBeatsOutputInActionSet) {
  // OpenFlow 5.10: group action takes precedence over output.
  SwitchModel sw({{FieldId::kVlanId}});
  sw.add_group(flood_group(1, {2, 3}));
  FlowMod mod = flow_to_group(1, 10, 1);
  mod.entry.instructions.write_actions.push_back(OutputAction{7});
  ASSERT_EQ(sw.apply(mod), FlowModStatus::kOk);
  PacketHeader h;
  h.set_vlan_id(10);
  EXPECT_EQ(sw.process(h).output_ports, (std::vector<std::uint32_t>{2, 3}));
}

TEST(GroupAction, WireCodecRoundTrip) {
  ofp::FlowModMsg mod;
  mod.entry.id = 1;
  mod.entry.match.set(FieldId::kVlanId, FieldMatch::exact(std::uint64_t{5}));
  mod.entry.instructions.write_actions.push_back(GroupAction{12345});
  const auto bytes = ofp::encode({77, mod});
  const auto decoded = ofp::decode(bytes);
  const auto& round = std::get<ofp::FlowModMsg>(decoded.message);
  ASSERT_EQ(round.entry.instructions.write_actions.size(), 1U);
  EXPECT_EQ(std::get<GroupAction>(round.entry.instructions.write_actions[0])
                .group_id,
            12345U);
}

TEST(GroupTable, MemoryReport) {
  GroupTable table;
  table.add(flood_group(1, {1, 2, 3}));
  const auto report = table.memory_report("g");
  EXPECT_GT(report.total_bits(), 0U);
  ASSERT_EQ(report.components().size(), 2U);
  EXPECT_EQ(report.components()[1].words, 3U);  // buckets
}

}  // namespace
}  // namespace ofmtl
