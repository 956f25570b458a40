// SwitchModel: flow-mod channel, counters and timeout expiry, with the live
// equivalence invariant (decomposed pipeline == reference) under churn.
#include <gtest/gtest.h>

#include "core/switch_model.hpp"
#include "workload/rng.hpp"
#include "workload/trace_gen.hpp"

namespace ofmtl {
namespace {

FlowMod add_mod(std::uint8_t table, FlowEntryId id, std::uint16_t priority,
                FlowMatch match, std::uint32_t port, TimeoutConfig timeouts = {}) {
  FlowMod mod;
  mod.command = FlowModCommand::kAdd;
  mod.table = table;
  mod.entry.id = id;
  mod.entry.priority = priority;
  mod.entry.match = std::move(match);
  mod.entry.instructions = output_instruction(port);
  mod.timeouts = timeouts;
  return mod;
}

FlowMatch vlan_match(std::uint16_t vlan) {
  FlowMatch match;
  match.set(FieldId::kVlanId, FieldMatch::exact(std::uint64_t{vlan}));
  return match;
}

TEST(SwitchModel, AddProcessDelete) {
  SwitchModel sw({{FieldId::kVlanId}});
  ASSERT_EQ(sw.apply(add_mod(0, 1, 1, vlan_match(5), 9)), FlowModStatus::kOk);
  EXPECT_EQ(sw.entry_count(), 1U);

  PacketHeader h;
  h.set_vlan_id(5);
  const auto result = sw.process(h, 100, 10);
  EXPECT_EQ(result.verdict, Verdict::kForwarded);
  EXPECT_EQ(result.output_ports, (std::vector<std::uint32_t>{9}));

  FlowMod del;
  del.command = FlowModCommand::kDelete;
  del.table = 0;
  del.entry.id = 1;
  ASSERT_EQ(sw.apply(del), FlowModStatus::kOk);
  EXPECT_EQ(sw.entry_count(), 0U);
  EXPECT_EQ(sw.process(h).verdict, Verdict::kToController);
}

TEST(SwitchModel, CountersAccumulate) {
  SwitchModel sw({{FieldId::kVlanId}});
  ASSERT_EQ(sw.apply(add_mod(0, 1, 1, vlan_match(5), 9)), FlowModStatus::kOk);
  PacketHeader h;
  h.set_vlan_id(5);
  (void)sw.process(h, 100, 1);
  (void)sw.process(h, 250, 2);
  const FlowStats* stats = sw.stats().find({0, 1});
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->packets, 2U);
  EXPECT_EQ(stats->bytes, 350U);
  EXPECT_EQ(stats->last_used, 2U);
}

TEST(SwitchModel, ModifyKeepsCounters) {
  SwitchModel sw({{FieldId::kVlanId}});
  ASSERT_EQ(sw.apply(add_mod(0, 1, 1, vlan_match(5), 9)), FlowModStatus::kOk);
  PacketHeader h;
  h.set_vlan_id(5);
  (void)sw.process(h, 64, 1);

  FlowMod modify = add_mod(0, 1, 1, vlan_match(5), 12);
  modify.command = FlowModCommand::kModify;
  ASSERT_EQ(sw.apply(modify, 2), FlowModStatus::kOk);

  const auto result = sw.process(h, 64, 3);
  EXPECT_EQ(result.output_ports, (std::vector<std::uint32_t>{12}));
  const FlowStats* stats = sw.stats().find({0, 1});
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->packets, 2U);  // counter survived the modify
}

TEST(SwitchModel, IdleTimeoutRefreshedByTraffic) {
  SwitchModel sw({{FieldId::kVlanId}});
  ASSERT_EQ(sw.apply(add_mod(0, 1, 1, vlan_match(5), 9,
                             TimeoutConfig{.idle_timeout = 10}),
                     /*now=*/0),
            FlowModStatus::kOk);
  PacketHeader h;
  h.set_vlan_id(5);
  (void)sw.process(h, 64, 8);  // refreshes idle timer
  EXPECT_TRUE(sw.sweep_timeouts(12).empty());   // 12 < 8 + 10
  const auto evicted = sw.sweep_timeouts(18);   // 18 >= 8 + 10
  ASSERT_EQ(evicted.size(), 1U);
  EXPECT_EQ(evicted[0], (Expiry{{0, 1}, Timeout::kIdle}));
  EXPECT_EQ(sw.entry_count(), 0U);
}

TEST(SwitchModel, HardTimeoutIgnoresTraffic) {
  SwitchModel sw({{FieldId::kVlanId}});
  ASSERT_EQ(sw.apply(add_mod(0, 1, 1, vlan_match(5), 9,
                             TimeoutConfig{.hard_timeout = 10}),
                     /*now=*/0),
            FlowModStatus::kOk);
  PacketHeader h;
  h.set_vlan_id(5);
  for (std::uint64_t t = 1; t < 10; ++t) (void)sw.process(h, 64, t);
  const auto evicted = sw.sweep_timeouts(10);
  ASSERT_EQ(evicted.size(), 1U);
  EXPECT_EQ(evicted[0].timeout, Timeout::kHard);
}

TEST(SwitchModel, SameIdInTwoTablesKeepsSeparateStateAndTimeouts) {
  // Entry ids are unique per table only: id 7 lives in both tables, and
  // each keeps its own counters and timeout.
  SwitchModel sw({{FieldId::kVlanId}, {FieldId::kEthDst}});
  FlowMod t0 = add_mod(0, 7, 1, vlan_match(5), 0,
                       TimeoutConfig{.hard_timeout = 5});
  t0.entry.instructions = goto_table_instruction(1);
  ASSERT_EQ(sw.apply(t0, 0), FlowModStatus::kOk);
  FlowMatch dst;
  dst.set(FieldId::kEthDst, FieldMatch::exact(std::uint64_t{0xAB}));
  ASSERT_EQ(sw.apply(add_mod(1, 7, 1, dst, 4), 0), FlowModStatus::kOk);

  PacketHeader h;
  h.set_vlan_id(5);
  h.set_eth_dst(MacAddress{0xAB});
  const auto result = sw.process(h, 64, 1);
  EXPECT_EQ(result.matched_entries, (std::vector<FlowEntryId>{7, 7}));
  for (const std::uint8_t table : {0, 1}) {
    const FlowStats* stats = sw.stats().find({table, 7});
    ASSERT_NE(stats, nullptr) << "table " << int{table};
    EXPECT_EQ(stats->packets, 1U) << "table " << int{table};
  }

  // Only table 0's id 7 has a timeout, and only it expires.
  const auto evicted = sw.sweep_timeouts(10);
  EXPECT_EQ(evicted, (std::vector<Expiry>{{{0, 7}, Timeout::kHard}}));
  EXPECT_FALSE(sw.pipeline().contains_entry(0, 7));
  EXPECT_TRUE(sw.pipeline().contains_entry(1, 7));
  EXPECT_EQ(sw.reference().table(0).size(), 0U);
  EXPECT_EQ(sw.reference().table(1).size(), 1U);
  EXPECT_EQ(sw.stats().find({0, 7}), nullptr);
  EXPECT_NE(sw.stats().find({1, 7}), nullptr);
  EXPECT_TRUE(sw.sweep_timeouts(20).empty());
}

TEST(SwitchModel, MalformedModsAreRejected) {
  SwitchModel sw({{FieldId::kVlanId}});
  EXPECT_EQ(sw.apply(add_mod(3, 1, 1, vlan_match(1), 1)),
            FlowModStatus::kBadTable);
  FlowMod del;
  del.command = FlowModCommand::kDelete;
  del.entry.id = 42;
  EXPECT_EQ(sw.apply(del), FlowModStatus::kUnknownEntry);
  EXPECT_EQ(sw.apply(add_mod(0, 7, 1, vlan_match(1), 1)), FlowModStatus::kOk);
  EXPECT_EQ(sw.apply(add_mod(0, 7, 1, vlan_match(2), 1)),
            FlowModStatus::kDuplicateEntry);
  FlowMatch masked;
  masked.set(FieldId::kVlanId, FieldMatch::masked(U128{1}, U128{0xF}));
  EXPECT_EQ(sw.apply(add_mod(0, 8, 1, masked, 1)), FlowModStatus::kBadMatch);
  FlowMod backward = add_mod(0, 9, 1, vlan_match(3), 1);
  backward.entry.instructions = goto_table_instruction(0);
  EXPECT_EQ(sw.apply(backward), FlowModStatus::kBadGoto);
  FlowMod wide = add_mod(0, 10, 1, vlan_match(4), 1);
  wide.entry.instructions.apply_actions.push_back(
      SetFieldAction{FieldId::kSrcPort, U128{70000}});
  EXPECT_EQ(sw.apply(wide), FlowModStatus::kBadAction);
  // Only the one accepted add reached either pipeline or the counters.
  EXPECT_EQ(sw.entry_count(), 1U);
  EXPECT_EQ(sw.reference().table(0).size(), 1U);
  EXPECT_EQ(sw.stats().find({0, 8}), nullptr);
}

TEST(SwitchModel, ConstraintOutsideTheTableIsRejected) {
  // A rule on eth_dst in a {vlan, ipv4_dst} table: the decomposed table has
  // no search for eth_dst, so it would match packets the reference does not.
  SwitchModel sw({{FieldId::kVlanId, FieldId::kIpv4Dst}});
  FlowMatch match = vlan_match(5);
  match.set(FieldId::kEthDst, FieldMatch::exact(std::uint64_t{1}));
  EXPECT_EQ(sw.apply(add_mod(0, 1, 1, match, 2)), FlowModStatus::kBadMatch);
  EXPECT_EQ(sw.entry_count(), 0U);

  PacketHeader h;
  h.set_vlan_id(5);
  h.set_eth_dst(MacAddress{2});
  EXPECT_EQ(sw.process(h), sw.process_reference(h));
  EXPECT_EQ(sw.process(h).verdict, Verdict::kToController);
}

TEST(SwitchModel, MultiTableGotoWithLiveMods) {
  SwitchModel sw({{FieldId::kVlanId}, {FieldId::kMetadata, FieldId::kEthDst}});
  FlowMod t0 = add_mod(0, 100, 1, vlan_match(5), 0);
  t0.entry.instructions = InstructionSet{};
  t0.entry.instructions.goto_table = 1;
  t0.entry.instructions.write_metadata = MetadataWrite{0x7, ~std::uint64_t{0}};
  ASSERT_EQ(sw.apply(t0), FlowModStatus::kOk);

  FlowMatch m1;
  m1.set(FieldId::kMetadata, FieldMatch::exact(std::uint64_t{0x7}));
  m1.set(FieldId::kEthDst, FieldMatch::exact(std::uint64_t{0xAB}));
  ASSERT_EQ(sw.apply(add_mod(1, 200, 1, m1, 4)), FlowModStatus::kOk);

  PacketHeader h;
  h.set_vlan_id(5);
  h.set_eth_dst(MacAddress{0xAB});
  const auto result = sw.process(h);
  EXPECT_EQ(result.verdict, Verdict::kForwarded);
  EXPECT_EQ(result.matched_entries, (std::vector<FlowEntryId>{100, 200}));
  EXPECT_EQ(sw.process_reference(h), result);
}

TEST(SwitchModel, RandomChurnKeepsEquivalence) {
  workload::Rng rng(404);
  SwitchModel sw({{FieldId::kVlanId, FieldId::kEthDst}});
  std::vector<FlowEntry> live;
  FlowEntryId next_id = 0;
  const std::vector<FieldId> fields = {FieldId::kVlanId, FieldId::kEthDst};

  for (int step = 0; step < 250; ++step) {
    if (live.empty() || rng.chance(0.6)) {
      FlowMatch match;
      match.set(FieldId::kVlanId, FieldMatch::exact(rng.below(24)));
      match.set(FieldId::kEthDst, FieldMatch::exact(rng.below(48)));
      auto mod = add_mod(0, next_id++, static_cast<std::uint16_t>(rng.below(4)),
                         match, static_cast<std::uint32_t>(1 + rng.below(8)));
      ASSERT_EQ(sw.apply(mod, static_cast<std::uint64_t>(step)),
                FlowModStatus::kOk);
      live.push_back(mod.entry);
    } else {
      const std::size_t victim = rng.below(live.size());
      FlowMod del;
      del.command = FlowModCommand::kDelete;
      del.table = 0;
      del.entry.id = live[victim].id;
      ASSERT_EQ(sw.apply(del, static_cast<std::uint64_t>(step)),
                FlowModStatus::kOk);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    if (step % 10 == 0) {
      for (int probe = 0; probe < 25; ++probe) {
        PacketHeader header;
        if (!live.empty() && rng.chance(0.7)) {
          header = workload::header_matching(live[rng.below(live.size())].match,
                                             fields, rng.next());
        } else {
          header = workload::random_header(fields, rng.next());
        }
        EXPECT_EQ(sw.process(header), sw.process_reference(header))
            << "step " << step;
      }
    }
  }
}

}  // namespace
}  // namespace ofmtl
