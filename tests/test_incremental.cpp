// Incremental-update tests: the live decomposed table must stay equivalent
// to a linear-search FlowTable under arbitrary interleavings of entry
// insertions and removals — across EM, LPM and RM fields — and unique field
// values must be physically evicted when their last entry leaves.
#include <gtest/gtest.h>

#include <functional>

#include "classifier/range_matcher.hpp"
#include "core/builder.hpp"
#include "core/lookup_table.hpp"
#include "core/pipeline.hpp"
#include "flow/flow_table.hpp"
#include "workload/acl_synth.hpp"
#include "workload/rng.hpp"
#include "workload/stanford_synth.hpp"
#include "workload/trace_gen.hpp"

namespace ofmtl {
namespace {

FlowEntry simple_entry(FlowEntryId id, std::uint16_t priority, FlowMatch match,
                       std::uint32_t port) {
  FlowEntry entry;
  entry.id = id;
  entry.priority = priority;
  entry.match = std::move(match);
  entry.instructions = output_instruction(port);
  return entry;
}

TEST(IncrementalLookupTable, InsertThenRemoveRoundTrip) {
  LookupTable table({FieldId::kVlanId}, {});
  EXPECT_EQ(table.entry_count(), 0U);

  FlowMatch m;
  m.set(FieldId::kVlanId, FieldMatch::exact(std::uint64_t{7}));
  table.insert_entry(simple_entry(1, 5, m, 3));
  EXPECT_EQ(table.entry_count(), 1U);

  PacketHeader h;
  h.set_vlan_id(7);
  ASSERT_NE(table.lookup(h), nullptr);
  EXPECT_EQ(table.lookup(h)->id, 1U);

  EXPECT_TRUE(table.remove_entry(1));
  EXPECT_EQ(table.lookup(h), nullptr);
  EXPECT_EQ(table.entry_count(), 0U);
  EXPECT_FALSE(table.remove_entry(1));
}

TEST(IncrementalLookupTable, DuplicateIdRejected) {
  LookupTable table({FieldId::kVlanId}, {});
  FlowMatch m;
  m.set(FieldId::kVlanId, FieldMatch::exact(std::uint64_t{1}));
  table.insert_entry(simple_entry(9, 1, m, 1));
  EXPECT_THROW(table.insert_entry(simple_entry(9, 1, m, 2)),
               std::invalid_argument);
}

TEST(IncrementalLookupTable, SharedValueSurvivesPartialRemoval) {
  // Two entries share VLAN 7; removing one must keep the value alive.
  LookupTable table({FieldId::kVlanId, FieldId::kEthDst}, {});
  FlowMatch m1, m2;
  m1.set(FieldId::kVlanId, FieldMatch::exact(std::uint64_t{7}));
  m1.set(FieldId::kEthDst, FieldMatch::exact(std::uint64_t{0xA}));
  m2.set(FieldId::kVlanId, FieldMatch::exact(std::uint64_t{7}));
  m2.set(FieldId::kEthDst, FieldMatch::exact(std::uint64_t{0xB}));
  table.insert_entry(simple_entry(1, 1, m1, 1));
  table.insert_entry(simple_entry(2, 1, m2, 2));

  EXPECT_TRUE(table.remove_entry(1));
  PacketHeader h;
  h.set_vlan_id(7);
  h.set_eth_dst(MacAddress{0xB});
  ASSERT_NE(table.lookup(h), nullptr);
  EXPECT_EQ(table.lookup(h)->id, 2U);
  h.set_eth_dst(MacAddress{0xA});
  EXPECT_EQ(table.lookup(h), nullptr);
}

TEST(IncrementalLookupTable, UniqueValueEvictedWithLastEntry) {
  LookupTable table({FieldId::kIpv4Dst}, {});
  FlowMatch m;
  m.set(FieldId::kIpv4Dst,
        FieldMatch::of_prefix(Prefix::from_value(0x0A000000, 8, 32)));
  table.insert_entry(simple_entry(1, 8, m, 1));
  const auto& tries = table.field_searches()[0].tries();
  EXPECT_EQ(tries[0].prefix_count(), 1U);
  EXPECT_EQ(tries[1].prefix_count(), 1U);  // wildcard low partition (/0)

  table.remove_entry(1);
  EXPECT_EQ(tries[0].prefix_count(), 0U);
  EXPECT_EQ(tries[1].prefix_count(), 0U);
  const auto unique = table.field_searches()[0].unique_values();
  EXPECT_EQ(unique[0], 0U);
}

TEST(IncrementalLookupTable, SlotReuseKeepsCorrectActions) {
  LookupTable table({FieldId::kVlanId}, {});
  FlowMatch m1, m2;
  m1.set(FieldId::kVlanId, FieldMatch::exact(std::uint64_t{1}));
  m2.set(FieldId::kVlanId, FieldMatch::exact(std::uint64_t{2}));
  table.insert_entry(simple_entry(1, 1, m1, 10));
  table.remove_entry(1);
  table.insert_entry(simple_entry(2, 1, m2, 20));  // reuses slot 0

  PacketHeader h;
  h.set_vlan_id(2);
  const FlowEntry* entry = table.lookup(h);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->id, 2U);
  EXPECT_EQ(entry->instructions, output_instruction(20));
  h.set_vlan_id(1);
  EXPECT_EQ(table.lookup(h), nullptr);
}

TEST(IncrementalLookupTable, ActionsRowKeepsHighWaterSlotsAndWidestBits) {
  // The action table the memory model costs is the slot array: one word
  // per slot ever used, each as wide as the widest instruction set ever
  // inserted. A remove frees a slot for reuse but shrinks neither.
  const auto actions_row = [](const LookupTable& table) {
    const mem::MemoryReport report = table.memory_report("t");
    for (const auto& component : report.components()) {
      if (component.name == "t.actions") return component;
    }
    ADD_FAILURE() << "no t.actions row";
    return mem::MemoryComponent{};
  };
  const auto vlan = [](std::uint64_t value) {
    FlowMatch match;
    match.set(FieldId::kVlanId, FieldMatch::exact(value));
    return match;
  };
  FlowEntry wide = simple_entry(2, 1, vlan(2), 20);
  wide.instructions.apply_actions.push_back(
      SetFieldAction{FieldId::kEthDst, U128{0xAB}});
  const unsigned narrow_bits = output_instruction(1).bits();
  const unsigned wide_bits = wide.instructions.bits();
  ASSERT_GT(wide_bits, narrow_bits);

  LookupTable table({FieldId::kVlanId}, {});
  table.insert_entry(simple_entry(1, 1, vlan(1), 10));
  EXPECT_EQ(actions_row(table).words, 1U);
  EXPECT_EQ(actions_row(table).word_bits, narrow_bits);
  table.insert_entry(wide);
  table.insert_entry(simple_entry(3, 1, vlan(3), 30));
  EXPECT_EQ(actions_row(table).words, 3U);
  EXPECT_EQ(actions_row(table).word_bits, wide_bits);

  // The widest rule leaves; its slot is reused by a narrow one.
  ASSERT_TRUE(table.remove_entry(2));
  EXPECT_EQ(actions_row(table).words, 3U);
  EXPECT_EQ(actions_row(table).word_bits, wide_bits);
  table.insert_entry(simple_entry(4, 1, vlan(4), 40));
  EXPECT_EQ(actions_row(table).words, 3U);
  EXPECT_EQ(actions_row(table).word_bits, wide_bits);
  EXPECT_EQ(table.action_words(), 3U);

  // Removing and re-adding the same rule writes the same words again.
  const std::uint64_t words = table.update_words();
  ASSERT_TRUE(table.remove_entry(3));
  table.insert_entry(simple_entry(3, 1, vlan(3), 30));
  EXPECT_EQ(table.update_words(), words);

  // Past the high-water mark the row grows; a clone recomputes both terms
  // from the live entries, none of which is the wide one.
  table.insert_entry(simple_entry(5, 1, vlan(5), 50));
  EXPECT_EQ(actions_row(table).words, 4U);
  const LookupTable copy = table.clone();
  EXPECT_EQ(actions_row(copy).words, 4U);
  EXPECT_EQ(actions_row(copy).word_bits, narrow_bits);
}

TEST(IncrementalLookupTable, WildcardRefcountAcrossRules) {
  // Two rules wildcard the VLAN; the any-label must survive one removal.
  LookupTable table({FieldId::kVlanId, FieldId::kEthDst}, {});
  FlowMatch m1, m2;
  m1.set(FieldId::kEthDst, FieldMatch::exact(std::uint64_t{0xA}));
  m2.set(FieldId::kEthDst, FieldMatch::exact(std::uint64_t{0xB}));
  table.insert_entry(simple_entry(1, 1, m1, 1));
  table.insert_entry(simple_entry(2, 1, m2, 2));
  table.remove_entry(1);

  PacketHeader h;
  h.set_vlan_id(999);  // any VLAN
  h.set_eth_dst(MacAddress{0xB});
  ASSERT_NE(table.lookup(h), nullptr);
  EXPECT_EQ(table.lookup(h)->id, 2U);
}

// ---- randomized churn against the FlowTable oracle ----

struct ChurnCase {
  const char* name;
  std::vector<FieldId> fields;
  std::function<FlowMatch(workload::Rng&)> make_match;
};

FlowMatch random_acl_match(workload::Rng& rng) {
  FlowMatch match;
  const unsigned src_len = static_cast<unsigned>(rng.below(33));
  match.set(FieldId::kIpv4Src,
            FieldMatch::of_prefix(
                Prefix::from_value(rng.next() & 0xFFFFFFFF, src_len, 32)));
  const std::uint64_t lo = rng.below(60000);
  match.set(FieldId::kDstPort, FieldMatch::of_range(lo, lo + rng.below(1000)));
  if (rng.chance(0.6)) {
    match.set(FieldId::kIpProto,
              FieldMatch::exact(std::uint64_t{rng.chance(0.5) ? 6U : 17U}));
  }
  return match;
}

FlowMatch random_mac_match(workload::Rng& rng) {
  FlowMatch match;
  match.set(FieldId::kVlanId, FieldMatch::exact(rng.below(32)));
  match.set(FieldId::kEthDst, FieldMatch::exact(rng.below(64)));
  return match;
}

class IncrementalChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalChurn, StaysEquivalentToFlowTable) {
  workload::Rng rng(GetParam());
  const bool acl_mode = GetParam() % 2 == 0;
  const std::vector<FieldId> fields =
      acl_mode ? std::vector<FieldId>{FieldId::kIpv4Src, FieldId::kDstPort,
                                      FieldId::kIpProto}
               : std::vector<FieldId>{FieldId::kVlanId, FieldId::kEthDst};

  LookupTable table(fields, {});
  FlowTable oracle;
  std::vector<FlowEntry> live;
  FlowEntryId next_id = 0;

  for (int step = 0; step < 300; ++step) {
    if (live.empty() || rng.chance(0.6)) {
      FlowEntry entry = simple_entry(
          next_id++, static_cast<std::uint16_t>(rng.below(8)),
          acl_mode ? random_acl_match(rng) : random_mac_match(rng),
          static_cast<std::uint32_t>(1 + rng.below(16)));
      table.insert_entry(entry);
      oracle.insert(entry);
      live.push_back(entry);
    } else {
      const std::size_t victim = rng.below(live.size());
      const FlowEntryId id = live[victim].id;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      EXPECT_TRUE(table.remove_entry(id));
      EXPECT_TRUE(oracle.remove(id));
    }
    EXPECT_EQ(table.entry_count(), oracle.size());

    if (step % 10 == 0) {
      for (int probe = 0; probe < 40; ++probe) {
        PacketHeader header;
        if (!live.empty() && rng.chance(0.7)) {
          const auto& target = live[rng.below(live.size())];
          header = workload::header_matching(target.match, fields, rng.next());
        } else {
          header = workload::random_header(fields, rng.next());
        }
        const FlowEntry* expected = oracle.lookup(header);
        const FlowEntry* actual = table.lookup(header);
        ASSERT_EQ(actual == nullptr, expected == nullptr)
            << "step " << step << " " << header.to_string();
        if (expected != nullptr) {
          // Both sides tie-break equal priorities by insertion order (the
          // oracle by stable sort, the table by sequence number), so the
          // winning entry must be identical.
          EXPECT_EQ(actual->id, expected->id) << header.to_string();
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalChurn,
                         ::testing::Values(2, 3, 4, 5, 10, 11));

TEST(IncrementalPipeline, FlowModOnLivePipeline) {
  // Start from a compiled MAC app, then mutate table 1 live: remove one
  // learned MAC, add a new one, and check the reference pipeline (mutated
  // identically) still agrees end-to-end.
  const auto set = workload::generate_mac_filterset(workload::mac_target("bbrb"));
  auto spec = build_app(set, TableLayout::kPerFieldTables);
  auto pipeline = compile_app(spec);

  // Remove the first table-1 entry from both.
  const auto table1_entries = pipeline.table(1).entries();
  ASSERT_FALSE(table1_entries.empty());
  const FlowEntry victim = table1_entries.front();
  ASSERT_EQ(pipeline.apply(FlowModCommand::kDelete, 1, victim),
            FlowModStatus::kOk);
  ASSERT_TRUE(spec.reference.table(1).remove(victim.id));

  // Add a fresh entry reachable through an existing table-0 metadata label.
  FlowEntry fresh = victim;
  fresh.id = 0xFFFF0;
  fresh.match.set(FieldId::kEthDst,
                  FieldMatch::exact(std::uint64_t{0x02DEADBEEF01}));
  fresh.instructions = output_instruction(42);
  ASSERT_EQ(pipeline.apply(FlowModCommand::kAdd, 1, fresh), FlowModStatus::kOk);
  spec.reference.table(1).insert(fresh);

  const auto trace = workload::generate_trace(
      set, {.packets = 500, .hit_ratio = 0.8, .seed = 31});
  for (const auto& header : trace) {
    EXPECT_EQ(pipeline.execute(header), spec.reference.execute(header))
        << header.to_string();
  }
  // The fresh entry is actually reachable.
  PacketHeader h;
  h.set_vlan_id(victim.match.get(FieldId::kVlanId).value.lo);
  h.set_eth_dst(MacAddress{0x02DEADBEEF01ULL});
  // Table 0 matches on the VLAN of some original rule... resolve via the
  // reference pipeline and demand agreement.
  EXPECT_EQ(pipeline.execute(h), spec.reference.execute(h));
}

TEST(IncrementalLookupTable, RangeFieldChurn) {
  LookupTable table({FieldId::kSrcPort}, {});
  FlowMatch wide, narrow;
  wide.set(FieldId::kSrcPort, FieldMatch::of_range(0, 65535));
  narrow.set(FieldId::kSrcPort, FieldMatch::of_range(80, 80));
  table.insert_entry(simple_entry(1, 1, wide, 1));
  table.insert_entry(simple_entry(2, 9, narrow, 2));

  PacketHeader h;
  h.set_src_port(80);
  EXPECT_EQ(table.lookup(h)->id, 2U);
  table.remove_entry(2);
  EXPECT_EQ(table.lookup(h)->id, 1U);
  table.remove_entry(1);
  EXPECT_EQ(table.lookup(h), nullptr);
  // Re-adding after full removal works (label revival).
  table.insert_entry(simple_entry(3, 1, narrow, 3));
  EXPECT_EQ(table.lookup(h)->id, 3U);
  EXPECT_EQ(table.field_searches()[0].unique_values()[0], 1U);
}

/// Property: a RangeMatcher maintained through arbitrary add/remove churn
/// answers every lookup exactly like a matcher freshly built from the live
/// multiset, after every single add and remove, and costs the same storage.
/// Labels may differ between the two instances (assignment order), so
/// lookups are compared as the *ranges* they name, narrowest first.
void expect_churned_matches_rebuilt(unsigned width, std::uint64_t seed) {
  using workload::Rng;
  const std::uint64_t max = low_mask(width);
  Rng rng(seed);
  RangeMatcher churned(width);
  std::vector<ValueRange> live;  // multiset of currently-held references
  const auto random_range = [&] {
    const std::uint64_t lo = rng.next() & max;
    const std::uint64_t hi = std::min<std::uint64_t>(max, lo + rng.below(5000));
    return ValueRange{lo, hi};
  };
  const auto as_ranges = [](const RangeMatcher& matcher,
                            const std::vector<std::uint32_t>& labels) {
    std::vector<ValueRange> ranges;
    ranges.reserve(labels.size());
    for (const std::uint32_t label : labels) {
      ranges.push_back(matcher.range_of(label));
    }
    return ranges;
  };
  for (int op = 0; op < 360; ++op) {
    if (!live.empty() && rng.below(3) == 0) {
      const std::size_t victim = rng.below(live.size());
      ASSERT_TRUE(churned.remove(live[victim]));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    } else {
      const ValueRange range =
          (!live.empty() && rng.below(4) == 0)  // duplicate ref
              ? live[rng.below(live.size())]
              : random_range();
      churned.add(range);
      live.push_back(range);
    }
    RangeMatcher rebuilt(width);
    for (const ValueRange& range : live) rebuilt.add(range);
    ASSERT_EQ(churned.unique_ranges(), rebuilt.unique_ranges()) << "op=" << op;
    ASSERT_EQ(churned.storage_bits(8), rebuilt.storage_bits(8)) << "op=" << op;
    for (int probe = 0; probe < 100; ++probe) {
      std::uint64_t key = rng.next() & max;
      if (probe % 3 == 0 && !live.empty()) {  // hit boundaries exactly
        const ValueRange& range = live[rng.below(live.size())];
        key = probe % 2 == 0 ? range.lo : range.hi;
      }
      ASSERT_EQ(as_ranges(churned, churned.lookup(key)),
                as_ranges(rebuilt, rebuilt.lookup(key)))
          << "op=" << op << " key=" << key;
    }
  }
}

TEST(IncrementalRangeMatcher, ChurnMatchesRebuiltNarrowField) {
  expect_churned_matches_rebuilt(16, 4711);
}

TEST(IncrementalRangeMatcher, RejectsFieldsWiderThan16Bits) {
  // The rank-select layout spans the whole field; both RM fields of
  // Table II are 16 bits wide.
  EXPECT_THROW(RangeMatcher{17}, std::invalid_argument);
  EXPECT_NO_THROW(RangeMatcher{16});
}

}  // namespace
}  // namespace ofmtl
