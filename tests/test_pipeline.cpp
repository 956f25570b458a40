// Pipeline-level tests: OpenFlow multi-table semantics (Goto-Table,
// Write-Metadata, action sets, misses), equivalence of the accelerated
// MultiTableLookup with the reference executor, and equivalence of the
// paper's per-field table layout with a single-table layout.
#include <gtest/gtest.h>

#include "core/builder.hpp"
#include "core/pipeline.hpp"
#include "flow/pipeline_ref.hpp"
#include "workload/stanford_synth.hpp"
#include "workload/trace_gen.hpp"

namespace ofmtl {
namespace {

using workload::FilterApp;
using workload::generate_filterset;
using workload::generate_trace;

FlowEntry entry_with(FlowEntryId id, std::uint16_t priority, FlowMatch match,
                     InstructionSet instructions) {
  FlowEntry entry;
  entry.id = id;
  entry.priority = priority;
  entry.match = std::move(match);
  entry.instructions = std::move(instructions);
  return entry;
}

TEST(ReferencePipeline, TableMissGoesToController) {
  ReferencePipeline pipeline;
  FlowMatch m;
  m.set(FieldId::kVlanId, FieldMatch::exact(std::uint64_t{1}));
  pipeline.add_table(FlowTable{{entry_with(0, 1, m, output_instruction(3))}});
  PacketHeader h;
  h.set_vlan_id(2);
  const auto result = pipeline.execute(h);
  EXPECT_EQ(result.verdict, Verdict::kToController);
  EXPECT_TRUE(result.output_ports.empty());
}

TEST(ReferencePipeline, GotoTableAndMetadata) {
  ReferencePipeline pipeline;
  FlowMatch m0;
  m0.set(FieldId::kVlanId, FieldMatch::exact(std::uint64_t{7}));
  InstructionSet ins0;
  ins0.goto_table = 1;
  ins0.write_metadata = MetadataWrite{0x55, 0xFF};
  FlowMatch m1;
  m1.set(FieldId::kMetadata, FieldMatch::exact(std::uint64_t{0x55}));
  pipeline.add_table(FlowTable{{entry_with(0, 1, m0, ins0)}});
  pipeline.add_table(FlowTable{{entry_with(1, 1, m1, output_instruction(9))}});

  PacketHeader h;
  h.set_vlan_id(7);
  const auto result = pipeline.execute(h);
  EXPECT_EQ(result.verdict, Verdict::kForwarded);
  EXPECT_EQ(result.output_ports, (std::vector<std::uint32_t>{9}));
  EXPECT_EQ(result.matched_entries, (std::vector<FlowEntryId>{0, 1}));
  EXPECT_EQ(result.final_header.metadata(), 0x55U);
  EXPECT_EQ(result.visited_tables, (std::vector<std::uint8_t>{0, 1}));
}

TEST(ReferencePipeline, WriteActionsOverwriteAndClear) {
  ReferencePipeline pipeline;
  FlowMatch m;
  m.set(FieldId::kVlanId, FieldMatch::exact(std::uint64_t{1}));
  InstructionSet ins0 = goto_and_write(1, {OutputAction{5}});
  InstructionSet ins1;
  ins1.write_actions.push_back(OutputAction{6});  // overwrites Output:5
  FlowMatch any;
  pipeline.add_table(FlowTable{{entry_with(0, 1, m, ins0)}});
  pipeline.add_table(FlowTable{{entry_with(1, 1, any, ins1)}});

  PacketHeader h;
  h.set_vlan_id(1);
  const auto result = pipeline.execute(h);
  EXPECT_EQ(result.output_ports, (std::vector<std::uint32_t>{6}));

  // Clear-Actions wipes the pending Output -> drop.
  ReferencePipeline pipeline2;
  InstructionSet clear;
  clear.clear_actions = true;
  pipeline2.add_table(FlowTable{{entry_with(0, 1, m, ins0)}});
  pipeline2.add_table(FlowTable{{entry_with(1, 1, any, clear)}});
  const auto result2 = pipeline2.execute(h);
  EXPECT_EQ(result2.verdict, Verdict::kDropped);
}

TEST(ReferencePipeline, ApplyActionsRewriteHeaderMidPipeline) {
  ReferencePipeline pipeline;
  FlowMatch m0;
  m0.set(FieldId::kVlanId, FieldMatch::exact(std::uint64_t{1}));
  InstructionSet ins0;
  ins0.goto_table = 1;
  ins0.apply_actions.push_back(SetFieldAction{FieldId::kVlanId, U128{99}});
  FlowMatch m1;
  m1.set(FieldId::kVlanId, FieldMatch::exact(std::uint64_t{99}));
  pipeline.add_table(FlowTable{{entry_with(0, 1, m0, ins0)}});
  pipeline.add_table(FlowTable{{entry_with(1, 1, m1, output_instruction(2))}});

  PacketHeader h;
  h.set_vlan_id(1);
  const auto result = pipeline.execute(h);
  EXPECT_EQ(result.verdict, Verdict::kForwarded);
  EXPECT_EQ(result.final_header.get64(FieldId::kVlanId), 99U);
}

TEST(ReferencePipeline, BackwardGotoThrows) {
  ReferencePipeline pipeline;
  FlowMatch any;
  InstructionSet back;
  back.goto_table = 0;
  pipeline.add_table(FlowTable{{entry_with(0, 1, any, goto_table_instruction(1))}});
  pipeline.add_table(FlowTable{{entry_with(1, 1, any, back)}});
  PacketHeader h;
  EXPECT_THROW((void)pipeline.execute(h), std::logic_error);
}

// ---- layout equivalence: per-field tables vs single table ----

class LayoutEquivalence
    : public ::testing::TestWithParam<std::pair<FilterApp, const char*>> {};

TEST_P(LayoutEquivalence, SameForwardingBehaviour) {
  const auto [app, name] = GetParam();
  const auto set = generate_filterset(app, name);
  const auto single = build_app(set, TableLayout::kSingleTable);
  const auto split = build_app(set, TableLayout::kPerFieldTables);

  const auto trace =
      generate_trace(set, {.packets = 1500, .hit_ratio = 0.85, .seed = 11});
  for (const auto& header : trace) {
    const auto a = single.reference.execute(header);
    const auto b = split.reference.execute(header);
    // Verdict and output ports must agree; matched entry ids differ by
    // construction (table 0 entries are synthesized).
    EXPECT_EQ(a.verdict, b.verdict) << header.to_string();
    EXPECT_EQ(a.output_ports, b.output_ports) << header.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Apps, LayoutEquivalence,
    ::testing::Values(std::make_pair(FilterApp::kMacLearning, "bbra"),
                      std::make_pair(FilterApp::kMacLearning, "sozb"),
                      std::make_pair(FilterApp::kRouting, "rozb"),
                      std::make_pair(FilterApp::kRouting, "yozb")));

// ---- accelerated pipeline vs reference executor ----

class AcceleratedEquivalence
    : public ::testing::TestWithParam<std::pair<FilterApp, const char*>> {};

TEST_P(AcceleratedEquivalence, ExactlySameExecution) {
  const auto [app, name] = GetParam();
  const auto set = generate_filterset(app, name);
  const auto spec = build_app(set, TableLayout::kPerFieldTables);
  const auto accelerated = compile_app(spec);

  const auto trace =
      generate_trace(set, {.packets = 1500, .hit_ratio = 0.85, .seed = 13});
  for (const auto& header : trace) {
    const auto expected = spec.reference.execute(header);
    const auto actual = accelerated.execute(header);
    // Full trace equality: same tables visited, same entries matched, same
    // metadata, same verdict and ports.
    EXPECT_EQ(expected, actual) << header.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Apps, AcceleratedEquivalence,
    ::testing::Values(std::make_pair(FilterApp::kMacLearning, "bbra"),
                      std::make_pair(FilterApp::kMacLearning, "cozb"),
                      std::make_pair(FilterApp::kRouting, "boza"),
                      std::make_pair(FilterApp::kRouting, "yoza")));

TEST(SwitchPrototype, BuildsFourTablesTwoMbtsTwoLuts) {
  // Section V.A: "4 OpenFlow Lookup Tables are implemented along with two
  // independent multibit trie structures and two exact matching LUTs".
  const auto mac_set = generate_filterset(FilterApp::kMacLearning, "bbrb");
  const auto routing_set = generate_filterset(FilterApp::kRouting, "bbrb");
  const auto prototype = build_prototype(mac_set, routing_set);

  EXPECT_EQ(prototype.mac_lookup.table_count() +
                prototype.routing_lookup.table_count(),
            4U);
  // MAC chain: table 0 = VLAN LUT, table 1 = metadata LUT + Ethernet MBT set.
  EXPECT_EQ(prototype.mac_lookup.table(0).field_searches().size(), 1U);
  const auto trie_count = [](const LookupTable& table) -> std::size_t {
    for (const auto& search : table.field_searches()) {
      if (!search.tries().empty()) return search.tries().size();
    }
    return 0;
  };
  EXPECT_EQ(trie_count(prototype.mac_lookup.table(1)), 3U);      // 48-bit Ethernet
  EXPECT_EQ(trie_count(prototype.routing_lookup.table(1)), 2U);  // 32-bit IPv4
  EXPECT_GT(prototype.memory_report().total_bits(), 0U);
}

}  // namespace
}  // namespace ofmtl
