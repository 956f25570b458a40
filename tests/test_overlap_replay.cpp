// Update-file replay (the Section V.B two-file mechanism, round-tripped).
#include <gtest/gtest.h>

#include <sstream>

#include "core/builder.hpp"
#include "core/update_engine.hpp"
#include "workload/stanford_synth.hpp"

namespace ofmtl {
namespace {

TEST(UpdateReplay, ScriptRoundTripsThroughText) {
  const auto set = workload::generate_mac_filterset(workload::mac_target("bbrb"));
  const auto spec = build_app(set, TableLayout::kPerFieldTables);
  const auto pipeline = compile_app(spec);
  const auto script = optimized_script(pipeline.table(1), UpdateScope::kAll);

  std::stringstream file;
  script.write(file);
  const auto parsed = UpdateScript::parse(file);
  ASSERT_EQ(parsed.word_count(), script.word_count());
  for (std::size_t i = 0; i < script.words.size(); ++i) {
    EXPECT_EQ(parsed.words[i].target, script.words[i].target);
    EXPECT_EQ(parsed.words[i].address, script.words[i].address);
    EXPECT_EQ(parsed.words[i].payload, script.words[i].payload);
  }
}

TEST(UpdateReplay, ReplayerChargesTwoCyclesPerWord) {
  UpdateScript script;
  script.words = {{"blockA", 0, 1}, {"blockA", 1, 2}, {"blockB", 0, 3}};
  UpdateReplayer replayer;
  EXPECT_EQ(replayer.replay(script), 6U);
  EXPECT_EQ(replayer.cycles(), 6U);
  EXPECT_EQ(replayer.block_count(), 2U);
  EXPECT_EQ(replayer.block_words("blockA"), 2U);
  EXPECT_EQ(replayer.word_at("blockA", 1), 2U);
  EXPECT_EQ(replayer.word_at("blockB", 9), std::nullopt);
  EXPECT_EQ(replayer.word_at("nope", 0), std::nullopt);
}

TEST(UpdateReplay, FullTableImageMatchesScriptCost) {
  const auto set =
      workload::generate_routing_filterset(workload::routing_target("pozb"));
  const auto spec = build_app(set, TableLayout::kPerFieldTables);
  const auto pipeline = compile_app(spec);
  UpdateReplayer replayer;
  std::uint64_t expected_cycles = 0;
  for (std::size_t t = 0; t < pipeline.table_count(); ++t) {
    const auto script = optimized_script(pipeline.table(t), UpdateScope::kAll);
    expected_cycles += script.cycles();
    replayer.replay(script);
  }
  EXPECT_EQ(replayer.cycles(), expected_cycles);
  EXPECT_GT(replayer.block_count(), 4U);  // LUTs, tries, index, actions
}

TEST(UpdateReplay, ParseRejectsGarbage) {
  std::stringstream file("not-a-line\n");
  EXPECT_THROW((void)UpdateScript::parse(file), std::invalid_argument);
}

}  // namespace
}  // namespace ofmtl
