// Batched-execution properties: execute_tables_batch and its lane form
// (MultiTableLookup::execute_batch) must be bitwise-identical to the
// linear-search ReferencePipeline over randomized traces (hit-heavy,
// miss-heavy, and all-wildcard tables), and the steady-state hot path —
// single-packet lookup, lookup_batch, the batched walk with reused buffers
// — must perform zero heap allocations per packet (counted by replacing
// global new/delete).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/builder.hpp"
#include "core/pipeline.hpp"
#include "core/simd.hpp"
#include "workload/stanford_synth.hpp"
#include "workload/trace_gen.hpp"
#include "alloc_counter.hpp"

namespace ofmtl {
namespace {

using workload::FilterApp;
using workload::generate_filterset;
using workload::generate_trace;
using workload::TraceConfig;

struct App {
  MultiTableLookup accelerated;
  ReferencePipeline reference;  ///< the tables accelerated was compiled from
  std::vector<PacketHeader> trace;
};

App make_app(FilterApp app, const char* name, double hit_ratio,
             std::uint64_t seed, std::size_t packets = 512) {
  const auto set = generate_filterset(app, name);
  auto spec = build_app(set, TableLayout::kPerFieldTables);
  auto accelerated = compile_app(spec);
  return App{std::move(accelerated), std::move(spec.reference),
             generate_trace(set, {.packets = packets,
                                  .hit_ratio = hit_ratio,
                                  .seed = seed})};
}

/// The batched walk over every window size must reproduce the reference
/// pipeline's per-packet execute bit for bit (operator== covers the full
/// ExecutionResult, diagnostics included), and so must its lane-subset form
/// on the listed lanes, leaving the others untouched. The whole property
/// runs once per probe-kernel backend — compiled vector path, then forced
/// SWAR — so batch-vs-reference identity doubles as vector-vs-SWAR identity.
void expect_batch_matches_scalar(const App& app) {
  std::vector<ExecutionResult> expected;
  expected.reserve(app.trace.size());
  for (const auto& header : app.trace) {
    expected.push_back(app.reference.execute(header));
  }
  for (const bool force_swar : {false, true}) {
    simd::ScopedForceSwar forced(force_swar);
    SCOPED_TRACE(force_swar ? "backend=forced-swar" : "backend=vector");
    ExecBatchContext ctx;
    for (const std::size_t batch : {std::size_t{1}, std::size_t{3},
                                    std::size_t{8}, std::size_t{64},
                                    std::size_t{512}}) {
      std::vector<ExecutionResult> results(batch);
      for (std::size_t base = 0; base < app.trace.size(); base += batch) {
        const std::size_t n = std::min(batch, app.trace.size() - base);
        execute_tables_batch(app.accelerated, {app.trace.data() + base, n},
                             {results.data(), n}, ctx);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(results[i], expected[base + i])
              << "batch=" << batch << " packet=" << base + i;
        }
        // Every other lane, in place: the rest keep what they held.
        std::vector<std::uint32_t> lanes;
        for (std::size_t i = base % 2; i < n; i += 2) {
          lanes.push_back(static_cast<std::uint32_t>(i));
        }
        ExecutionResult untouched;
        untouched.output_ports = {0xDEAD};
        std::fill(results.begin(), results.end(), untouched);
        app.accelerated.execute_batch({app.trace.data() + base, n},
                                      {results.data(), n}, lanes, ctx);
        for (std::size_t i = 0; i < n; ++i) {
          const bool listed = i % 2 == base % 2;
          ASSERT_EQ(results[i], listed ? expected[base + i] : untouched)
              << "lane subset, batch=" << batch << " packet=" << base + i;
        }
      }
    }
  }
}

TEST(ExecuteBatch, MatchesScalarOnMacLearning) {
  expect_batch_matches_scalar(
      make_app(FilterApp::kMacLearning, "bbra", 0.9, 101));
}

TEST(ExecuteBatch, MatchesScalarOnRouting) {
  expect_batch_matches_scalar(make_app(FilterApp::kRouting, "yoza", 0.9, 202));
}

TEST(ExecuteBatch, MatchesScalarMissHeavy) {
  expect_batch_matches_scalar(
      make_app(FilterApp::kMacLearning, "bbra", 0.0, 303));
  expect_batch_matches_scalar(make_app(FilterApp::kRouting, "yoza", 0.05, 404));
}

TEST(ExecuteBatch, MatchesScalarOnAllWildcardTable) {
  // A table whose single entry constrains nothing: every packet matches via
  // the wildcard labels alone.
  FlowEntry entry;
  entry.id = 1;
  entry.priority = 5;
  entry.instructions = output_instruction(7);
  MultiTableLookup accelerated;
  accelerated.add_table(LookupTable::compile(FlowTable{{entry}}));
  ReferencePipeline reference({FlowTable{{entry}}});

  const auto set = generate_filterset(FilterApp::kMacLearning, "bbra");
  const auto trace = generate_trace(set, {.packets = 64, .hit_ratio = 0.5,
                                          .seed = 7});
  std::vector<ExecutionResult> results(trace.size());
  ExecBatchContext ctx;
  execute_tables_batch(accelerated, {trace.data(), trace.size()},
                       {results.data(), results.size()}, ctx);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    ASSERT_EQ(results[i], reference.execute(trace[i]));
    EXPECT_EQ(results[i].verdict, Verdict::kForwarded);
  }
}

TEST(ExecuteBatch, MatchesScalarAfterIncrementalUpdate) {
  // Insert/remove edit the query structures in place; batch must track the
  // updated table state exactly.
  auto app = make_app(FilterApp::kMacLearning, "bbra", 0.9, 55, 128);
  FlowEntry extra;
  extra.id = 999999;
  extra.priority = 60000;
  extra.instructions = output_instruction(42);
  // Table 1 catch-all at top priority.
  ASSERT_EQ(app.accelerated.apply(FlowModCommand::kAdd, 1, extra),
            FlowModStatus::kOk);
  app.reference.table(1).insert(extra);
  expect_batch_matches_scalar(app);
  ASSERT_EQ(app.accelerated.apply(FlowModCommand::kDelete, 1, extra),
            FlowModStatus::kOk);
  ASSERT_TRUE(app.reference.table(1).remove(999999));
  expect_batch_matches_scalar(app);
}

TEST(AllocationFree, SteadyStateSinglePacketLookup) {
  const auto app = make_app(FilterApp::kRouting, "yoza", 0.9, 909);
  // Warm the thread_local context's buffers to their high-water capacity.
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& header : app.trace) {
      for (std::size_t t = 0; t < app.accelerated.table_count(); ++t) {
        (void)app.accelerated.table(t).lookup(header);
      }
    }
  }
  const std::size_t before = g_allocations.load();
  std::size_t matched = 0;
  for (const auto& header : app.trace) {
    for (std::size_t t = 0; t < app.accelerated.table_count(); ++t) {
      matched += app.accelerated.table(t).lookup(header) != nullptr;
    }
  }
  EXPECT_EQ(g_allocations.load(), before) << "matched=" << matched;
}

TEST(AllocationFree, SteadyStateExecuteBatch) {
  const auto app = make_app(FilterApp::kMacLearning, "gozb", 0.9, 808);
  constexpr std::size_t kBatch = 64;
  std::vector<ExecutionResult> results(kBatch);
  ExecBatchContext ctx;
  const auto run_all = [&] {
    for (std::size_t base = 0; base < app.trace.size(); base += kBatch) {
      const std::size_t n = std::min(kBatch, app.trace.size() - base);
      execute_tables_batch(app.accelerated, {app.trace.data() + base, n},
                           {results.data(), n}, ctx);
    }
  };
  run_all();
  run_all();  // second warm pass: every result slot has seen its window
  const std::size_t before = g_allocations.load();
  run_all();
  EXPECT_EQ(g_allocations.load(), before);
}

TEST(AllocationFree, SteadyStateLookupBatch) {
  const auto app = make_app(FilterApp::kRouting, "yoza", 0.9, 707);
  constexpr std::size_t kBatch = 32;
  std::vector<const PacketHeader*> headers(kBatch);
  std::vector<const FlowEntry*> entries(kBatch);
  SearchContext ctx;
  const auto run_all = [&] {
    std::size_t matched = 0;
    for (std::size_t base = 0; base + kBatch <= app.trace.size();
         base += kBatch) {
      for (std::size_t i = 0; i < kBatch; ++i) {
        headers[i] = &app.trace[base + i];
      }
      for (std::size_t t = 0; t < app.accelerated.table_count(); ++t) {
        app.accelerated.table(t).lookup_batch({headers.data(), kBatch},
                                              {entries.data(), kBatch}, ctx);
        for (std::size_t i = 0; i < kBatch; ++i) matched += entries[i] != nullptr;
      }
    }
    return matched;
  };
  const std::size_t warm = run_all();
  const std::size_t before = g_allocations.load();
  const std::size_t again = run_all();
  EXPECT_EQ(g_allocations.load(), before);
  EXPECT_EQ(warm, again);
}

TEST(LookupBatch, MatchesFlowTableLookup) {
  const auto app = make_app(FilterApp::kMacLearning, "gozb", 0.7, 606);
  SearchContext ctx;
  std::vector<const PacketHeader*> headers;
  for (const auto& header : app.trace) headers.push_back(&header);
  std::vector<const FlowEntry*> entries(headers.size());
  const auto id = [](const FlowEntry* entry) {  // -1: miss
    return entry == nullptr ? std::int64_t{-1} : std::int64_t{entry->id};
  };
  for (std::size_t t = 0; t < app.accelerated.table_count(); ++t) {
    const auto& table = app.accelerated.table(t);
    table.lookup_batch({headers.data(), headers.size()},
                       {entries.data(), entries.size()}, ctx);
    for (std::size_t i = 0; i < headers.size(); ++i) {
      ASSERT_EQ(id(entries[i]), id(app.reference.table(t).lookup(*headers[i])))
          << "table=" << t << " packet=" << i;
    }
  }
}

}  // namespace
}  // namespace ofmtl
