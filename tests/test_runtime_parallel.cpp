// The parallel multi-queue runtime: batches classified through worker
// threads must be bitwise-identical to single-threaded execute(), the
// sharded queues must honour one-worker-per-queue draining, and warmed
// worker loops must perform zero steady-state heap allocations (counted by
// tests/alloc_counter.hpp).
#include <gtest/gtest.h>

#include <vector>

#include "core/builder.hpp"
#include "runtime/runtime.hpp"
#include "workload/stanford_synth.hpp"
#include "workload/trace_gen.hpp"
#include "alloc_counter.hpp"

namespace ofmtl {
namespace {

using runtime::BatchTicket;
using runtime::ParallelRuntime;
using runtime::RuntimeConfig;
using workload::FilterApp;

struct App {
  MultiTableLookup accelerated;
  std::vector<PacketHeader> trace;
};

App make_app(FilterApp app, const char* name, std::size_t packets = 512) {
  const auto set = workload::generate_filterset(app, name);
  const auto spec = build_app(set, TableLayout::kPerFieldTables);
  return App{compile_app(spec),
             workload::generate_trace(
                 set, {.packets = packets, .hit_ratio = 0.9, .seed = 31})};
}

TEST(ParallelRuntime, AggregateStatsSumsPerWorkerCounters) {
  // Submit distinct batch counts to each queue (stealing off so batches
  // stay pinned to their queue's worker) and check aggregate_stats() is the
  // exact per-worker sum — including the flow-cache counters, which a
  // second identical pass turns into hits.
  const auto app = make_app(FilterApp::kMacLearning, "bbra", 256);
  ParallelRuntime rt(app.accelerated.clone(),
                     {.workers = 2,
                      .work_stealing = false,
                      .flow_cache_capacity = 1024});
  constexpr std::size_t kBatch = 64;
  std::vector<ExecutionResult> results(app.trace.size());
  const auto feed = [&](std::size_t queue, std::size_t batches) {
    BatchTicket ticket;
    for (std::size_t b = 0; b < batches; ++b) {
      while (!rt.try_submit(queue, {app.trace.data() + b * kBatch, kBatch},
                            {results.data() + b * kBatch, kBatch}, &ticket)) {
        std::this_thread::yield();
      }
    }
    ticket.wait();
  };
  feed(0, 3);  // worker 0: 3 batches
  feed(1, 1);  // worker 1: 1 batch
  feed(0, 3);  // repeat pass: worker 0's cache now serves hits
  const auto w0 = rt.stats(0);
  const auto w1 = rt.stats(1);
  const auto total = rt.aggregate_stats();
  EXPECT_EQ(w0.batches, 6u);
  EXPECT_EQ(w1.batches, 1u);
  EXPECT_EQ(total.batches, w0.batches + w1.batches);
  EXPECT_EQ(total.packets, w0.packets + w1.packets);
  EXPECT_EQ(total.steals, w0.steals + w1.steals);
  EXPECT_EQ(total.errors, w0.errors + w1.errors);
  EXPECT_EQ(total.cache_hits, w0.cache_hits + w1.cache_hits);
  EXPECT_EQ(total.cache_misses, w0.cache_misses + w1.cache_misses);
  EXPECT_EQ(total.cache_evictions, w0.cache_evictions + w1.cache_evictions);
  EXPECT_EQ(total.cache_epoch_invalidations,
            w0.cache_epoch_invalidations + w1.cache_epoch_invalidations);
  EXPECT_GT(w0.cache_hits, 0u);  // the repeat pass hit worker 0's cache
  EXPECT_EQ(total.cache_hits + total.cache_misses, total.packets);
}

TEST(Clone, PreservesEqualPriorityTieBreakAfterSlotReuse) {
  // Regression: entries() returns slot order; after a remove + insert the
  // reused slot holds the *newest* entry, so a clone replaying slot order
  // would give it the oldest seq and steal equal-priority ties. Snapshots
  // are clones, so this would make the runtime diverge from the master.
  const auto make_entry = [](FlowEntryId id, std::uint32_t port) {
    FlowEntry entry;
    entry.id = id;
    entry.priority = 7;  // all equal: tie-break = insertion order
    entry.instructions = output_instruction(port);
    return entry;
  };
  LookupTable table({FieldId::kVlanId},
                    {make_entry(1, 1), make_entry(2, 2), make_entry(3, 3)});
  ASSERT_TRUE(table.remove_entry(1));
  table.insert_entry(make_entry(4, 4));  // reuses entry 1's slot

  PacketHeader header;
  header.set_vlan_id(99);  // matches every entry via the EM wildcard label
  const auto clone = table.clone();
  const FlowEntry* original = table.lookup(header);
  const FlowEntry* copied = clone.lookup(header);
  ASSERT_NE(original, nullptr);
  ASSERT_NE(copied, nullptr);
  EXPECT_EQ(original->id, 2u);  // oldest surviving equal-priority entry
  EXPECT_EQ(copied->id, original->id);
}

TEST(ParallelRuntime, MatchesSingleThreadedExecute) {
  const auto app = make_app(FilterApp::kMacLearning, "bbra");
  std::vector<ExecutionResult> expected;
  for (const auto& header : app.trace) {
    expected.push_back(app.accelerated.execute(header));
  }
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    ParallelRuntime rt(app.accelerated.clone(), {.workers = workers});
    constexpr std::size_t kBatch = 64;
    std::vector<ExecutionResult> results(app.trace.size());
    BatchTicket ticket;
    std::size_t queue = 0;
    for (std::size_t base = 0; base < app.trace.size(); base += kBatch) {
      const std::size_t n = std::min(kBatch, app.trace.size() - base);
      while (!rt.try_submit(queue, {app.trace.data() + base, n},
                            {results.data() + base, n}, &ticket)) {
        std::this_thread::yield();
      }
      queue = (queue + 1) % rt.worker_count();
    }
    ticket.wait();
    for (std::size_t i = 0; i < app.trace.size(); ++i) {
      ASSERT_EQ(results[i], expected[i]) << "workers=" << workers << " i=" << i;
    }
    const auto total = rt.aggregate_stats();
    EXPECT_EQ(total.packets, app.trace.size());
    EXPECT_EQ(total.batches, (app.trace.size() + kBatch - 1) / kBatch);
  }
}

TEST(ParallelRuntime, FlowModsVisibleAtBatchBoundaries) {
  const auto app = make_app(FilterApp::kMacLearning, "bbra", 128);
  ParallelRuntime rt(app.accelerated.clone(), {.workers = 2});
  std::vector<ExecutionResult> results(app.trace.size());
  rt.classify(0, app.trace, results);

  FlowEntry takeover;
  takeover.id = 424242;
  takeover.priority = 60000;
  takeover.instructions = output_instruction(42);
  // A table-1 catch-all above every app rule.
  ASSERT_EQ(rt.apply(FlowModCommand::kAdd, 1, takeover), FlowModStatus::kOk);
  EXPECT_EQ(rt.epoch(), 1u);

  std::vector<ExecutionResult> after(app.trace.size());
  rt.classify(1, app.trace, after);
  std::size_t rerouted = 0;
  for (const auto& result : after) {
    for (const auto port : result.output_ports) rerouted += port == 42;
  }
  EXPECT_GT(rerouted, 0u);  // the published snapshot serves the new entry

  ASSERT_EQ(rt.apply(FlowModCommand::kDelete, 1, {.id = 424242}),
            FlowModStatus::kOk);
  EXPECT_EQ(rt.epoch(), 2u);
  std::vector<ExecutionResult> reverted(app.trace.size());
  rt.classify(0, app.trace, reverted);
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_EQ(reverted[i], results[i]) << "packet=" << i;
  }
}

TEST(ParallelRuntime, BackwardGotoRejectedWithoutPublishing) {
  // A table-1 catch-all whose Goto points back at table 0 would fail every
  // batch it matched; the runtime's one writer path validates it away
  // before either side changes.
  const auto app = make_app(FilterApp::kMacLearning, "bbra", 128);
  ParallelRuntime rt(app.accelerated.clone(), {.workers = 1});
  std::vector<ExecutionResult> before(app.trace.size());
  rt.classify(0, app.trace, before);

  FlowEntry loop;
  loop.id = 424242;
  loop.priority = 60000;
  loop.instructions.goto_table = 0;
  EXPECT_EQ(rt.apply(FlowModCommand::kAdd, 1, loop), FlowModStatus::kBadGoto);
  EXPECT_EQ(rt.epoch(), 0u);

  std::vector<ExecutionResult> after(app.trace.size());
  rt.classify(0, app.trace, after);  // rethrows a failed batch
  EXPECT_EQ(rt.aggregate_stats().errors, 0u);
  for (std::size_t i = 0; i < before.size(); ++i) {
    ASSERT_EQ(after[i], before[i]) << "packet=" << i;
  }
}

TEST(ParallelRuntime, MalformedPacketFailsTicketInsteadOfTerminating) {
  // Single-threaded execute() would throw (RM key out of field range); the
  // worker must flag the ticket instead of letting the exception terminate
  // the process, and classify() rethrows on the submitter's thread.
  FlowEntry entry;
  entry.id = 1;
  entry.priority = 1;
  entry.match.set(FieldId::kSrcPort, FieldMatch::of_range(0, 100));
  entry.instructions = output_instruction(1);
  MultiTableLookup tables;
  tables.add_table(LookupTable({FieldId::kSrcPort}, {entry}));
  ParallelRuntime rt(std::move(tables), {.workers = 1});
  PacketHeader bad;
  bad.set(FieldId::kSrcPort, std::uint64_t{1} << 20);  // > 16-bit field
  std::vector<ExecutionResult> results(1);
  EXPECT_THROW(rt.classify(0, {&bad, 1}, {results.data(), 1}),
               std::runtime_error);
  EXPECT_EQ(rt.aggregate_stats().errors, 1u);

  PacketHeader good;
  good.set_src_port(50);
  rt.classify(0, {&good, 1}, {results.data(), 1});  // worker still alive
  EXPECT_EQ(results[0].verdict, Verdict::kForwarded);
}

TEST(ParallelRuntime, SteadyStateWorkerLoopsAllocationFree) {
  const auto app = make_app(FilterApp::kRouting, "yoza");
  constexpr std::size_t kWorkers = 2;
  constexpr std::size_t kBatch = 64;
  // Stealing off: each queue's batches run on its own worker, so the
  // per-queue drain check below cannot be defeated by a sibling.
  ParallelRuntime rt(app.accelerated.clone(),
                     {.workers = kWorkers, .work_stealing = false});
  // Per-queue dedicated result arrays so every buffer reaches its high-water
  // capacity during the warm passes.
  std::vector<std::vector<ExecutionResult>> results(kWorkers);
  for (auto& r : results) r.resize(app.trace.size());
  const auto run_all = [&] {
    BatchTicket ticket;
    for (std::size_t base = 0; base < app.trace.size(); base += kBatch) {
      const std::size_t n = std::min(kBatch, app.trace.size() - base);
      for (std::size_t q = 0; q < kWorkers; ++q) {
        while (!rt.try_submit(q, {app.trace.data() + base, n},
                              {results[q].data() + base, n}, &ticket)) {
          std::this_thread::yield();
        }
      }
    }
    ticket.wait();
  };
  run_all();
  run_all();  // second warm pass: every slot has seen its window
  const std::size_t before = g_allocations.load();
  run_all();
  run_all();
  EXPECT_EQ(g_allocations.load(), before);
  for (std::size_t q = 0; q < kWorkers; ++q) {
    EXPECT_GT(rt.stats(q).packets, 0u) << "queue " << q << " never drained";
  }
}

}  // namespace
}  // namespace ofmtl
