// The parallel multi-queue runtime: batches classified through worker
// threads must be bitwise-identical to single-threaded execute(), the
// per-worker counters must sum to the aggregate however batches are stolen,
// and warmed worker loops must perform zero steady-state heap allocations
// (counted by tests/alloc_counter.hpp).
#include <gtest/gtest.h>

#include <chrono>
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
  // Three passes of the same four batches over two workers, so each batch
  // runs at least twice on one worker (whichever queue it was submitted
  // to, a sibling may steal it) and that worker's cache serves the repeat:
  // aggregate_stats() must be the exact per-worker sum, flow-cache
  // counters included.
  const auto app = make_app(FilterApp::kMacLearning, "bbra", 256);
  ParallelRuntime rt(app.accelerated.clone(),
                     {.workers = 2, .flow_cache_capacity = 1024});
  constexpr std::size_t kBatch = 64;
  constexpr std::size_t kBatches = 256 / kBatch;
  constexpr std::size_t kPasses = 3;
  std::vector<ExecutionResult> results(app.trace.size());
  for (std::size_t pass = 0; pass < kPasses; ++pass) {
    BatchTicket ticket;
    for (std::size_t b = 0; b < kBatches; ++b) {
      while (!rt.try_submit(b % 2, {app.trace.data() + b * kBatch, kBatch},
                            {results.data() + b * kBatch, kBatch}, &ticket)) {
        std::this_thread::yield();
      }
    }
    ticket.wait();
  }
  const auto w0 = rt.stats(0);
  const auto w1 = rt.stats(1);
  const auto total = rt.aggregate_stats();
  EXPECT_EQ(total.batches, kPasses * kBatches);
  EXPECT_EQ(total.packets, kPasses * app.trace.size());
  EXPECT_EQ(total.batches, w0.batches + w1.batches);
  EXPECT_EQ(total.packets, w0.packets + w1.packets);
  EXPECT_EQ(total.steals, w0.steals + w1.steals);
  EXPECT_EQ(total.errors, w0.errors + w1.errors);
  EXPECT_EQ(total.cache_hits, w0.cache_hits + w1.cache_hits);
  EXPECT_EQ(total.cache_misses, w0.cache_misses + w1.cache_misses);
  EXPECT_EQ(total.cache_evictions, w0.cache_evictions + w1.cache_evictions);
  EXPECT_EQ(total.cache_epoch_invalidations,
            w0.cache_epoch_invalidations + w1.cache_epoch_invalidations);
  EXPECT_GT(total.cache_hits, 0u);  // every batch repeated on some worker
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
  // Every batch is the whole trace, so a worker that has drained one holds
  // every flow in its cache, whichever queue it steals the next one from.
  // Warm up until each worker has drained a batch; from then on the passes
  // must not allocate.
  const auto app = make_app(FilterApp::kRouting, "yoza");
  constexpr std::size_t kWorkers = 2;
  ParallelRuntime rt(app.accelerated.clone(), {.workers = kWorkers});
  // Per-queue dedicated result arrays so every buffer reaches its high-water
  // capacity during the warm-up.
  std::vector<std::vector<ExecutionResult>> results(
      kWorkers, std::vector<ExecutionResult>(app.trace.size()));
  std::size_t submitted = 0;
  const auto run_all = [&] {
    BatchTicket ticket;
    for (std::size_t q = 0; q < kWorkers; ++q) {
      (void)rt.submit(q, app.trace, results[q], &ticket);
      submitted += app.trace.size();
    }
    ticket.wait();
  };
  const auto every_worker_drained = [&] {
    for (std::size_t w = 0; w < kWorkers; ++w) {
      if (rt.stats(w).batches == 0) return false;
    }
    return true;
  };
  // A worker thread can go unscheduled for many passes on a loaded host,
  // so the warm-up is bounded by time, not by a pass count.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!every_worker_drained()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "a worker never drained a batch";
    run_all();
  }
  run_all();
  const std::size_t before = g_allocations.load();
  const std::uint64_t packets_before = rt.aggregate_stats().packets;
  submitted = 0;
  run_all();
  run_all();
  EXPECT_EQ(g_allocations.load(), before);
  EXPECT_EQ(rt.aggregate_stats().packets - packets_before, submitted);
}

}  // namespace
}  // namespace ofmtl
