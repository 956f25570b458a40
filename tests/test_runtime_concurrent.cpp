// Concurrent flow-mods against live classification: worker threads drain
// packet batches while a writer thread toggles a top-priority takeover entry
// through the RCU snapshot handoff. Every completed batch must be wholly
// consistent with either the pre- or the post-update snapshot — identified
// by the epoch its ticket reports — and never a mix. Run locally under
// -fsanitize=thread as well (no test changes needed).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/builder.hpp"
#include "runtime/runtime.hpp"
#include "workload/stanford_synth.hpp"
#include "workload/trace_gen.hpp"

namespace ofmtl {
namespace {

using runtime::BatchTicket;
using runtime::ParallelRuntime;
using workload::FilterApp;

TEST(RuntimeConcurrent, ResultsMatchPreOrPostUpdateSnapshot) {
  const auto set = workload::generate_filterset(FilterApp::kMacLearning, "bbra");
  const auto spec = build_app(set, TableLayout::kPerFieldTables);
  auto accelerated = compile_app(spec);
  const auto trace = workload::generate_trace(
      set, {.packets = 256, .hit_ratio = 0.9, .seed = 61});

  FlowEntry takeover;
  takeover.id = 424242;
  takeover.priority = 60000;
  takeover.instructions = output_instruction(42);

  // Oracles for both table states, computed single-threaded up front.
  std::vector<ExecutionResult> without;
  for (const auto& header : trace) without.push_back(accelerated.execute(header));
  ASSERT_EQ(accelerated.apply(FlowModCommand::kAdd, 1, takeover),
            FlowModStatus::kOk);
  std::vector<ExecutionResult> with;
  for (const auto& header : trace) with.push_back(accelerated.execute(header));
  ASSERT_EQ(accelerated.apply(FlowModCommand::kDelete, 1, takeover),
            FlowModStatus::kOk);

  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kToggles = 24;
  ParallelRuntime rt(std::move(accelerated), {.workers = kWorkers});

  // Writer: toggle the takeover entry; each toggle publishes a new epoch.
  // Odd epochs have the entry installed, even epochs do not.
  std::thread writer([&rt, &takeover] {
    for (std::size_t toggle = 0; toggle < kToggles; ++toggle) {
      if (toggle % 2 == 0) {
        EXPECT_EQ(rt.apply(FlowModCommand::kAdd, 1, takeover),
                  FlowModStatus::kOk);
      } else {
        // EXPECT, not ASSERT: non-main thread.
        EXPECT_EQ(rt.apply(FlowModCommand::kDelete, 1, takeover),
                  FlowModStatus::kOk);
      }
      std::this_thread::yield();
    }
  });

  // Data plane: this thread is the producer for every queue (one producer
  // per queue holds — it is a single thread), keeping batches in flight on
  // all workers until the writer finishes. kBatch slices align with the
  // oracle vectors.
  constexpr std::size_t kBatch = 64;
  static_assert(256 % kBatch == 0);
  std::vector<std::vector<ExecutionResult>> results(kWorkers);
  std::vector<BatchTicket> tickets(kWorkers);
  for (auto& r : results) r.resize(kBatch);
  std::size_t mixed_batches = 0;
  std::uint64_t max_epoch_seen = 0;
  std::size_t rounds = 0;
  while (rt.epoch() < kToggles || rounds < 8) {
    const std::size_t base = (rounds % (trace.size() / kBatch)) * kBatch;
    for (std::size_t q = 0; q < kWorkers; ++q) {
      while (!rt.try_submit(q, {trace.data() + base, kBatch},
                            {results[q].data(), kBatch}, &tickets[q])) {
        std::this_thread::yield();
      }
    }
    for (std::size_t q = 0; q < kWorkers; ++q) {
      tickets[q].wait();
      const std::uint64_t epoch = tickets[q].epoch();
      max_epoch_seen = std::max(max_epoch_seen, epoch);
      const auto& oracle = epoch % 2 == 1 ? with : without;
      for (std::size_t i = 0; i < kBatch; ++i) {
        if (results[q][i] != oracle[base + i]) ++mixed_batches;
      }
    }
    ++rounds;
  }
  writer.join();
  EXPECT_EQ(mixed_batches, 0u)
      << "some batch mixed pre- and post-update snapshots";
  EXPECT_GT(max_epoch_seen, 0u) << "no batch ever saw an updated snapshot";
  EXPECT_EQ(rt.epoch(), kToggles);
}

}  // namespace
}  // namespace ofmtl
