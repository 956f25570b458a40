// The steal-able batch queue and the runtime's work stealing: the queue must
// stay FIFO/bounded single-threaded, deliver each item to exactly one of
// several concurrent consumers, and the runtime must let idle workers drain
// a skewed submitter's queue. Run under -fsanitize=thread as well (no test
// changes needed).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "core/builder.hpp"
#include "runtime/runtime.hpp"
#include "runtime/steal_queue.hpp"
#include "workload/stanford_synth.hpp"
#include "workload/trace_gen.hpp"

namespace ofmtl {
namespace {

using runtime::BatchTicket;
using runtime::ParallelRuntime;
using runtime::StealQueue;
using workload::FilterApp;

TEST(StealQueue, PushPopOrderAndBackpressure) {
  StealQueue<int> queue(4);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(queue.try_push(i));
  EXPECT_FALSE(queue.try_push(99));  // full
  int out = -1;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(queue.try_pop(out));
    EXPECT_EQ(out, i);  // FIFO
  }
  EXPECT_FALSE(queue.try_pop(out));
  EXPECT_TRUE(queue.empty());
  // Wrap-around after a full lap.
  for (int lap = 0; lap < 3; ++lap) {
    for (int i = 0; i < 3; ++i) EXPECT_TRUE(queue.try_push(lap * 10 + i));
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(queue.try_pop(out));
      EXPECT_EQ(out, lap * 10 + i);
    }
  }
}

TEST(StealQueue, ConcurrentConsumersReceiveEachItemExactlyOnce) {
  constexpr int kItems = 20000;
  constexpr std::size_t kConsumers = 3;
  StealQueue<int> queue(64);
  std::atomic<bool> done{false};
  std::vector<std::vector<int>> received(kConsumers);
  std::vector<std::thread> consumers;
  for (std::size_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&, c] {
      int value;
      while (true) {
        if (queue.try_pop(value)) {
          received[c].push_back(value);
        } else if (done.load(std::memory_order_acquire)) {
          if (!queue.try_pop(value)) break;
          received[c].push_back(value);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (int i = 0; i < kItems; ++i) {
    while (!queue.try_push(i)) std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (auto& consumer : consumers) consumer.join();

  std::vector<int> all;
  for (const auto& r : received) all.insert(all.end(), r.begin(), r.end());
  ASSERT_EQ(all.size(), static_cast<std::size_t>(kItems))
      << "items lost or duplicated across consumers";
  std::sort(all.begin(), all.end());
  for (int i = 0; i < kItems; ++i) {
    ASSERT_EQ(all[static_cast<std::size_t>(i)], i);
  }
}

struct App {
  MultiTableLookup accelerated;
  std::vector<PacketHeader> trace;
};

App make_app(std::size_t packets = 512) {
  const auto set =
      workload::generate_filterset(FilterApp::kMacLearning, "bbra");
  const auto spec = build_app(set, TableLayout::kPerFieldTables);
  return App{compile_app(spec),
             workload::generate_trace(
                 set, {.packets = packets, .hit_ratio = 0.9, .seed = 31})};
}

TEST(WorkStealing, SkewedSubmitterKeepsResultsCorrectAndSpreadsWork) {
  // Every batch goes to queue 0; with stealing on, the idle sibling drains
  // it. Results must match single-threaded execute regardless of who ran
  // them. To observe a steal deterministically enough for CI (including
  // 1-core containers under load), each round parks one multi-millisecond
  // batch on the owner and queues many small batches behind it — the idle
  // worker needs only a single scheduling quantum during that window to
  // steal one; rounds repeat until it does.
  const auto app = make_app(4096);
  std::vector<ExecutionResult> expected;
  for (const auto& header : app.trace) {
    expected.push_back(app.accelerated.execute(header));
  }
  constexpr std::size_t kBatch = 64;
  constexpr std::size_t kSmallBatches = 4096 / kBatch;
  constexpr std::size_t kMaxRounds = 100;
  ParallelRuntime rt(app.accelerated.clone(),
                     {.workers = 2, .queue_capacity = 2 * kSmallBatches});
  std::vector<ExecutionResult> big_results(app.trace.size());
  std::vector<ExecutionResult> small_results(app.trace.size());
  std::size_t rounds = 0;
  std::uint64_t steals = 0;
  while (rounds < kMaxRounds && steals == 0) {
    BatchTicket ticket;
    // The whole trace as one batch: pins whichever worker pops it first.
    while (!rt.try_submit(0, {app.trace.data(), app.trace.size()},
                          {big_results.data(), app.trace.size()}, &ticket)) {
      std::this_thread::yield();
    }
    for (std::size_t base = 0; base < app.trace.size(); base += kBatch) {
      while (!rt.try_submit(0, {app.trace.data() + base, kBatch},
                            {small_results.data() + base, kBatch}, &ticket)) {
        std::this_thread::yield();
      }
    }
    ticket.wait();
    ASSERT_FALSE(ticket.failed());
    for (std::size_t i = 0; i < app.trace.size(); ++i) {
      ASSERT_EQ(big_results[i], expected[i]) << "big batch packet " << i;
      ASSERT_EQ(small_results[i], expected[i]) << "small batch packet " << i;
    }
    steals = rt.aggregate_stats().steals;
    ++rounds;
  }
  const auto total = rt.aggregate_stats();
  EXPECT_EQ(total.packets, rounds * 2 * app.trace.size());
  EXPECT_GT(total.steals, 0u)
      << "no worker ever stole from the hot queue in " << rounds << " rounds";
}

}  // namespace
}  // namespace ofmtl
