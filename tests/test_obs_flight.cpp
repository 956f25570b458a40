// Flight-recorder tests. Breach detection runs entirely on the injected
// test seams (a scripted collect() source and a virtual clock), so the SLO
// window math is deterministic — no sleeps, no real rings. The crash path
// is a real death test: the child process arms the recorder, emits traced
// events, and dies by signal; the parent then reloads the post-mortem
// OFTRACE1 the async-signal-safe handler wrote and checks the records
// survived. Both suites run under TSan in CI (ci.yml tsan job).
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace {

using namespace ofmtl::obs;

/// One synthetic producer thread: an anchor pair at `start_ns`, then one
/// batch slice per entry of `durations` (1 us apart, `d` ns long).
TraceDump make_dump(std::uint64_t start_ns,
                    const std::vector<std::uint32_t>& durations,
                    std::uint64_t tid = 1) {
  TraceDump dump;
  dump.pid = 1;
  dump.process_name = "synthetic";
  ThreadTrace thread;
  thread.name = "worker";
  thread.tid = tid;
  thread.records.push_back(TraceRecord{
      static_cast<std::uint16_t>(TraceEvent::kTimeSync), 0, 0, start_ns});
  thread.records.push_back(
      TraceRecord{static_cast<std::uint16_t>(TraceEvent::kWallClockSync), 0,
                  0, start_ns + 1'000'000'000ull});
  for (const std::uint32_t d : durations) {
    thread.records.push_back(TraceRecord{
        static_cast<std::uint16_t>(TraceEvent::kBatchBegin), 0, 1000, 1});
    thread.records.push_back(TraceRecord{
        static_cast<std::uint16_t>(TraceEvent::kBatchEnd), 0, d, 1});
  }
  dump.threads.push_back(std::move(thread));
  return dump;
}

/// Config with scripted seams: collect() hands out the queued dumps one
/// poll at a time (then empties), now_ns() reads the shared virtual clock.
FlightRecorderConfig make_config(const std::string& prefix,
                                 std::shared_ptr<std::vector<TraceDump>> dumps,
                                 std::shared_ptr<std::uint64_t> now) {
  FlightRecorderConfig config;
  config.dump_dir = ".";
  config.dump_prefix = prefix;
  config.install_crash_handler = false;
  config.retain_ms = 10'000;
  auto next = std::make_shared<std::size_t>(0);
  config.collect = [dumps, next]() -> TraceDump {
    if (*next >= dumps->size()) return TraceDump{};
    return (*dumps)[(*next)++];
  };
  config.now_ns = [now] { return *now; };
  return config;
}

void remove_artifacts(const BreachInfo& breach) {
  std::remove(breach.dump_path.c_str());
  std::remove(breach.report_path.c_str());
}

TEST(FlightRecorderTest, RatioBreachDumpsLoadableTraceAndReport) {
  auto dumps = std::make_shared<std::vector<TraceDump>>();
  auto now = std::make_shared<std::uint64_t>(5'000'000);
  // 20 well-behaved 100 ns batches and one 100 us straggler: p99 lands on
  // the straggler, p50 on the pack — far beyond the 2× ratio bound.
  std::vector<std::uint32_t> durations(20, 100);
  durations.push_back(100'000);
  dumps->push_back(make_dump(1'000'000, durations));

  auto config = make_config("test_flight_ratio", dumps, now);
  config.slos.push_back({.name = "batch",
                         .begin = TraceEvent::kBatchBegin,
                         .max_p99_over_p50 = 2.0,
                         .max_p99_ns = 0,
                         .min_samples = 16});
  FlightRecorder recorder(std::move(config));

  const auto breaches = recorder.poll();
  ASSERT_EQ(breaches.size(), 1u);
  const BreachInfo& breach = breaches.front();
  EXPECT_EQ(breach.slo, "batch");
  EXPECT_EQ(breach.reason, "p99_over_p50");
  EXPECT_EQ(breach.samples, 21u);
  EXPECT_GT(breach.p99_ns, 2 * breach.p50_ns);
  EXPECT_EQ(recorder.breaches(), 1u);
  EXPECT_EQ(recorder.dumps_written(), 1u);

  // The dump must reload through the hardened loader with the retained
  // slices intact and decodable (synthetic anchor at the front).
  TraceDump reloaded;
  ASSERT_EQ(load_trace_dump(breach.dump_path, reloaded), TraceLoadStatus::kOk);
  ASSERT_EQ(reloaded.threads.size(), 1u);
  DecodeStats stats;
  const auto events = decode_thread(reloaded.threads[0], &stats);
  EXPECT_EQ(stats.skipped_prefix, 0u);
  EXPECT_TRUE(stats.has_wall_offset);
  std::size_t begins = 0;
  for (const auto& event : events) {
    if (event.event == TraceEvent::kBatchBegin) ++begins;
  }
  EXPECT_EQ(begins, durations.size());
  const auto histogram = slice_latency_histogram(
      reloaded, TraceEvent::kBatchBegin, SliceFold::kPerSlice);
  EXPECT_EQ(histogram.total(), durations.size());

  // The JSON report names the SLO, the reason, and the dump path.
  std::ifstream report(breach.report_path);
  ASSERT_TRUE(report.good());
  const std::string text((std::istreambuf_iterator<char>(report)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"slo\": \"batch\""), std::string::npos);
  EXPECT_NE(text.find("\"reason\": \"p99_over_p50\""), std::string::npos);
  EXPECT_NE(text.find(breach.dump_path), std::string::npos);
  remove_artifacts(breach);
}

TEST(FlightRecorderTest, CeilingBreachAndWindowRestart) {
  auto dumps = std::make_shared<std::vector<TraceDump>>();
  auto now = std::make_shared<std::uint64_t>(5'000'000);
  dumps->push_back(make_dump(1'000'000, std::vector<std::uint32_t>(16, 5000)));
  dumps->push_back(make_dump(2'000'000, std::vector<std::uint32_t>(4, 5000)));

  auto config = make_config("test_flight_ceiling", dumps, now);
  config.slos.push_back({.name = "batch",
                         .begin = TraceEvent::kBatchBegin,
                         .max_p99_over_p50 = 0,
                         .max_p99_ns = 1000,
                         .min_samples = 16});
  FlightRecorder recorder(std::move(config));

  auto breaches = recorder.poll();
  ASSERT_EQ(breaches.size(), 1u);
  EXPECT_EQ(breaches.front().reason, "p99_ceiling");
  remove_artifacts(breaches.front());

  // The evaluated window was reset: the second poll's 4 samples are below
  // min_samples, so no re-breach fires on stale data.
  breaches = recorder.poll();
  EXPECT_TRUE(breaches.empty());
  EXPECT_EQ(recorder.breaches(), 1u);
}

TEST(FlightRecorderTest, NoBreachWithinSlo) {
  auto dumps = std::make_shared<std::vector<TraceDump>>();
  auto now = std::make_shared<std::uint64_t>(5'000'000);
  dumps->push_back(make_dump(1'000'000, std::vector<std::uint32_t>(32, 100)));
  auto config = make_config("test_flight_quiet", dumps, now);
  config.slos.push_back({.name = "batch",
                         .begin = TraceEvent::kBatchBegin,
                         .max_p99_over_p50 = 100.0,
                         .max_p99_ns = 1'000'000,
                         .min_samples = 16});
  FlightRecorder recorder(std::move(config));
  EXPECT_TRUE(recorder.poll().empty());
  EXPECT_EQ(recorder.breaches(), 0u);
  EXPECT_EQ(recorder.dumps_written(), 0u);
}

TEST(FlightRecorderTest, ChunkedStreamFoldsAsTheWholeDumpDoes) {
  // One thread's stream: an undecodable prefix, an anchor pair, batch
  // slices with nested stage slices and an unpaired end, a batch left open
  // across a second anchor pair, then more batches. Fed to the recorder in
  // chunks that split a slice and the anchor pair, its window must hold
  // exactly what slice_latency_histogram reads from the whole stream.
  ThreadTrace whole;
  whole.name = "worker";
  whole.tid = 1;
  const auto add = [&whole](TraceEvent event, std::uint32_t delta,
                            std::uint64_t payload = 1) {
    whole.records.push_back(
        TraceRecord{static_cast<std::uint16_t>(event), 0, delta, payload});
  };
  add(TraceEvent::kBatchEnd, 7);  // its begin and anchor were overwritten
  add(TraceEvent::kTimeSync, 0, 1'000'000);
  add(TraceEvent::kWallClockSync, 0, 9'000'000);
  add(TraceEvent::kStageEnd, 3);  // unpaired end
  for (std::uint32_t i = 0; i < 40; ++i) {
    add(TraceEvent::kBatchBegin, 1000);
    add(TraceEvent::kStageBegin, 10);
    add(TraceEvent::kStageEnd, 50 + 13 * i);
    add(TraceEvent::kBatchEnd, 100 + 37 * i);
  }
  add(TraceEvent::kBatchBegin, 1000);  // closes after the next anchor
  add(TraceEvent::kTimeSync, 0, 5'000'000);
  add(TraceEvent::kWallClockSync, 0, 13'000'000);
  add(TraceEvent::kBatchEnd, 400);
  for (std::uint32_t i = 0; i < 40; ++i) {
    add(TraceEvent::kBatchBegin, 500);
    add(TraceEvent::kBatchEnd, 5000 + 911 * i);
  }

  TraceDump dump;
  dump.threads.push_back(whole);
  const LogHistogram expected =
      slice_latency_histogram(dump, TraceEvent::kBatchBegin,
                              SliceFold::kPerSlice);
  ASSERT_EQ(expected.total(), 81u);

  // Cut after a batch begin (index 4 + 4 * 20 + 1) and between the second
  // anchor's kTimeSync and kWallClockSync.
  auto dumps = std::make_shared<std::vector<TraceDump>>();
  std::size_t from = 0;
  for (const std::size_t to : {std::size_t{2}, std::size_t{85},
                               std::size_t{166}, whole.records.size()}) {
    TraceDump chunk;
    ThreadTrace part = whole;
    part.records.assign(whole.records.begin() + from,
                        whole.records.begin() + to);
    chunk.threads.push_back(std::move(part));
    dumps->push_back(std::move(chunk));
    from = to;
  }
  ASSERT_EQ(whole.records[166].event,
            static_cast<std::uint16_t>(TraceEvent::kWallClockSync));
  auto config = make_config("test_flight_chunked", dumps,
                            std::make_shared<std::uint64_t>(5'000'000));
  config.slos.push_back({.name = "batch",
                         .begin = TraceEvent::kBatchBegin,
                         .max_p99_ns = 1,  // every full window breaches
                         .min_samples = expected.total()});
  FlightRecorder recorder(std::move(config));
  std::vector<BreachInfo> breaches;
  for (std::size_t poll = 0; poll < dumps->size(); ++poll) {
    breaches = recorder.poll();
    if (poll + 1 < dumps->size()) EXPECT_TRUE(breaches.empty());
  }
  ASSERT_EQ(breaches.size(), 1u);
  EXPECT_EQ(breaches.front().samples, expected.total());
  EXPECT_EQ(breaches.front().p50_ns, expected.quantile(0.50));
  EXPECT_EQ(breaches.front().p99_ns, expected.quantile(0.99));

  // The retained history re-encodes to the same slices.
  const LogHistogram retained = slice_latency_histogram(
      recorder.dump_retained(), TraceEvent::kBatchBegin, SliceFold::kPerSlice);
  EXPECT_EQ(retained.total(), expected.total());
  EXPECT_EQ(retained.quantile(0.50), expected.quantile(0.50));
  EXPECT_EQ(retained.quantile(0.99), expected.quantile(0.99));
  remove_artifacts(breaches.front());
}

TEST(FlightRecorderTest, RetainWindowTrimsOldHistory) {
  auto dumps = std::make_shared<std::vector<TraceDump>>();
  auto now = std::make_shared<std::uint64_t>(100'000'000);  // 100 ms
  dumps->push_back(make_dump(1'000'000, {100, 100}));             // at ~1 ms
  dumps->push_back(make_dump(590'000'000, {100, 100}));           // at ~590 ms
  auto config = make_config("test_flight_trim", dumps, now);
  config.retain_ms = 250;
  FlightRecorder recorder(std::move(config));

  (void)recorder.poll();  // ingest the 1 ms dump; now=100ms → nothing trimmed
  TraceDump retained = recorder.dump_retained();
  ASSERT_EQ(retained.threads.size(), 1u);
  EXPECT_GT(retained.threads[0].records.size(), 0u);

  *now = 600'000'000;  // 600 ms: cutoff 350 ms — the 1 ms history must go
  (void)recorder.poll();
  retained = recorder.dump_retained();
  ASSERT_EQ(retained.threads.size(), 1u);
  const auto events = decode_thread(retained.threads[0]);
  ASSERT_GT(events.size(), 0u);
  for (const auto& event : events) {
    EXPECT_GE(event.ts_ns, 350'000'000u);
  }
}

TEST(FlightRecorderTest, ForceDumpAndMetricsProvider) {
  auto dumps = std::make_shared<std::vector<TraceDump>>();
  auto now = std::make_shared<std::uint64_t>(5'000'000);
  dumps->push_back(make_dump(1'000'000, {100}));
  FlightRecorder recorder(make_config("test_flight_force", dumps, now));
  (void)recorder.poll();

  MetricsRegistry registry;
  auto handle = recorder.register_metrics(registry);
  std::string text = registry.render_prometheus();
  EXPECT_NE(text.find("ofmtl_recorder_breaches_total 0"), std::string::npos);
  EXPECT_NE(text.find("ofmtl_recorder_retained_records"), std::string::npos);

  const BreachInfo forced = recorder.force_dump("operator_snapshot");
  TraceDump reloaded;
  EXPECT_EQ(load_trace_dump(forced.dump_path, reloaded), TraceLoadStatus::kOk);
  text = registry.render_prometheus();
  EXPECT_NE(text.find("ofmtl_recorder_breaches_total 1"), std::string::npos);
  EXPECT_NE(text.find("ofmtl_recorder_dumps_total 1"), std::string::npos);
  remove_artifacts(forced);
}

TEST(FlightRecorderDeathTest, CrashHandlerWritesLoadableDump) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char* crash_path = "./test_flight_crash_crash.oftrace";
  std::remove(crash_path);

  // Child: trace some events, arm (installing the SIGABRT/SIGSEGV/SIGBUS
  // handlers and pre-registering this thread's ring), then die by signal.
  // The async-signal-safe handler must persist the rings before the default
  // disposition kills the process.
  EXPECT_EXIT(
      {
        start_tracing(TraceOptions{.ring_capacity = 1024});
        set_thread_name("doomed");
        for (std::uint64_t i = 0; i < 64; ++i) {
          emit(TraceEvent::kBatchBegin, 0, 1000 + i);
          emit(TraceEvent::kBatchEnd, 0, 1000 + i);
        }
        FlightRecorderConfig config;
        config.dump_dir = ".";
        config.dump_prefix = "test_flight_crash";
        FlightRecorder recorder(std::move(config));
        recorder.arm();
        std::abort();
      },
      ::testing::KilledBySignal(SIGABRT), "");

  // Parent: the post-mortem dump is a normal OFTRACE1 — hardened loader,
  // extended header, decodable records including our payload markers.
  TraceDump dump;
  ASSERT_EQ(load_trace_dump(crash_path, dump), TraceLoadStatus::kOk);
  EXPECT_GT(dump.pid, 0u);
  EXPECT_EQ(dump.process_name, "test_flight_crash");
  ASSERT_GE(dump.threads.size(), 1u);
  const ThreadTrace* doomed = nullptr;
  for (const auto& thread : dump.threads) {
    if (thread.name == "doomed") doomed = &thread;
  }
  ASSERT_NE(doomed, nullptr);
  const auto events = decode_thread(*doomed);
  std::size_t marked = 0;
  for (const auto& event : events) {
    if (event.event == TraceEvent::kBatchBegin && event.payload >= 1000 &&
        event.payload < 1064) {
      ++marked;
    }
  }
  EXPECT_EQ(marked, 64u);
  std::remove(crash_path);
}

TEST(FlightRecorderTest, OnlyOneRecorderMayArm) {
  FlightRecorderConfig config;
  config.dump_prefix = "test_flight_solo";
  config.install_crash_handler = false;
  FlightRecorder first(std::move(config));
  first.arm();
  FlightRecorderConfig other;
  other.dump_prefix = "test_flight_second";
  other.install_crash_handler = false;
  FlightRecorder second(std::move(other));
  EXPECT_THROW(second.arm(), std::runtime_error);
  first.disarm();
  second.arm();  // released: arming now succeeds
  second.disarm();
}

}  // namespace
