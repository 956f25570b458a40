// Metrics-plane tests: provider registration RAII
// (the dangling-callback crash mode a dying runtime must never hit),
// Prometheus/JSON rendering shape, and a concurrent scrape-vs-update-vs-
// register storm. The concurrency test runs under TSan in CI (.github/
// workflows/ci.yml tsan job) — the registry claims mutex-serialized
// scrapes against concurrent registration and provider-owned atomics; TSan
// holds it to that.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/runtime.hpp"

namespace {

using namespace ofmtl;
using obs::MetricsBuilder;
using obs::MetricsRegistry;

TEST(MetricsRegistryTest, PrometheusRenderGroupsFamiliesWithOneHeader) {
  MetricsRegistry registry;
  auto handle = registry.register_provider([](MetricsBuilder& builder) {
    builder.counter("ofmtl_test_packets_total", "Packets seen.", 100,
                    R"(worker="0")");
    builder.counter("ofmtl_test_packets_total", "Packets seen.", 200,
                    R"(worker="1")");
    builder.gauge("ofmtl_test_pressure", "Queue pressure.", 0.25);
  });
  const std::string text = registry.render_prometheus();
  // One HELP/TYPE pair per family even with several labelled samples.
  EXPECT_EQ(text.find("# TYPE ofmtl_test_packets_total counter"),
            text.rfind("# TYPE ofmtl_test_packets_total counter"));
  EXPECT_NE(text.find("# HELP ofmtl_test_packets_total Packets seen."),
            std::string::npos);
  EXPECT_NE(text.find("ofmtl_test_packets_total{worker=\"0\"} 100"),
            std::string::npos);
  EXPECT_NE(text.find("ofmtl_test_packets_total{worker=\"1\"} 200"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ofmtl_test_pressure gauge"), std::string::npos);
  EXPECT_NE(text.find("ofmtl_test_pressure 0.25"), std::string::npos);
}

TEST(MetricsRegistryTest, JsonRenderCarriesTypeAndLabels) {
  MetricsRegistry registry;
  auto handle = registry.register_provider([](MetricsBuilder& builder) {
    builder.counter("ofmtl_test_total", "h", 7, R"(kind="x")");
  });
  const std::string json = registry.render_json();
  EXPECT_NE(json.find(R"("name":"ofmtl_test_total")"), std::string::npos);
  EXPECT_NE(json.find(R"("type":"counter")"), std::string::npos);
  EXPECT_NE(json.find(R"("labels":"kind=\"x\"")"), std::string::npos);
  EXPECT_NE(json.find(R"("value":7)"), std::string::npos);
}

TEST(MetricsRegistryTest, HandleDestructionUnregistersProvider) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.provider_count(), 0u);
  {
    auto handle = registry.register_provider(
        [](MetricsBuilder& builder) { builder.gauge("ofmtl_gone", "h", 1); });
    EXPECT_EQ(registry.provider_count(), 1u);
    EXPECT_NE(registry.render_prometheus().find("ofmtl_gone"),
              std::string::npos);
  }
  EXPECT_EQ(registry.provider_count(), 0u);
  EXPECT_EQ(registry.render_prometheus().find("ofmtl_gone"),
            std::string::npos);

  // Moved-from handles must not double-unregister.
  auto a = registry.register_provider(
      [](MetricsBuilder& builder) { builder.gauge("ofmtl_moved", "h", 1); });
  auto b = std::move(a);
  EXPECT_EQ(registry.provider_count(), 1u);
  b.reset();
  EXPECT_EQ(registry.provider_count(), 0u);
  b.reset();  // idempotent
}

TEST(MetricsRegistryTest, RuntimeProviderExportsWorkerAndCacheFamilies) {
  MultiTableLookup tables;
  std::vector<FlowEntry> entries;
  FlowEntry entry;
  entry.id = 1;
  entry.priority = 1;
  entry.match.set(FieldId::kEthDst, FieldMatch::exact(std::uint64_t{5}));
  entry.instructions = output_instruction(1);
  entries.push_back(std::move(entry));
  tables.add_table(LookupTable({FieldId::kEthDst}, std::move(entries)));

  runtime::ParallelRuntime runtime(std::move(tables), {.workers = 2});
  MetricsRegistry registry;
  auto handle = runtime.register_metrics(registry);

  PacketHeader header;
  header.set(FieldId::kEthDst, 5);
  ExecutionResult result;
  runtime.classify(0, {&header, 1}, {&result, 1});

  const std::string text = registry.render_prometheus();
  EXPECT_NE(text.find("ofmtl_runtime_packets_total 1"), std::string::npos);
  EXPECT_NE(text.find("ofmtl_runtime_workers 2"), std::string::npos);
  EXPECT_NE(text.find("ofmtl_cache_hits_total"), std::string::npos);
  EXPECT_NE(text.find(R"(ofmtl_runtime_worker_packets_total{worker="0"})"),
            std::string::npos);
  EXPECT_NE(text.find(R"(ofmtl_runtime_worker_packets_total{worker="1"})"),
            std::string::npos);
  handle.reset();
  runtime.stop();
  EXPECT_EQ(registry.provider_count(), 0u);
}

TEST(MetricsRegistryTest, ConcurrentScrapeUpdateRegisterIsRaceFree) {
  // The TSan target: three writer threads hammering shared atomics,
  // one thread churning provider registration, and the main thread
  // scraping continuously. Nothing here asserts ordering — the assertion
  // IS the absence of data races and lost registrations.
  MetricsRegistry registry;
  std::atomic<std::uint64_t> shared_counter{0};
  std::atomic<double> shared_gauge{0};
  std::atomic<bool> stop{false};

  auto stable = registry.register_provider(
      [&shared_counter, &shared_gauge](MetricsBuilder& builder) {
        builder.counter("ofmtl_storm_total", "h",
                        static_cast<double>(shared_counter.load()));
        builder.gauge("ofmtl_storm_gauge", "h", shared_gauge.load());
      });

  std::vector<std::thread> writers;
  for (int t = 0; t < 3; ++t) {
    writers.emplace_back([&shared_counter, &shared_gauge, &stop, t] {
      std::uint64_t i = 0;
      do {  // do-while: each writer lands at least one update even if the
            // scraper finishes before this thread is first scheduled
        shared_counter.fetch_add(1, std::memory_order_relaxed);
        shared_gauge.store(static_cast<double>(t) + static_cast<double>(i++),
                           std::memory_order_relaxed);
      } while (!stop.load(std::memory_order_acquire));
    });
  }
  std::thread churner([&registry, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      auto h = registry.register_provider([](MetricsBuilder& builder) {
        builder.gauge("ofmtl_storm_transient", "h", 1);
      });
      (void)registry.render_json();
    }
  });

  for (int i = 0; i < 200; ++i) {
    const std::string text = registry.render_prometheus();
    EXPECT_NE(text.find("ofmtl_storm_total"), std::string::npos);
  }
  stop.store(true, std::memory_order_release);
  for (auto& w : writers) w.join();
  churner.join();
  EXPECT_EQ(registry.provider_count(), 1u);  // only the stable provider left
  EXPECT_GT(shared_counter.load(), 0u);
}

}  // namespace
