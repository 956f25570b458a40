// The per-worker epoch-keyed flow cache: cache-on classification must be
// bitwise-identical to cache-off on random rule sets and random/Zipf
// streams, a published flow-mod must never let a stale cached action
// escape (lazy epoch invalidation, exercised under concurrent churn — run
// this binary under -fsanitize=thread too), and both the hit and the miss
// path must stay allocation-free in steady state (counted by replacing
// global new/delete; this binary is its own test executable so the
// replacement cannot leak into others).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "core/builder.hpp"
#include "core/flow_key.hpp"
#include "runtime/flow_cache.hpp"
#include "runtime/runtime.hpp"
#include "workload/stanford_synth.hpp"
#include "workload/trace_gen.hpp"
#include "workload/zipf.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace ofmtl {
namespace {

using runtime::BatchTicket;
using runtime::FlowCache;
using runtime::ParallelRuntime;
using workload::FilterApp;

struct App {
  MultiTableLookup accelerated;
  std::vector<PacketHeader> pool;
};

App make_app(FilterApp app, const char* name, std::size_t flows,
             std::uint64_t seed) {
  const auto set = workload::generate_filterset(app, name);
  const auto spec = build_app(set, TableLayout::kPerFieldTables);
  return App{compile_app(spec),
             workload::generate_trace(
                 set, {.packets = flows, .hit_ratio = 0.9, .seed = seed})};
}

std::vector<PacketHeader> make_stream(const App& app, double s,
                                      std::size_t packets,
                                      std::uint64_t seed) {
  workload::ZipfSampler sampler(app.pool.size(), s, seed);
  std::vector<PacketHeader> stream;
  stream.reserve(packets);
  for (std::size_t i = 0; i < packets; ++i) {
    stream.push_back(app.pool[sampler.next()]);
  }
  return stream;
}

void classify_all(ParallelRuntime& rt, const std::vector<PacketHeader>& stream,
                  std::vector<ExecutionResult>& results,
                  std::size_t batch = 64) {
  for (std::size_t base = 0; base < stream.size(); base += batch) {
    const std::size_t n = std::min(batch, stream.size() - base);
    rt.classify(0, {stream.data() + base, n}, {results.data() + base, n});
  }
}

TEST(FlowKey, HashConsistentWithHeaderEquality) {
  PacketHeader a;
  a.set_eth_dst(MacAddress{0xABCD});
  a.set_vlan_id(7);
  PacketHeader b;
  b.set_vlan_id(7);
  b.set_eth_dst(MacAddress{0xABCD});
  EXPECT_EQ(a, b);  // set order must not matter
  EXPECT_EQ(flow_key_hash(a), flow_key_hash(b));

  PacketHeader c = a;
  c.set_vlan_id(8);
  EXPECT_NE(flow_key_hash(a), flow_key_hash(c));

  // Present-with-zero differs from absent (operator== compares the mask).
  PacketHeader d;
  d.set_eth_dst(MacAddress{0xABCD});
  PacketHeader e = d;
  e.set_vlan_id(0);
  EXPECT_NE(d, e);
  EXPECT_NE(flow_key_hash(d), flow_key_hash(e));
}

TEST(FlowCache, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlowCache(1).capacity(), FlowCache::kProbeWindow);
  EXPECT_EQ(FlowCache(5).capacity(), 8u);
  EXPECT_EQ(FlowCache(1024).capacity(), 1024u);
}

TEST(FlowCache, FindStoreEpochAndEvictionSemantics) {
  FlowCache cache(4);  // one probe window: forces eviction on the 5th flow
  PacketHeader header;
  header.set_vlan_id(1);
  const std::uint64_t hash = flow_key_hash(header);
  ExecutionResult result;
  result.verdict = Verdict::kForwarded;
  result.output_ports = {42};

  EXPECT_EQ(cache.find(header, hash, /*epoch=*/0), nullptr);  // cold miss
  cache.store(header, hash, 0, result);
  const ExecutionResult* hit = cache.find(header, hash, 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, result);

  // A newer epoch voids the entry: key matches, epoch does not.
  EXPECT_EQ(cache.find(header, hash, /*epoch=*/1), nullptr);
  EXPECT_EQ(cache.stats().epoch_invalidations, 1u);
  // The refill refreshes the same slot under the new epoch.
  result.output_ports = {43};
  cache.store(header, hash, 1, result);
  hit = cache.find(header, hash, 1);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->output_ports, std::vector<std::uint32_t>{43});

  // Fill every remaining slot with current-epoch flows, then one more:
  // the store must evict a live entry (counted) rather than drop the new.
  for (std::uint16_t vid = 2; vid <= 5; ++vid) {
    PacketHeader h;
    h.set_vlan_id(vid);
    cache.store(h, flow_key_hash(h), 1, result);
  }
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);  // one cold + one epoch-stale
}

TEST(FlowCacheRuntime, CacheOnBitwiseIdenticalToCacheOff) {
  // Property: over random rule sets (three apps, several seeds) and both
  // uniform and Zipf-skewed streams, every cache-on result equals the
  // cache-off result bitwise — including trace fields and final_header.
  const struct {
    FilterApp app;
    const char* name;
  } sets[] = {{FilterApp::kMacLearning, "bbra"},
              {FilterApp::kRouting, "yoza"},
              {FilterApp::kMacLearning, "gozb"}};
  for (const auto& [filter_app, name] : sets) {
    for (const std::uint64_t seed : {11u, 23u}) {
      const auto app = make_app(filter_app, name, 256, seed);
      for (const double s : {0.0, 1.1}) {
        const auto stream = make_stream(app, s, 1024, seed + 1);
        ParallelRuntime off(app.accelerated.clone(), {.workers = 1});
        ParallelRuntime on(app.accelerated.clone(),
                           {.workers = 1, .flow_cache_capacity = 128});
        std::vector<ExecutionResult> expected(stream.size());
        std::vector<ExecutionResult> actual(stream.size());
        classify_all(off, stream, expected);
        classify_all(on, stream, actual);
        for (std::size_t i = 0; i < stream.size(); ++i) {
          ASSERT_EQ(actual[i], expected[i])
              << name << " seed=" << seed << " s=" << s << " packet=" << i;
        }
        const auto stats = on.aggregate_stats();
        EXPECT_EQ(stats.cache_hits + stats.cache_misses, stream.size());
        EXPECT_GT(stats.cache_hits, 0u);  // 256 flows, 1024 packets: repeats
      }
    }
  }
}

TEST(FlowCacheRuntime, PublishNeverServesStaleAction) {
  // Sequential epoch-invalidation: classify a stream (cache warm), publish
  // a takeover flow-mod, classify again — every post-publish result must
  // match the post-publish oracle (no stale cached action), and the cache
  // must report epoch invalidations, not a free pass.
  auto app = make_app(FilterApp::kMacLearning, "bbra", 128, 7);
  const auto stream = make_stream(app, 1.1, 512, 8);

  FlowEntry takeover;
  takeover.id = 424242;
  takeover.priority = 60000;
  takeover.instructions = output_instruction(42);

  std::vector<ExecutionResult> before_oracle(stream.size());
  std::vector<ExecutionResult> after_oracle(stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    before_oracle[i] = app.accelerated.execute(stream[i]);
  }
  app.accelerated.insert_entry(1, takeover);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    after_oracle[i] = app.accelerated.execute(stream[i]);
  }
  ASSERT_TRUE(app.accelerated.remove_entry(1, takeover.id));

  ParallelRuntime rt(app.accelerated.clone(),
                     {.workers = 1, .flow_cache_capacity = 1024});
  std::vector<ExecutionResult> results(stream.size());
  classify_all(rt, stream, results);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ASSERT_EQ(results[i], before_oracle[i]) << "pre-publish packet " << i;
  }

  rt.insert_entry(1, takeover);  // epoch 1: every cached entry is now stale
  classify_all(rt, stream, results);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ASSERT_EQ(results[i], after_oracle[i]) << "post-publish packet " << i;
  }
  EXPECT_GT(rt.aggregate_stats().cache_epoch_invalidations, 0u);

  ASSERT_TRUE(rt.remove_entry(1, takeover.id));  // epoch 2: stale again
  classify_all(rt, stream, results);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ASSERT_EQ(results[i], before_oracle[i]) << "post-remove packet " << i;
  }
}

TEST(FlowCacheRuntime, ChurnNeverMixesEpochsWithCacheOn) {
  // Concurrent churn: a writer toggles the takeover entry while batches of
  // *repeated* packets (maximum cache pressure) drain with the cache on.
  // Every completed batch must be wholly consistent with the oracle of the
  // epoch its ticket reports — a stale cached action would show up as a
  // mixed batch. TSan-clean by construction (per-worker cache, guard-
  // ordered epochs).
  auto app = make_app(FilterApp::kMacLearning, "bbra", 64, 17);
  const auto stream = make_stream(app, 1.1, 256, 18);

  FlowEntry takeover;
  takeover.id = 424242;
  takeover.priority = 60000;
  takeover.instructions = output_instruction(42);

  std::vector<ExecutionResult> without(stream.size());
  std::vector<ExecutionResult> with(stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    without[i] = app.accelerated.execute(stream[i]);
  }
  app.accelerated.insert_entry(1, takeover);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    with[i] = app.accelerated.execute(stream[i]);
  }
  ASSERT_TRUE(app.accelerated.remove_entry(1, takeover.id));

  constexpr std::size_t kWorkers = 2;
  constexpr std::size_t kToggles = 16;
  constexpr std::size_t kBatch = 64;
  static_assert(256 % kBatch == 0);
  ParallelRuntime rt(std::move(app.accelerated),
                     {.workers = kWorkers, .flow_cache_capacity = 256});

  std::thread writer([&rt, &takeover] {
    for (std::size_t toggle = 0; toggle < kToggles; ++toggle) {
      if (toggle % 2 == 0) {
        rt.insert_entry(1, takeover);
      } else {
        EXPECT_TRUE(rt.remove_entry(1, 424242));
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::vector<ExecutionResult>> results(kWorkers);
  std::vector<BatchTicket> tickets(kWorkers);
  for (auto& r : results) r.resize(kBatch);
  std::size_t mixed = 0;
  std::size_t rounds = 0;
  // Drain until the churn is over and then 8 publish-free rounds more (each
  // window twice per queue), so the cache-hit check below holds however
  // slowly the writer's toggles interleave with the batches.
  std::size_t settled = 0;
  while (settled < 8) {
    const bool churn_done = rt.epoch() == kToggles;
    const std::size_t base = (rounds % (stream.size() / kBatch)) * kBatch;
    for (std::size_t q = 0; q < kWorkers; ++q) {
      while (!rt.try_submit(q, {stream.data() + base, kBatch},
                            {results[q].data(), kBatch}, &tickets[q])) {
        std::this_thread::yield();
      }
    }
    for (std::size_t q = 0; q < kWorkers; ++q) {
      tickets[q].wait();
      const auto& oracle = tickets[q].epoch() % 2 == 1 ? with : without;
      for (std::size_t i = 0; i < kBatch; ++i) {
        if (results[q][i] != oracle[base + i]) ++mixed;
      }
    }
    ++rounds;
    if (churn_done) ++settled;
  }
  writer.join();
  EXPECT_EQ(mixed, 0u) << "a cached result leaked across a publish";
  EXPECT_EQ(rt.epoch(), kToggles);
  EXPECT_GT(rt.aggregate_stats().cache_hits, 0u);
}

TEST(FlowCacheRuntime, HitAndMissPathsAllocationFreeInSteadyState) {
  // Steady state must not allocate on either path. The two paths are
  // driven deterministically so warmed buffers actually repeat:
  //   - hit path: replay a stream the cache wholly holds (capacity >=
  //     flows, no evictions) — after the first pass everything hits;
  //   - miss path: publish a no-op flow-mod (epoch bump) before a replay —
  //     every cached entry goes epoch-stale, so every packet walks the
  //     pipeline and the refill refreshes its own slot in place.
  // (Eviction-path warming is inherently history-dependent — the victim
  // rotor re-pairs flows and slots across replays — so eviction counters
  // are covered by the FlowCache unit test instead.)
  const auto app = make_app(FilterApp::kRouting, "yoza", 128, 29);
  const auto stream = make_stream(app, 1.1, 512, 30);
  ParallelRuntime rt(app.accelerated.clone(),
                     {.workers = 1, .flow_cache_capacity = 256});
  std::vector<ExecutionResult> results(512);
  const auto replay = [&] { classify_all(rt, stream, results); };
  const auto stale_cache = [&] {
    rt.update([](MultiTableLookup&) {});  // publishes one epoch, mutates nothing
  };
  replay();        // fill
  stale_cache();
  replay();        // warm the miss/refill path end to end
  replay();        // warm the pure-hit path
  const std::size_t before = g_allocations.load();
  replay();        // all hits
  stale_cache();
  replay();        // all epoch-invalidation misses + in-place refills
  replay();        // all hits again
  EXPECT_EQ(g_allocations.load(), before);
  const auto stats = rt.aggregate_stats();
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_GT(stats.cache_misses, 0u);
  EXPECT_GT(stats.cache_epoch_invalidations, 0u);
}

}  // namespace
}  // namespace ofmtl
