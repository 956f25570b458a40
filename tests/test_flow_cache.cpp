// The per-worker epoch-keyed flow cache: cached classification must be
// bitwise-identical to MultiTableLookup::execute on random rule sets and
// random/Zipf streams, a published flow-mod must never let a stale cached action
// escape (neither through epoch invalidation under concurrent churn — run
// this binary under -fsanitize=thread too — nor through delta-log
// revalidation under mods aimed at cached walks), and the hit, revalidated-
// hit and miss paths must stay allocation-free in steady state (counted by
// tests/alloc_counter.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/builder.hpp"
#include "core/flow_key.hpp"
#include "obs/export.hpp"
#include "obs/tracer.hpp"
#include "runtime/flow_cache.hpp"
#include "runtime/runtime.hpp"
#include "workload/rng.hpp"
#include "workload/stanford_synth.hpp"
#include "workload/trace_gen.hpp"
#include "workload/zipf.hpp"
#include "alloc_counter.hpp"

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

TEST(FlowCacheRuntime, ZeroCapacityIsRejectedNotRounded) {
  // 0 once meant "cache off"; rounding it up to one probe window would give
  // a caller still asking for that the opposite of what it asked for.
  EXPECT_THROW(ParallelRuntime(MultiTableLookup{}, {.flow_cache_capacity = 0}),
               std::invalid_argument);
}

TEST(FlowCache, FindStoreEpochAndEvictionSemantics) {
  FlowCache cache(4);  // one probe window: forces eviction on the 5th flow
  // A side whose delta log starts above every stamp used here: nothing
  // stale revalidates against it.
  MultiTableLookup voided;
  voided.restart_log(1);
  PacketHeader header;
  header.set_vlan_id(1);
  const std::uint64_t hash = flow_key_hash(header);
  ExecutionResult result;
  result.verdict = Verdict::kForwarded;
  result.output_ports = {42};

  EXPECT_EQ(cache.find(header, hash, /*epoch=*/0, voided), nullptr);  // cold
  cache.store(header, hash, 0, result);
  const ExecutionResult* hit = cache.find(header, hash, 0, voided);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, result);

  // A newer epoch voids the entry: key matches, epoch does not, and the
  // stamp is below the side's log floor.
  EXPECT_EQ(cache.find(header, hash, /*epoch=*/1, voided), nullptr);
  EXPECT_EQ(cache.stats().epoch_invalidations, 1u);
  // The refill refreshes the same slot under the new epoch.
  result.output_ports = {43};
  cache.store(header, hash, 1, result);
  hit = cache.find(header, hash, 1, voided);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->output_ports, std::vector<std::uint32_t>{43});

  // Fill every remaining slot with current-epoch flows, then one more: the
  // first store that would displace a live entry is declined (it only
  // leaves the flow's doorkeeper tag), the second evicts (counted).
  for (std::uint16_t vid = 2; vid <= 4; ++vid) {
    PacketHeader h;
    h.set_vlan_id(vid);
    cache.store(h, flow_key_hash(h), 1, result);
  }
  PacketHeader late;
  late.set_vlan_id(5);
  const std::uint64_t late_hash = flow_key_hash(late);
  cache.store(late, late_hash, 1, result);
  EXPECT_EQ(cache.stats().admissions_declined, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  cache.store(late, late_hash, 1, result);
  EXPECT_EQ(cache.stats().admissions_declined, 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_NE(cache.find(late, late_hash, 1, voided), nullptr);
  EXPECT_EQ(cache.stats().hits, 3u);
  EXPECT_EQ(cache.stats().misses, 2u);  // one cold + one epoch-stale
}

TEST(FlowCacheRuntime, CachedResultsBitwiseIdenticalToExecute) {
  // Property: over random rule sets (three apps, several seeds) and both
  // uniform and Zipf-skewed streams, every result the runtime returns, hit
  // or miss, equals MultiTableLookup::execute bitwise — including trace
  // fields and final_header.
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
        ParallelRuntime rt(app.accelerated.clone(),
                           {.workers = 1, .flow_cache_capacity = 128});
        std::vector<ExecutionResult> actual(stream.size());
        classify_all(rt, stream, actual);
        for (std::size_t i = 0; i < stream.size(); ++i) {
          ASSERT_EQ(actual[i], app.accelerated.execute(stream[i]))
              << name << " seed=" << seed << " s=" << s << " packet=" << i;
        }
        const auto stats = rt.aggregate_stats();
        EXPECT_EQ(stats.cache_hits + stats.cache_misses, stream.size());
        EXPECT_GT(stats.cache_hits, 0u);  // 256 flows, 1024 packets: repeats
      }
    }
  }
}

TEST(FlowCacheRuntime, ZipfHitRateFloor) {
  // The hit rate is a property of the stream and the cache geometry, not
  // of the machine: a 4096-header pool (generate_trace repeats headers:
  // 3491 distinct flows on yoza, 3303 on gozb), a Zipf s = 1.1 stream over
  // it and one worker with an 8192-slot cache must serve at least 90% of
  // the packets from the cache. A fixed packet count (cold and
  // admit-on-second-miss misses included) makes the count exact: two
  // runtimes over the same stream count the same hits.
  constexpr std::size_t kPackets = std::size_t{1} << 17;
  const struct {
    FilterApp app;
    const char* name;
  } sets[] = {{FilterApp::kRouting, "yoza"}, {FilterApp::kMacLearning, "gozb"}};
  for (const auto& [filter_app, name] : sets) {
    const auto app = make_app(filter_app, name, 4096, 123);
    const auto stream = make_stream(app, 1.1, kPackets, 99);
    std::vector<ExecutionResult> results(stream.size());
    std::uint64_t hits[2] = {};
    for (auto& run_hits : hits) {
      ParallelRuntime rt(app.accelerated.clone(),
                         {.workers = 1, .flow_cache_capacity = 8192});
      classify_all(rt, stream, results, 256);
      const auto stats = rt.aggregate_stats();
      ASSERT_EQ(stats.cache_hits + stats.cache_misses, kPackets) << name;
      run_hits = stats.cache_hits;
    }
    EXPECT_EQ(hits[0], hits[1]) << name;
    EXPECT_GE(100.0 * static_cast<double>(hits[0]) / kPackets, 90.0)
        << name << ": " << hits[0] << " hits";
  }
}

/// Publishes route_churn's FLOW_MOD batch shape: 8 /32 routes in `block`
/// (set `publish % 2`, ids from `first_id`) added to table 1 and, from the
/// second publish on, the other set's 8 deleted.
void churn_routes(MultiTableLookup& tables, std::uint32_t block,
                  FlowEntryId first_id, std::size_t publish) {
  constexpr std::uint32_t kSet = 8;
  const auto set = static_cast<std::uint32_t>(publish % 2);
  for (std::uint32_t k = 0; k < kSet; ++k) {
    FlowEntry route;
    route.id = first_id + set * kSet + k;
    route.priority = 32;
    route.instructions = output_instruction(1);
    route.match.set(FieldId::kIpv4Dst, FieldMatch::of_prefix(Prefix::from_value(
                                           block + set * kSet + k, 32, 32)));
    EXPECT_EQ(tables.apply(FlowModCommand::kAdd, 1, route), FlowModStatus::kOk);
    if (publish == 0) continue;
    const FlowEntryId gone = first_id + (1 - set) * kSet + k;
    EXPECT_EQ(tables.apply(FlowModCommand::kDelete, 1, {.id = gone}),
              FlowModStatus::kOk);
  }
}

TEST(FlowCacheRuntime, ChurnHitRateFloor) {
  // route_churn at test scale: ZipfHitRateFloor's route pool and stream
  // through one worker, with a publish of 16 never-matching /32 routes
  // after every 4th batch. Those publishes change no verdict, so a stale
  // entry revalidates unless its stamp fell below the delta log's floor,
  // which trails the newest record by at least kGenerationRecords (128
  // such publishes). After a warm-up pass, at least 97% of the packets
  // must hit, and the sampled results must still be the static pipeline's.
  constexpr std::size_t kPackets = std::size_t{1} << 17;
  constexpr std::size_t kBatch = 256;
  constexpr std::size_t kChurnEvery = 4;
  constexpr std::uint32_t kBlock = 0xC6336400;  // 198.51.100.0/24
  constexpr FlowEntryId kFirstId = FlowEntryId{1} << 30;
  const auto app = make_app(FilterApp::kRouting, "yoza", 4096, 123);
  for (const auto& header : app.pool) {
    ASSERT_NE(header.get64(FieldId::kIpv4Dst) >> 8, kBlock >> 8)
        << "the churn block must be free of pool traffic";
  }
  const auto stream = make_stream(app, 1.1, 2 * kPackets, 99);
  ParallelRuntime rt(app.accelerated.clone(),
                     {.workers = 1, .flow_cache_capacity = 8192});
  std::vector<ExecutionResult> results(kBatch);
  std::size_t publishes = 0;
  std::uint64_t hits_before = 0;
  std::uint64_t misses_before = 0;
  for (std::size_t batch = 0; batch * kBatch < stream.size(); ++batch) {
    const std::size_t base = batch * kBatch;
    if (base == kPackets) {
      const auto warm = rt.aggregate_stats();
      hits_before = warm.cache_hits;
      misses_before = warm.cache_misses;
    }
    rt.classify(0, {stream.data() + base, kBatch}, results);
    if (base >= kPackets && batch % 64 == 0) {
      for (std::size_t i = 0; i < kBatch; ++i) {
        ASSERT_EQ(results[i], app.accelerated.execute(stream[base + i]))
            << "packet " << base + i;
      }
    }
    if ((batch + 1) % kChurnEvery == 0) {
      rt.update([publish = publishes++](MultiTableLookup& tables) {
        churn_routes(tables, kBlock, kFirstId, publish);
      });
    }
  }
  const auto stats = rt.aggregate_stats();
  const auto hits = stats.cache_hits - hits_before;
  ASSERT_EQ(hits + stats.cache_misses - misses_before, kPackets);
  EXPECT_GE(100.0 * static_cast<double>(hits) / kPackets, 97.0)
      << hits << " hits after warm-up, " << publishes << " publishes";
  EXPECT_GT(stats.cache_revalidations, 0u);

  // A stamp 100 such publishes old still revalidates: 1600 records sit
  // inside the log's first generation.
  MultiTableLookup tables = app.accelerated.clone();
  const PacketHeader& key = app.pool.front();
  const ExecutionResult cached = tables.execute(key);
  for (std::size_t publish = 0; publish < 100; ++publish) {
    tables.set_log_epoch(publish + 1);
    churn_routes(tables, kBlock, kFirstId, publish);
  }
  EXPECT_TRUE(tables.still_valid(key, cached, 0));
}

TEST(FlowCacheRuntime, RevalidationsReachTheTrace) {
  // run_item emits each batch's revalidations as a counter event, next to
  // its hits: after a publish that changes nothing, a replayed stream is
  // served by revalidation, and the trace counts what the stats count.
  const auto app = make_app(FilterApp::kRouting, "yoza", 128, 31);
  const auto stream = make_stream(app, 1.1, 512, 32);
  ParallelRuntime rt(app.accelerated.clone(),
                     {.workers = 1, .flow_cache_capacity = 1024});
  std::vector<ExecutionResult> results(stream.size());
  classify_all(rt, stream, results);
  rt.update([](MultiTableLookup&) {});
  const auto before = rt.aggregate_stats();
  obs::start_tracing();
  classify_all(rt, stream, results);
  obs::stop_tracing();
  const auto dump = obs::collect_tracing();
  const auto revalidations =
      rt.aggregate_stats().cache_revalidations - before.cache_revalidations;
  std::uint64_t traced = 0;
  for (const auto& thread : dump.threads) {
    for (const auto& event : obs::decode_thread(thread)) {
      if (event.event == obs::TraceEvent::kCacheRevalidations) {
        traced += event.payload;
      }
    }
  }
  EXPECT_GT(revalidations, 0u);
  EXPECT_EQ(traced, revalidations);
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
  ASSERT_EQ(app.accelerated.apply(FlowModCommand::kAdd, 1, takeover),
            FlowModStatus::kOk);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    after_oracle[i] = app.accelerated.execute(stream[i]);
  }
  ASSERT_EQ(app.accelerated.apply(FlowModCommand::kDelete, 1, takeover),
            FlowModStatus::kOk);

  ParallelRuntime rt(app.accelerated.clone(),
                     {.workers = 1, .flow_cache_capacity = 1024});
  std::vector<ExecutionResult> results(stream.size());
  classify_all(rt, stream, results);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ASSERT_EQ(results[i], before_oracle[i]) << "pre-publish packet " << i;
  }

  // Epoch 1: every cached entry is now stale.
  ASSERT_EQ(rt.apply(FlowModCommand::kAdd, 1, takeover), FlowModStatus::kOk);
  classify_all(rt, stream, results);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ASSERT_EQ(results[i], after_oracle[i]) << "post-publish packet " << i;
  }
  EXPECT_GT(rt.aggregate_stats().cache_epoch_invalidations, 0u);

  // Epoch 2: stale again.
  ASSERT_EQ(rt.apply(FlowModCommand::kDelete, 1, takeover), FlowModStatus::kOk);
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
  ASSERT_EQ(app.accelerated.apply(FlowModCommand::kAdd, 1, takeover),
            FlowModStatus::kOk);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    with[i] = app.accelerated.execute(stream[i]);
  }
  ASSERT_EQ(app.accelerated.apply(FlowModCommand::kDelete, 1, takeover),
            FlowModStatus::kOk);

  constexpr std::size_t kWorkers = 2;
  constexpr std::size_t kToggles = 16;
  constexpr std::size_t kBatch = 64;
  static_assert(256 % kBatch == 0);
  ParallelRuntime rt(std::move(app.accelerated),
                     {.workers = kWorkers, .flow_cache_capacity = 256});

  // Set once the writer has made every toggle, accepted or not: a rejected
  // publish never reaches epoch kToggles, and must fail the test below
  // rather than hang it.
  std::atomic<bool> writer_done{false};
  std::thread writer([&rt, &takeover, &writer_done] {
    for (std::size_t toggle = 0; toggle < kToggles; ++toggle) {
      if (toggle % 2 == 0) {
        EXPECT_EQ(rt.apply(FlowModCommand::kAdd, 1, takeover),
                  FlowModStatus::kOk);
      } else {
        EXPECT_EQ(rt.apply(FlowModCommand::kDelete, 1, takeover),
                  FlowModStatus::kOk);
      }
      std::this_thread::yield();
    }
    writer_done.store(true, std::memory_order_release);
  });

  std::vector<std::vector<ExecutionResult>> results(kWorkers);
  std::vector<BatchTicket> tickets(kWorkers);
  for (auto& r : results) r.resize(kBatch);
  std::size_t mixed = 0;
  std::size_t rounds = 0;
  // Drain until the writer has finished and then 8 publish-free rounds more
  // (each window twice per queue), so the cache-hit check below holds
  // however slowly the writer's toggles interleave with the batches.
  std::size_t settled = 0;
  while (settled < 8) {
    const bool churn_done = writer_done.load(std::memory_order_acquire);
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

// --- Differential churn: flow-mods that overlap cached keys -------------
//
// A four-table pipeline small enough to aim every mod at a cached flow:
//   table 0 (in_port):  ports 1-3 write their number into metadata and go
//                       to table 1; port 3 first rewrites ipv4_dst to
//                       kRewrittenDst (Apply-Actions Set-Field); port 4
//                       misses table 0.
//   table 1 (metadata, ipv4_dst, ip_proto): routes in 10.0.0.0/14, some
//                       going on to table 2; 10.3.0.0/16 misses.
//   table 2 (ip_proto, dst_port): 80 and 53 output, 443 goes to table 3,
//                       22 misses.
//   table 3 (ipv4_src, ip_proto): 192.168.0.0/16 outputs, others miss.
constexpr std::uint32_t kRewritePort = 3;
constexpr std::uint32_t kRewrittenDst = 0x0A0A0A0A;  // 10.10.10.10
constexpr std::size_t kChurnTables = 4;

FlowEntry churn_rule(FlowEntryId id, std::uint16_t priority,
                     InstructionSet instructions) {
  FlowEntry entry;
  entry.id = id;
  entry.priority = priority;
  entry.instructions = std::move(instructions);
  return entry;
}

void match_dst(FlowEntry& entry, std::uint32_t value, unsigned length) {
  entry.match.set(FieldId::kIpv4Dst,
                  FieldMatch::of_prefix(Prefix::from_value(value, length, 32)));
}

std::vector<std::vector<FlowEntry>> churn_tables() {
  std::vector<std::vector<FlowEntry>> tables(kChurnTables);
  for (std::uint32_t port = 1; port <= 3; ++port) {
    FlowEntry entry = churn_rule(port, 10, goto_table_instruction(1));
    entry.match.set(FieldId::kInPort, FieldMatch::exact(std::uint64_t{port}));
    entry.instructions.write_metadata = MetadataWrite{port, 0xFF};
    if (port == kRewritePort) {
      entry.instructions.apply_actions.push_back(
          SetFieldAction{FieldId::kIpv4Dst, U128{kRewrittenDst}});
    }
    tables[0].push_back(entry);
  }
  const auto route = [&](FlowEntryId id, std::uint32_t dst, unsigned length,
                         InstructionSet instructions) {
    FlowEntry entry = churn_rule(id, static_cast<std::uint16_t>(length),
                                 std::move(instructions));
    match_dst(entry, dst, length);
    tables[1].push_back(entry);
  };
  route(101, 0x0A000000, 16, goto_and_write(2, {OutputAction{11}}));
  route(102, 0x0A010000, 16, output_instruction(12));
  route(103, 0x0A010100, 24, output_instruction(13));
  route(104, 0x0A020000, 24, goto_table_instruction(2));
  route(105, kRewrittenDst, 32, output_instruction(15));
  FlowEntry scoped = churn_rule(106, 30, output_instruction(16));
  match_dst(scoped, 0x0A000000, 8);
  scoped.match.set(FieldId::kMetadata, FieldMatch::exact(std::uint64_t{2}));
  tables[1].push_back(scoped);
  const auto port_rule = [&](FlowEntryId id, std::uint16_t port,
                             InstructionSet instructions) {
    FlowEntry entry = churn_rule(id, 5, std::move(instructions));
    entry.match.set(FieldId::kDstPort, FieldMatch::exact(std::uint64_t{port}));
    tables[2].push_back(entry);
  };
  port_rule(201, 80, output_instruction(21));
  port_rule(202, 443, goto_table_instruction(3));
  port_rule(203, 53, output_instruction(23));
  FlowEntry lan = churn_rule(301, 5, output_instruction(31));
  lan.match.set(FieldId::kIpv4Src,
                FieldMatch::of_prefix(Prefix::from_value(0xC0A80000, 16, 32)));
  tables[3].push_back(lan);
  return tables;
}

MultiTableLookup compile_churn_tables(
    const std::vector<std::vector<FlowEntry>>& tables) {
  const std::vector<FieldId> fields[kChurnTables] = {
      {FieldId::kInPort},
      {FieldId::kMetadata, FieldId::kIpv4Dst, FieldId::kIpProto},
      {FieldId::kIpProto, FieldId::kDstPort},
      {FieldId::kIpv4Src, FieldId::kIpProto}};
  MultiTableLookup pipeline;
  for (std::size_t t = 0; t < kChurnTables; ++t) {
    pipeline.add_table(LookupTable(fields[t], tables[t]));
  }
  return pipeline;
}

std::vector<PacketHeader> churn_pool(std::uint64_t seed) {
  workload::Rng rng(seed);
  std::vector<PacketHeader> pool;
  for (std::size_t i = 0; i < 96; ++i) {
    PacketHeader header;
    header.set_in_port(static_cast<std::uint32_t>(1 + rng.below(4)));
    header.set_ipv4_dst(Ipv4Address(10, static_cast<std::uint8_t>(rng.below(4)),
                                    static_cast<std::uint8_t>(rng.below(2)),
                                    static_cast<std::uint8_t>(1 + rng.below(4))));
    header.set_ipv4_src(Ipv4Address(rng.below(2) == 0 ? 192 : 172,
                                    rng.below(2) == 0 ? 168 : 16,
                                    static_cast<std::uint8_t>(rng.below(4)), 7));
    header.set_ip_proto(6);
    const std::uint16_t ports[] = {80, 443, 53, 22};
    header.set_dst_port(ports[rng.below(4)]);
    pool.push_back(header);
  }
  return pool;
}

/// The key `header` shows table visit `position` of its walk: only table
/// 0's port-3 entry rewrites a matched field before a later lookup.
PacketHeader key_at(const PacketHeader& header, std::size_t position) {
  PacketHeader key = header;
  if (position > 0 && header.get64(FieldId::kInPort) == kRewritePort) {
    key.set(FieldId::kIpv4Dst, std::uint64_t{kRewrittenDst});
  }
  return key;
}

/// Rule matching `key` on table `table`'s own match field, and on nothing
/// else, so it would take part in that table's lookup for `key`.
FlowEntry rule_for(std::size_t table, const PacketHeader& key, FlowEntryId id,
                   std::uint16_t priority, std::uint32_t port) {
  FlowEntry entry = churn_rule(id, priority, output_instruction(port));
  const FieldId field[kChurnTables] = {FieldId::kInPort, FieldId::kIpv4Dst,
                                       FieldId::kDstPort, FieldId::kIpv4Src};
  entry.match.set(field[table], FieldMatch::exact(key.get(field[table])));
  return entry;
}

/// Mirror of the live entries per table, for aiming mods at cached walks.
using ChurnMirror = std::vector<std::map<FlowEntryId, FlowEntry>>;

enum class ChurnMod {
  kAddAbove,      // matched table, above the matched priority
  kAddBelow,      // matched table, below the matched priority
  kAddMissed,     // the table whose miss ended the walk
  kAddUnreached,  // a table the walk never reached
  kDelete,        // the entry a walk matched
  kModify,        // the entry a walk matched, new action
  kMetadata,      // a rule scoped by the metadata table 0 wrote
  kRewritten,     // a route for the Set-Field's rewritten destination
  kOversized,     // one update() logging more records than the log keeps
};

struct ChurnStep {
  std::function<void(MultiTableLookup&)> mutate;
  std::function<void(ChurnMirror&)> mirror;
  /// How the runtime publishes it: through update(mutate) unless set, so
  /// single adds and deletes also take the runtime's own apply().
  std::function<void(ParallelRuntime&)> publish;
  bool found = false;
};

/// Builds one mod of `kind` aimed at a flow of `pool` (picked by `rng`)
/// whose current walk it overlaps; `found` is false if none qualifies.
ChurnStep aim_mod(ChurnMod kind, const MultiTableLookup& oracle,
                  const ChurnMirror& mirror,
                  const std::vector<PacketHeader>& pool, workload::Rng& rng,
                  FlowEntryId& next_id) {
  ChurnStep step;
  const auto add = [&step](std::size_t table, FlowEntry entry) {
    step.mutate = [table, entry](MultiTableLookup& tables) {
      EXPECT_EQ(tables.apply(FlowModCommand::kAdd, table, entry),
                FlowModStatus::kOk);
    };
    step.mirror = [table, entry](ChurnMirror& m) { m[table][entry.id] = entry; };
    step.publish = [table, entry](ParallelRuntime& rt) {
      EXPECT_EQ(rt.apply(FlowModCommand::kAdd, table, entry),
                FlowModStatus::kOk);
    };
    step.found = true;
  };
  if (kind == ChurnMod::kOversized) {
    // Adds and removes as many never-matching rules as the log remembers
    // records (both generations), so the update logs twice the log's
    // history: no verdict changes, but every stamp falls below the floor.
    const FlowEntryId base = next_id;
    next_id += MultiTableLookup::kDeltaLogRecords;
    step.mutate = [base](MultiTableLookup& tables) {
      for (FlowEntryId k = 0; k < MultiTableLookup::kDeltaLogRecords; ++k) {
        FlowEntry entry = churn_rule(base + k, 1, output_instruction(99));
        entry.match.set(FieldId::kIpv4Src, FieldMatch::exact(std::uint64_t{
                                               0xCB007100u + k}));
        EXPECT_EQ(tables.apply(FlowModCommand::kAdd, 3, entry),
                  FlowModStatus::kOk);
      }
      for (FlowEntryId k = 0; k < MultiTableLookup::kDeltaLogRecords; ++k) {
        EXPECT_EQ(tables.apply(FlowModCommand::kDelete, 3, {.id = base + k}),
                  FlowModStatus::kOk);
      }
    };
    step.mirror = [](ChurnMirror&) {};
    step.found = true;
    return step;
  }
  if (kind == ChurnMod::kRewritten) {
    const FlowEntryId id = next_id++;
    FlowEntry entry = churn_rule(id, 40, output_instruction(1000 + id));
    match_dst(entry, kRewrittenDst, 32);
    add(1, entry);
    return step;
  }
  const std::size_t start = rng.below(pool.size());
  for (std::size_t n = 0; n < pool.size() && !step.found; ++n) {
    const PacketHeader& header = pool[(start + n) % pool.size()];
    const ExecutionResult walk = oracle.execute(header);
    const auto& visited = walk.visited_tables;
    const auto& matched = walk.matched_entries;
    const std::size_t k = rng.below(matched.size() + 1);
    const auto port = static_cast<std::uint32_t>(1000 + next_id);
    switch (kind) {
      case ChurnMod::kAddAbove:
      case ChurnMod::kAddBelow:
      case ChurnMod::kMetadata: {
        if (k >= matched.size()) break;
        const std::size_t table = visited[k];
        const std::uint16_t priority =
            mirror[table].at(matched[k]).priority;
        if (kind == ChurnMod::kMetadata) {
          if (table != 1) break;
          FlowEntry entry = rule_for(1, key_at(header, k), next_id++,
                                     static_cast<std::uint16_t>(priority + 1),
                                     port);
          entry.match.set(FieldId::kMetadata,
                          FieldMatch::exact(header.get64(FieldId::kInPort)));
          add(1, entry);
          break;
        }
        if (kind == ChurnMod::kAddBelow && priority == 0) break;
        const auto at = static_cast<std::uint16_t>(
            kind == ChurnMod::kAddAbove ? priority + 1 : priority - 1);
        add(table, rule_for(table, key_at(header, k), next_id++, at, port));
        break;
      }
      case ChurnMod::kAddMissed:
        if (walk.verdict != Verdict::kToController) break;
        add(visited.back(), rule_for(visited.back(),
                                     key_at(header, visited.size() - 1),
                                     next_id++, 7, port));
        break;
      case ChurnMod::kAddUnreached:
        for (std::size_t table = 1; table < kChurnTables; ++table) {
          if (std::find(visited.begin(), visited.end(), table) != visited.end()) {
            continue;
          }
          add(table, rule_for(table, key_at(header, 1), next_id++, 60, port));
          break;
        }
        break;
      case ChurnMod::kDelete:
      case ChurnMod::kModify: {
        // Keep table 0's port entries, so later mods still find walks.
        if (k >= matched.size() || visited[k] == 0) break;
        const std::size_t table = visited[k];
        const FlowEntryId id = matched[k];
        if (kind == ChurnMod::kDelete) {
          step.mutate = [table, id](MultiTableLookup& tables) {
            EXPECT_EQ(tables.apply(FlowModCommand::kDelete, table, {.id = id}),
                      FlowModStatus::kOk);
          };
          step.mirror = [table, id](ChurnMirror& m) { m[table].erase(id); };
          step.publish = [table, id](ParallelRuntime& rt) {
            EXPECT_EQ(rt.apply(FlowModCommand::kDelete, table, {.id = id}),
                      FlowModStatus::kOk);
          };
        } else {
          FlowEntry entry = mirror[table].at(id);
          entry.instructions = output_instruction(port);
          step.mutate = [table, entry](MultiTableLookup& tables) {
            EXPECT_EQ(tables.apply(FlowModCommand::kModify, table, entry),
                      FlowModStatus::kOk);
          };
          step.mirror = [table, entry](ChurnMirror& m) {
            m[table][entry.id] = entry;
          };
        }
        step.found = true;
        break;
      }
      case ChurnMod::kRewritten:
      case ChurnMod::kOversized:
        break;
    }
  }
  return step;
}

constexpr ChurnMod kChurnScript[] = {
    ChurnMod::kAddUnreached, ChurnMod::kAddAbove,  ChurnMod::kAddBelow,
    ChurnMod::kAddMissed,    ChurnMod::kDelete,    ChurnMod::kAddUnreached,
    ChurnMod::kModify,       ChurnMod::kMetadata,  ChurnMod::kRewritten,
    ChurnMod::kDelete,       ChurnMod::kOversized, ChurnMod::kAddUnreached};

/// Three rounds of kChurnScript through a runtime built with `config`: each
/// mod is aimed at a flow's current walk (see ChurnMod) and published, then
/// the whole stream is classified and compared bitwise with a pipeline that
/// received the same mods and with a fresh compile of the entries they
/// leave. Returns the runtime's counters.
runtime::WorkerStats run_overlapping_churn(const runtime::RuntimeConfig& config,
                                           std::uint64_t seed) {
  const auto initial = churn_tables();
  ChurnMirror mirror(kChurnTables);
  for (std::size_t t = 0; t < kChurnTables; ++t) {
    for (const auto& entry : initial[t]) mirror[t][entry.id] = entry;
  }
  MultiTableLookup oracle = compile_churn_tables(initial);
  ParallelRuntime rt(compile_churn_tables(initial), config);
  const auto pool = churn_pool(seed);
  workload::Rng rng(seed);
  std::vector<PacketHeader> stream;
  for (std::size_t i = 0; i < 384; ++i) {
    stream.push_back(pool[rng.below(pool.size())]);
  }
  std::vector<ExecutionResult> results(stream.size());
  const auto classify_and_compare = [&](std::size_t step) {
    constexpr std::size_t kBatch = 32;
    for (std::size_t base = 0; base < stream.size(); base += kBatch) {
      rt.classify((base / kBatch) % rt.worker_count(),
                  {stream.data() + base, kBatch},
                  {results.data() + base, kBatch});
    }
    // Mod ids only grow and a modify keeps its id, so id order is
    // insertion order and the compile breaks priority ties as the live
    // tables do.
    std::vector<std::vector<FlowEntry>> entries(kChurnTables);
    for (std::size_t t = 0; t < kChurnTables; ++t) {
      for (const auto& [id, entry] : mirror[t]) entries[t].push_back(entry);
    }
    const MultiTableLookup fresh = compile_churn_tables(entries);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      ASSERT_EQ(results[i], oracle.execute(stream[i]))
          << "after mod " << step << ", packet " << i;
      ASSERT_EQ(results[i], fresh.execute(stream[i]))
          << "after mod " << step << ", packet " << i << " (fresh compile)";
    }
  };
  classify_and_compare(0);
  FlowEntryId next_id = 1000;
  std::size_t step_index = 0;
  for (std::size_t round = 0; round < 3; ++round) {
    for (const ChurnMod kind : kChurnScript) {
      ++step_index;
      const ChurnStep step = aim_mod(kind, oracle, mirror, pool, rng, next_id);
      EXPECT_TRUE(step.found) << "no cached walk for mod " << step_index;
      if (!step.found) return rt.aggregate_stats();
      step.mutate(oracle);
      step.mirror(mirror);
      if (step.publish) {
        step.publish(rt);
      } else {
        rt.update(step.mutate);
      }
      classify_and_compare(step_index);
      if (testing::Test::HasFatalFailure()) return rt.aggregate_stats();
    }
  }
  return rt.aggregate_stats();
}

TEST(FlowCacheRuntime, RevalidationMatchesExecuteUnderOverlappingChurn) {
  // The runtime must both revalidate (mods beside the walks) and invalidate
  // (mods on them); a revalidation check that let one stale walk through
  // fails the comparison.
  for (const std::size_t workers : {1u, 2u}) {
    for (const std::uint64_t seed : {3u, 41u}) {
      SCOPED_TRACE(testing::Message() << "workers=" << workers << " seed=" << seed);
      const auto stats = run_overlapping_churn(
          {.workers = workers, .flow_cache_capacity = 1024}, seed);
      if (HasFatalFailure()) return;
      EXPECT_GT(stats.cache_revalidations, 0u);
      EXPECT_GT(stats.cache_epoch_invalidations, 0u);
    }
  }
}

TEST(FlowCacheRuntime, MinimumCapacityMatchesFreshCompileUnderOverlappingChurn) {
  // One probe window for a 96-flow pool: nearly every packet misses, so
  // the pipeline walk and refill, not the cached copy, produce the results
  // the comparison checks.
  for (const std::uint64_t seed : {3u, 41u}) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    const auto stats = run_overlapping_churn(
        {.workers = 2, .flow_cache_capacity = FlowCache::kProbeWindow}, seed);
    if (HasFatalFailure()) return;
    EXPECT_GT(stats.cache_misses, 4 * stats.cache_hits);
  }
}

// --- still_valid soundness: the index against a linear walk -------------

/// One mutation as the delta log saw it, kept whole for the oracle.
struct LoggedMod {
  std::uint64_t epoch = 0;
  std::uint8_t table = 0;
  bool inserted = false;
  FlowEntryId removed = 0;
  FlowMatch match;
};

/// The revalidation argument as a linear walk, newest first, over every
/// logged mutation newer than `stamp`, testing each inserted rule on all
/// of its table's fields but metadata. It has no floor and no hashing, so
/// it says false only where the argument itself cannot prove the walk
/// unchanged.
bool linear_still_valid(const MultiTableLookup& tables,
                        const std::vector<LoggedMod>& log,
                        const PacketHeader& key, const ExecutionResult& result,
                        std::uint64_t stamp) {
  const auto& visited = result.visited_tables;
  const auto& matched = result.matched_entries;
  std::size_t rewritten_from = visited.size();
  for (std::size_t k = 0; k + 1 < visited.size(); ++k) {
    if (tables.table(visited[k]).rewrites_header()) {
      rewritten_from = k + 1;
      break;
    }
  }
  for (auto mod = log.rbegin(); mod != log.rend() && mod->epoch > stamp;
       ++mod) {
    const auto at = std::find(visited.begin(), visited.end(), mod->table);
    if (at == visited.end()) continue;
    const auto position = static_cast<std::size_t>(at - visited.begin());
    if (!mod->inserted) {
      if (position < matched.size() && matched[position] == mod->removed) {
        return false;
      }
      continue;
    }
    if (position >= rewritten_from) return false;
    bool matches = true;
    for (const FieldId id : tables.table(mod->table).fields()) {
      if (id != FieldId::kMetadata) {
        matches = matches && mod->match.get(id).matches(key.get(id));
      }
    }
    if (matches) return false;
  }
  return true;
}

/// The churn pipeline without table 0's Set-Field, so the later tables
/// look up the packet's own key until a mod makes table 2 a rewriter.
std::vector<std::vector<FlowEntry>> unrewritten_churn_tables() {
  auto tables = churn_tables();
  for (auto& entry : tables[0]) entry.instructions.apply_actions.clear();
  return tables;
}

/// Applies random mods to unrewritten_churn_tables(), many of them aimed
/// at the walks of pool keys, and logs every accepted one.
class HostileChurn {
 public:
  HostileChurn(MultiTableLookup& tables, const std::vector<PacketHeader>& pool,
               std::uint64_t seed)
      : tables_(tables), pool_(pool), rng_(seed), live_(kChurnTables) {
    const auto initial = unrewritten_churn_tables();
    for (std::size_t t = 0; t < kChurnTables; ++t) {
      for (const auto& entry : initial[t]) live_[t][entry.id] = entry;
    }
  }

  [[nodiscard]] const std::vector<LoggedMod>& log() const { return log_; }

  /// One random mod under the pipeline's current log epoch.
  void mod() {
    const PacketHeader& key = pool_[rng_.below(pool_.size())];
    const auto table = static_cast<std::size_t>(rng_.below(kChurnTables));
    const auto priority = static_cast<std::uint16_t>(rng_.below(64));
    FlowEntry entry = churn_rule(next_id_++, priority, output_instruction(7));
    switch (rng_.below(10)) {
      case 0:  // exact, on the key a table's lookup sees
        entry = rule_for(table, key, entry.id, priority, 7);
        break;
      case 1: {  // prefix of any length, destination or source
        const bool dst = rng_.below(2) == 0;
        const auto length = static_cast<unsigned>(rng_.below(33));
        const FieldId field = dst ? FieldId::kIpv4Dst : FieldId::kIpv4Src;
        entry.match.set(field, FieldMatch::of_prefix(Prefix::from_value(
                                   key.get64(field), length, 32)));
        add(dst ? 1 : 3, entry);
        return;
      }
      case 2: {  // masked: no engine takes it, so apply must reject it
        entry.match.set(FieldId::kIpv4Dst,
                        FieldMatch::masked(U128{key.get64(FieldId::kIpv4Dst)},
                                           U128{0xFF00FF00}));
        EXPECT_NE(tables_.apply(FlowModCommand::kAdd, 1, entry),
                  FlowModStatus::kOk);
        return;
      }
      case 3: {  // range on the destination port, around the key's or not
        const auto port = key.get64(FieldId::kDstPort);
        const std::uint64_t lo = rng_.below(2) == 0 ? port - rng_.below(port + 1)
                                                    : port + 1;
        entry.match.set(FieldId::kDstPort,
                        FieldMatch::of_range(lo, lo + rng_.below(600)));
        if (rng_.below(2) == 0) {
          entry.match.set(FieldId::kIpProto, FieldMatch::exact(std::uint64_t{6}));
        }
        add(2, entry);
        return;
      }
      case 4:  // all-wildcard
        add(table, entry);
        return;
      case 5:  // two fields: the lead is the more selective
        match_dst(entry, static_cast<std::uint32_t>(key.get64(FieldId::kIpv4Dst)),
                  static_cast<unsigned>(rng_.below(9)));
        entry.match.set(FieldId::kIpProto, FieldMatch::exact(std::uint64_t{6}));
        add(1, entry);
        return;
      case 6:  // a Set-Field in table 2 on a field table 3 matches
        entry.instructions = goto_table_instruction(3);
        entry.instructions.apply_actions.push_back(SetFieldAction{
            FieldId::kIpProto, U128{rng_.below(2) == 0 ? 6u : 17u}});
        entry.match.set(FieldId::kDstPort,
                        FieldMatch::exact(key.get64(FieldId::kDstPort)));
        add(2, entry);
        return;
      case 7:
      case 8: {  // delete or modify a live entry, often one a walk matched
        const ExecutionResult walk = tables_.execute(key);
        std::size_t at = table;
        FlowEntryId id = 0;
        if (!walk.matched_entries.empty() && rng_.below(2) == 0) {
          const std::size_t k = rng_.below(walk.matched_entries.size());
          at = walk.visited_tables[k];
          id = walk.matched_entries[k];
        } else if (!live_[at].empty()) {
          auto it = live_[at].begin();
          std::advance(it, rng_.below(live_[at].size()));
          id = it->first;
        }
        // Keep table 0's port entries, so walks go on past it.
        if (id == 0 || (at == 0 && id <= kRewritePort)) return;
        const FlowEntry old = live_[at].at(id);
        if (rng_.below(2) == 0) {
          ASSERT_EQ(tables_.apply(FlowModCommand::kDelete, at, {.id = id}),
                    FlowModStatus::kOk);
          live_[at].erase(id);
          log_removal(at, id);
        } else {
          FlowEntry changed = old;
          changed.instructions = output_instruction(next_id_);
          ASSERT_EQ(tables_.apply(FlowModCommand::kModify, at, changed),
                    FlowModStatus::kOk);
          live_[at][id] = changed;
          log_removal(at, id);
          log_insert(at, changed);
        }
        return;
      }
      default:  // a table the key's walk may never reach
        entry = rule_for(3, key, entry.id, priority, 7);
        add(3, entry);
        return;
    }
    add(table, entry);
  }

  /// Adds `count` never-matching rules, then deletes them: 2 * count
  /// records that push old stamps below the floor.
  void flood(std::size_t count) {
    const FlowEntryId base = next_id_;
    next_id_ += count;
    for (FlowEntryId k = 0; k < count; ++k) {
      FlowEntry entry = churn_rule(base + k, 1, output_instruction(99));
      entry.match.set(FieldId::kIpv4Src,
                      FieldMatch::exact(std::uint64_t{0xCB007100u + k}));
      add(3, entry);
    }
    for (FlowEntryId k = 0; k < count; ++k) {
      ASSERT_EQ(tables_.apply(FlowModCommand::kDelete, 3, {.id = base + k}),
                FlowModStatus::kOk);
      live_[3].erase(base + k);
      log_removal(3, base + k);
    }
  }

 private:
  void add(std::size_t table, const FlowEntry& entry) {
    ASSERT_EQ(tables_.apply(FlowModCommand::kAdd, table, entry),
              FlowModStatus::kOk);
    live_[table][entry.id] = entry;
    log_insert(table, entry);
  }
  void log_removal(std::size_t table, FlowEntryId id) {
    log_.push_back({.epoch = tables_.log_epoch(),
                    .table = static_cast<std::uint8_t>(table),
                    .removed = id});
  }
  void log_insert(std::size_t table, const FlowEntry& entry) {
    log_.push_back({.epoch = tables_.log_epoch(),
                    .table = static_cast<std::uint8_t>(table),
                    .inserted = true,
                    .match = entry.match});
  }

  MultiTableLookup& tables_;
  const std::vector<PacketHeader>& pool_;
  workload::Rng rng_;
  ChurnMirror live_;
  std::vector<LoggedMod> log_;
  FlowEntryId next_id_ = 1000;
};

TEST(FlowCacheRevalidation, IndexNeverRevalidatesWhatTheLinearWalkVoids) {
  // Random cached walks of the four-table churn pipeline against hostile
  // mods: exact, prefix, masked (rejected), range, all-wildcard and
  // two-field inserts, Set-Field rules, deletes and modifies of matched
  // entries, and floods that rotate both generations of the log several
  // times. Each walk is asked about after a third of the publishes, so
  // stamps of every age meet the floor. Wherever the index revalidates a
  // walk, the linear walk must too, and the walk must be what execute()
  // returns now.
  constexpr std::size_t kPublishes = 320;
  constexpr std::size_t kWalks = 64;
  for (const std::uint64_t seed : {5u, 77u}) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    MultiTableLookup tables = compile_churn_tables(unrewritten_churn_tables());
    const auto pool = churn_pool(seed);
    HostileChurn churn(tables, pool, seed);
    workload::Rng rng(seed + 1);
    struct Walk {
      PacketHeader key;
      ExecutionResult result;
      std::uint64_t stamp = 0;
    };
    std::vector<Walk> walks(kWalks);
    for (auto& walk : walks) {
      walk.key = pool[rng.below(pool.size())];
      walk.result = tables.execute(walk.key);
    }
    std::size_t revalidated = 0;
    std::size_t voided = 0;
    for (std::uint64_t epoch = 1; epoch <= kPublishes; ++epoch) {
      tables.set_log_epoch(epoch);
      if (epoch % 80 == 40) {
        churn.flood(MultiTableLookup::kGenerationRecords);
      } else {
        for (std::size_t n = 1 + rng.below(24); n > 0; --n) churn.mod();
      }
      if (HasFatalFailure()) return;
      for (auto& walk : walks) {
        if (rng.below(3) != 0) continue;
        if (tables.still_valid(walk.key, walk.result, walk.stamp)) {
          ++revalidated;
          ASSERT_TRUE(linear_still_valid(tables, churn.log(), walk.key,
                                         walk.result, walk.stamp))
              << "epoch " << epoch << ", stamp " << walk.stamp;
          ASSERT_EQ(tables.execute(walk.key), walk.result)
              << "epoch " << epoch << ", stamp " << walk.stamp;
          // Served and restamped, like the cache.
          walk.stamp = epoch;
        } else {
          ++voided;
          if (rng.below(8) == 0) walk.key = pool[rng.below(pool.size())];
          walk.result = tables.execute(walk.key);
          walk.stamp = epoch;
        }
      }
    }
    EXPECT_GT(churn.log().size(), 2 * MultiTableLookup::kDeltaLogRecords);
    EXPECT_GT(revalidated, kPublishes);
    EXPECT_GT(voided, kPublishes);
  }
}

TEST(FlowCacheRuntime, HitAndMissPathsAllocationFreeInSteadyState) {
  // Steady state must not allocate on any path. The paths are driven
  // deterministically so warmed buffers actually repeat:
  //   - hit path: replay a stream the cache wholly holds (no probe window
  //     overflows, so nothing is evicted or declined) — after the first
  //     pass everything hits;
  //   - miss path: publish a flow-mod that raises the delta log's floor
  //     (re-attaching the group table) before a replay — no cached entry
  //     can be revalidated, so every packet walks the pipeline and the
  //     refill refreshes its own slot in place;
  //   - revalidated-hit path: publish a no-op flow-mod (epoch bump, empty
  //     log delta) before a replay — every cached entry is stale but
  //     revalidates, and is restamped and served.
  // (Eviction-path warming is inherently history-dependent — the victim
  // rotor re-pairs flows and slots across replays — so eviction counters
  // are covered by the FlowCache unit test instead.)
  const auto app = make_app(FilterApp::kRouting, "yoza", 128, 29);
  const auto stream = make_stream(app, 1.1, 512, 30);
  ParallelRuntime rt(app.accelerated.clone(),
                     {.workers = 1, .flow_cache_capacity = 1024});
  std::vector<ExecutionResult> results(512);
  const auto replay = [&] { classify_all(rt, stream, results); };
  const auto void_cache = [&] {
    rt.update([](MultiTableLookup& tables) { tables.set_group_table(nullptr); });
  };
  const auto stale_cache = [&] {
    rt.update([](MultiTableLookup&) {});  // publishes one epoch, mutates nothing
  };
  replay();        // fill
  void_cache();
  replay();        // warm the miss/refill path end to end
  stale_cache();
  replay();        // warm the revalidated-hit path
  replay();        // warm the pure-hit path
  const std::size_t before = g_allocations.load();
  replay();        // all hits
  void_cache();
  replay();        // all epoch-invalidation misses + in-place refills
  stale_cache();
  replay();        // all revalidated hits
  replay();        // all hits again
  EXPECT_EQ(g_allocations.load(), before);
  const auto stats = rt.aggregate_stats();
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_GT(stats.cache_misses, 0u);
  EXPECT_GT(stats.cache_epoch_invalidations, 0u);
  EXPECT_GT(stats.cache_revalidations, 0u);
  EXPECT_EQ(stats.cache_evictions + stats.cache_admissions_declined, 0u);
}

}  // namespace
}  // namespace ofmtl
