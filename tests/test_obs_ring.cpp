// Trace-ring unit tests: record pack/unpack bijection over the whole event
// vocabulary, overwrite-oldest semantics at every wrap offset, exactly-once
// concurrent drain (the seqlock contract — run under TSan in CI), and the
// allocation-free guarantee of the emit path.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "obs/trace_event.hpp"
#include "obs/trace_ring.hpp"
#include "obs/tracer.hpp"
#include "alloc_counter.hpp"

namespace {

using namespace ofmtl::obs;

TEST(TraceRecordTest, PackUnpackBijectiveForEveryEventType) {
  for (std::uint16_t event = 0;
       event < static_cast<std::uint16_t>(TraceEvent::kEventCount); ++event) {
    // Patterned fields exercise every byte of both packed words.
    const TraceRecord original{
        event, static_cast<std::uint16_t>(0xA100u | event),
        0xDEADBEEFu ^ (static_cast<std::uint32_t>(event) << 20),
        0x0123456789ABCDEFull + event};
    const TraceRecord round =
        unpack_record(pack_lo(original), pack_hi(original));
    EXPECT_EQ(round.event, original.event);
    EXPECT_EQ(round.arg, original.arg);
    EXPECT_EQ(round.ts_delta, original.ts_delta);
    EXPECT_EQ(round.payload, original.payload);
  }
}

TEST(TraceRecordTest, ExtremeFieldValuesSurvive) {
  const TraceRecord maxed{0xFFFF, 0xFFFF, 0xFFFFFFFFu, ~0ull};
  const TraceRecord round = unpack_record(pack_lo(maxed), pack_hi(maxed));
  EXPECT_EQ(round.event, maxed.event);
  EXPECT_EQ(round.arg, maxed.arg);
  EXPECT_EQ(round.ts_delta, maxed.ts_delta);
  EXPECT_EQ(round.payload, maxed.payload);
  const TraceRecord zero{};
  const TraceRecord round_zero = unpack_record(pack_lo(zero), pack_hi(zero));
  EXPECT_EQ(round_zero.event, 0);
  EXPECT_EQ(round_zero.payload, 0u);
}

TEST(TraceRecordTest, EveryEventHasNameAndBeginEndPairing) {
  for (std::uint16_t raw = 0;
       raw < static_cast<std::uint16_t>(TraceEvent::kEventCount); ++raw) {
    const auto event = static_cast<TraceEvent>(raw);
    // Ids of removed events stay unused so old dumps still decode.
    if ((raw >= 12 && raw <= 15) || raw == 18) {
      EXPECT_STREQ(trace_event_name(event), "unknown") << raw;
      continue;
    }
    EXPECT_STRNE(trace_event_name(event), "unknown");
    if (trace_event_kind(event) == TraceEventKind::kBegin) {
      // The matching end is the next enumerator and shares the slice name —
      // the pairing rule the exporter's per-name stacks rely on.
      const auto end = static_cast<TraceEvent>(raw + 1);
      EXPECT_EQ(trace_event_kind(end), TraceEventKind::kEnd);
      EXPECT_STREQ(trace_event_name(event), trace_event_name(end));
    }
  }
}

TEST(TraceRecordTest, FlowCacheCountersKeepTheirIds) {
  // Dumps store raw ids, so the batch counters run_item emits keep theirs.
  const struct {
    TraceEvent event;
    std::uint16_t id;
    const char* name;
  } counters[] = {
      {TraceEvent::kCacheHits, 9, "cache_hits"},
      {TraceEvent::kCacheMisses, 10, "cache_misses"},
      {TraceEvent::kCacheEpochInvalidations, 11, "cache_epoch_inval"},
      {TraceEvent::kCacheRevalidations, 30, "cache_revalidations"},
  };
  for (const auto& [event, id, name] : counters) {
    EXPECT_EQ(static_cast<std::uint16_t>(event), id) << name;
    EXPECT_STREQ(trace_event_name(event), name);
    EXPECT_EQ(trace_event_kind(event), TraceEventKind::kCounter) << name;
  }
}

TEST(TraceRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TraceRing(1).capacity(), 4u);
  EXPECT_EQ(TraceRing(4).capacity(), 4u);
  EXPECT_EQ(TraceRing(5).capacity(), 8u);
  EXPECT_EQ(TraceRing(1000).capacity(), 1024u);
}

TEST(TraceRingTest, DrainReturnsRecordsInEmitOrder) {
  TraceRing ring(16);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ring.push(TraceRecord{1, 2, 3, i});
  }
  std::vector<TraceRecord> out;
  EXPECT_EQ(ring.drain(out), 10u);
  ASSERT_EQ(out.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(out[i].payload, i);
  EXPECT_EQ(ring.dropped(), 0u);
  // A second drain starts at the cursor: nothing new, nothing duplicated.
  EXPECT_EQ(ring.drain(out), 0u);
  EXPECT_EQ(out.size(), 10u);
}

TEST(TraceRingTest, OverwriteOldestAtEveryWrapOffset) {
  constexpr std::uint64_t kCapacity = 8;
  // Sweep every total from "empty" through three full laps: at every wrap
  // offset the drain must return exactly the newest min(total, capacity)
  // records, in order, count the rest as dropped, and mark the loss with
  // one leading kRingGap record.
  constexpr auto kGap = static_cast<std::uint16_t>(TraceEvent::kRingGap);
  for (std::uint64_t total = 1; total <= 3 * kCapacity; ++total) {
    TraceRing ring(kCapacity);
    ASSERT_EQ(ring.capacity(), kCapacity);
    for (std::uint64_t i = 0; i < total; ++i) {
      ring.push(TraceRecord{7, 0, 0, i});
    }
    std::vector<TraceRecord> out;
    const std::uint64_t expect_kept = total < kCapacity ? total : kCapacity;
    const std::uint64_t expect_dropped = total - expect_kept;
    const std::uint64_t gaps = expect_dropped > 0 ? 1 : 0;
    EXPECT_EQ(ring.drain(out), gaps + expect_kept) << "total=" << total;
    ASSERT_EQ(out.size(), gaps + expect_kept);
    if (gaps > 0) {
      EXPECT_EQ(out[0].event, kGap) << "total=" << total;
      EXPECT_EQ(out[0].payload, expect_dropped) << "total=" << total;
    }
    for (std::uint64_t i = 0; i < expect_kept; ++i) {
      EXPECT_EQ(out[gaps + i].event, 7) << "total=" << total;
      EXPECT_EQ(out[gaps + i].payload, expect_dropped + i)
          << "total=" << total;
    }
    EXPECT_EQ(ring.dropped(), expect_dropped) << "total=" << total;
    EXPECT_EQ(ring.emitted(), total);
  }
}

TEST(TraceRingTest, EmitInterleavesDecodableTimeSyncAnchors) {
  TraceRing ring(1 << 12);
  for (int i = 0; i < 100; ++i) {
    ring.emit(TraceEvent::kBatchBegin, 0, static_cast<std::uint64_t>(i));
  }
  std::vector<TraceRecord> out;
  ring.drain(out);
  // First record must be an anchor (head == 0 forces one), and the deltas
  // must reconstruct a non-decreasing timeline.
  ASSERT_GE(out.size(), 101u);
  ASSERT_EQ(out[0].event, static_cast<std::uint16_t>(TraceEvent::kTimeSync));
  std::uint64_t ts = out[0].payload;
  EXPECT_GT(ts, 0u);
  std::uint64_t last = ts;
  for (std::size_t i = 1; i < out.size(); ++i) {
    if (out[i].event == static_cast<std::uint16_t>(TraceEvent::kTimeSync)) {
      ts = out[i].payload;
    } else {
      ts += out[i].ts_delta;
    }
    EXPECT_GE(ts, last);
    last = ts;
  }
}

TEST(TraceRingTest, ConcurrentProduceDrainIsExactlyOnce) {
  // The seqlock contract under a live producer: every record is either
  // drained exactly once (in order) or counted dropped — never duplicated,
  // never torn. TSan runs this in CI (.github/workflows/ci.yml tsan job).
  constexpr std::uint64_t kTotal = 100000;
  TraceRing ring(1024);
  std::atomic<bool> done{false};
  std::vector<TraceRecord> drained;
  std::thread consumer([&] {
    std::vector<TraceRecord> chunk;
    while (!done.load(std::memory_order_acquire)) {
      chunk.clear();
      ring.drain(chunk);
      drained.insert(drained.end(), chunk.begin(), chunk.end());
    }
    chunk.clear();
    ring.drain(chunk);  // final sweep after the producer finished
    drained.insert(drained.end(), chunk.begin(), chunk.end());
  });
  for (std::uint64_t i = 0; i < kTotal; ++i) {
    ring.push(TraceRecord{1, 2, 3, i});
  }
  done.store(true, std::memory_order_release);
  consumer.join();

  // Exactly once: sequenced payloads come out strictly increasing (no
  // duplicate, no reorder, no torn word — a torn read would produce a
  // payload outside the sequence), kept + dropped covers the total, and
  // the kRingGap records account for every dropped one.
  std::uint64_t prev = 0, kept = 0, gap_lost = 0;
  bool first = true;
  for (const auto& record : drained) {
    if (record.event == static_cast<std::uint16_t>(TraceEvent::kRingGap)) {
      gap_lost += record.payload;
      continue;
    }
    ASSERT_LT(record.payload, kTotal);
    if (!first) ASSERT_GT(record.payload, prev);
    prev = record.payload;
    first = false;
    ++kept;
  }
  EXPECT_EQ(kept + ring.dropped(), kTotal);
  EXPECT_EQ(gap_lost, ring.dropped());
  // The last record is never overwritable once the producer stopped.
  ASSERT_FALSE(drained.empty());
  EXPECT_EQ(drained.back().payload, kTotal - 1);
}

TEST(TraceRingTest, PushAndEmitAreAllocationFree) {
  TraceRing ring(256);  // construction allocates the slots — outside the window
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < 10000; ++i) {
    ring.emit(TraceEvent::kBatchBegin, 1, i);
    ring.push(TraceRecord{1, 2, 3, i});
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
}

TEST(TracerTest, EmitIsAllocationFreeAfterThreadRegistration) {
  start_tracing(TraceOptions{.ring_capacity = 1 << 12});
  // First emit registers this thread's ring: mutex + allocations, by design.
  emit(TraceEvent::kBatchBegin, 0, 0);
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < 10000; ++i) {
    emit(TraceEvent::kBatchBegin, 0, i);
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
  stop_tracing();
  const auto dump = collect_tracing();
  ASSERT_EQ(dump.threads.size(), 1u);
  EXPECT_GT(dump.threads[0].records.size(), 0u);
}

TEST(TracerTest, EmitIsDroppedWhenStoppedAndSessionsAreIsolated) {
  stop_tracing();
  emit(TraceEvent::kBatchBegin, 0, 42);  // no session: must not crash
  start_tracing(TraceOptions{.ring_capacity = 256});
  emit(TraceEvent::kStealSuccess, 3, 7);
  stop_tracing();
  emit(TraceEvent::kBatchBegin, 0, 43);  // after stop: dropped
  const auto dump = collect_tracing();
  ASSERT_EQ(dump.threads.size(), 1u);
  std::uint64_t steal_records = 0;
  for (const auto& record : dump.threads[0].records) {
    EXPECT_NE(record.event,
              static_cast<std::uint16_t>(TraceEvent::kBatchBegin));
    if (record.event == static_cast<std::uint16_t>(TraceEvent::kStealSuccess)) {
      ++steal_records;
      EXPECT_EQ(record.arg, 3u);
      EXPECT_EQ(record.payload, 7u);
    }
  }
  EXPECT_EQ(steal_records, 1u);
  // A new session starts from empty rings.
  start_tracing(TraceOptions{.ring_capacity = 256});
  const auto empty = collect_tracing();
  for (const auto& thread : empty.threads) {
    EXPECT_TRUE(thread.records.empty());
  }
  stop_tracing();
}

TEST(TracerTest, ThreadNamesStickAcrossRegistration) {
  set_thread_name("probe_thread");
  start_tracing(TraceOptions{.ring_capacity = 256});
  emit(TraceEvent::kBatchBegin, 0, 1);
  stop_tracing();
  const auto dump = collect_tracing();
  ASSERT_EQ(dump.threads.size(), 1u);
  EXPECT_EQ(dump.threads[0].name, "probe_thread");
}

}  // namespace
