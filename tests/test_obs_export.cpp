// OFTRACE1 container + Perfetto writer tests. The loader-hardening half is
// a hostile-bytes sweep: a real dump is truncated at EVERY byte boundary
// and byte-flipped at every offset, and the status-returning loader must
// classify each mutant without throwing and without allocating more than
// the real file size can back (tests/alloc_counter.hpp counts the bytes).
// The writer half pins the observability surface the
// merge workflow depends on: process/thread metadata events, the
// ring_dropped / decode_skipped counter tracks, and wall-clock alignment of
// two processes on one timeline.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/trace_event.hpp"
#include "obs/trace_ring.hpp"
#include "obs/tracer.hpp"
#include "alloc_counter.hpp"

namespace {

using namespace ofmtl::obs;

constexpr char kPath[] = "test_obs_export.tmp.oftrace";

void write_bytes(const std::string& path, const std::vector<unsigned char>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
  ASSERT_TRUE(out.flush());
}

std::vector<unsigned char> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void append_u64(std::vector<unsigned char>& out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<unsigned char>(value >> (8 * i)));
  }
}

/// A realistic dump: two threads, anchor pairs, nested slices, counters.
TraceDump make_dump() {
  TraceDump dump;
  dump.pid = 4242;
  dump.process_name = "unit_proc";
  ThreadTrace worker;
  worker.name = "worker0";
  worker.tid = 1;
  worker.dropped = 7;
  worker.records = {
      {static_cast<std::uint16_t>(TraceEvent::kTimeSync), 0, 0, 1'000'000},
      {static_cast<std::uint16_t>(TraceEvent::kWallClockSync), 0, 0,
       5'000'000},
      {static_cast<std::uint16_t>(TraceEvent::kBatchBegin), 0, 100, 256},
      {static_cast<std::uint16_t>(TraceEvent::kStageBegin), 1, 50, 0},
      {static_cast<std::uint16_t>(TraceEvent::kStageEnd), 1, 200, 0},
      {static_cast<std::uint16_t>(TraceEvent::kBatchEnd), 0, 400, 256},
      {static_cast<std::uint16_t>(TraceEvent::kCacheHits), 0, 10, 3},
      {static_cast<std::uint16_t>(TraceEvent::kCacheRevalidations), 0, 0, 2},
  };
  ThreadTrace writer;
  writer.name = "writer";
  writer.tid = 2;
  writer.records = {
      {static_cast<std::uint16_t>(TraceEvent::kTimeSync), 0, 0, 2'000'000},
      {static_cast<std::uint16_t>(TraceEvent::kPublishBegin), 0, 10, 5},
      {static_cast<std::uint16_t>(TraceEvent::kPublishEnd), 0, 90, 5},
  };
  dump.threads.push_back(std::move(worker));
  dump.threads.push_back(std::move(writer));
  return dump;
}

TEST(TraceContainerTest, ExtendedHeaderRoundTripsProcessIdentity) {
  const TraceDump dump = make_dump();
  save_trace_dump(kPath, dump);
  TraceDump loaded;
  ASSERT_EQ(load_trace_dump(kPath, loaded), TraceLoadStatus::kOk);
  EXPECT_EQ(loaded.pid, 4242u);
  EXPECT_EQ(loaded.process_name, "unit_proc");
  ASSERT_EQ(loaded.threads.size(), 2u);
  EXPECT_EQ(loaded.threads[0].name, "worker0");
  EXPECT_EQ(loaded.threads[0].dropped, 7u);
  ASSERT_EQ(loaded.threads[0].records.size(), dump.threads[0].records.size());
  for (std::size_t i = 0; i < dump.threads[0].records.size(); ++i) {
    EXPECT_EQ(loaded.threads[0].records[i].event,
              dump.threads[0].records[i].event);
    EXPECT_EQ(loaded.threads[0].records[i].payload,
              dump.threads[0].records[i].payload);
  }
  std::remove(kPath);
}

TEST(TraceContainerTest, LegacyLayoutWithoutProcessHeaderStillLoads) {
  // Pre-identity files put the thread count directly after the magic.
  std::vector<unsigned char> bytes;
  const char magic[] = "OFTRACE1";
  bytes.insert(bytes.end(), magic, magic + 8);
  append_u64(bytes, 1);  // thread count (legacy position)
  append_u64(bytes, 4);  // name length
  bytes.insert(bytes.end(), {'m', 'a', 'i', 'n'});
  append_u64(bytes, 9);  // tid
  append_u64(bytes, 3);  // dropped
  append_u64(bytes, 1);  // record count
  const TraceRecord record{
      static_cast<std::uint16_t>(TraceEvent::kTimeSync), 0, 0, 77};
  append_u64(bytes, pack_lo(record));
  append_u64(bytes, pack_hi(record));
  write_bytes(kPath, bytes);

  TraceDump loaded;
  ASSERT_EQ(load_trace_dump(kPath, loaded), TraceLoadStatus::kOk);
  EXPECT_EQ(loaded.pid, 0u);  // unknown in the legacy layout
  EXPECT_TRUE(loaded.process_name.empty());
  ASSERT_EQ(loaded.threads.size(), 1u);
  EXPECT_EQ(loaded.threads[0].name, "main");
  EXPECT_EQ(loaded.threads[0].tid, 9u);
  EXPECT_EQ(loaded.threads[0].dropped, 3u);
  ASSERT_EQ(loaded.threads[0].records.size(), 1u);
  EXPECT_EQ(loaded.threads[0].records[0].payload, 77u);
  std::remove(kPath);
}

TEST(TraceContainerTest, TruncationAtEveryCutPointReturnsStatus) {
  save_trace_dump(kPath, make_dump());
  const std::vector<unsigned char> full = read_bytes(kPath);
  ASSERT_GT(full.size(), 16u);
  // Every strict prefix must be rejected with a classified status — the
  // dump has content, so no cut point can look complete. Nothing throws.
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    write_bytes(kPath, {full.begin(), full.begin() + cut});
    TraceDump out;
    TraceLoadStatus status = TraceLoadStatus::kOk;
    ASSERT_NO_THROW(status = load_trace_dump(kPath, out)) << "cut=" << cut;
    EXPECT_NE(status, TraceLoadStatus::kOk) << "cut=" << cut;
    EXPECT_TRUE(status == TraceLoadStatus::kBadMagic ||
                status == TraceLoadStatus::kTruncated ||
                status == TraceLoadStatus::kCorruptHeader)
        << "cut=" << cut << " status=" << trace_load_status_name(status);
  }
  std::remove(kPath);
}

TEST(TraceContainerTest, ByteFlipSweepNeverThrowsOrOverAllocates) {
  save_trace_dump(kPath, make_dump());
  const std::vector<unsigned char> full = read_bytes(kPath);
  // Flip every byte to the two most hostile values (all-ones inflates every
  // length/count field it lands in; zero truncates them). Any status is
  // legal — including kOk when the flip hits a payload byte — but the
  // loader must neither throw nor allocate beyond what the real file size
  // can back.
  for (const unsigned char flip : {0xFFu, 0x00u}) {
    for (std::size_t at = 0; at < full.size(); ++at) {
      std::vector<unsigned char> mutant = full;
      if (mutant[at] == flip) continue;
      mutant[at] = flip;
      write_bytes(kPath, mutant);
      TraceDump out;
      const std::size_t before =
          g_allocated_bytes.load(std::memory_order_relaxed);
      ASSERT_NO_THROW((void)load_trace_dump(kPath, out))
          << "at=" << at << " flip=" << static_cast<int>(flip);
      const std::size_t allocated =
          g_allocated_bytes.load(std::memory_order_relaxed) - before;
      // Bound: the file image + the decoded records/strings (≤ image size
      // again) + vector growth and stream slack. A loader that trusted a
      // hostile count would blow through this by orders of magnitude.
      EXPECT_LT(allocated, 4 * full.size() + 65536)
          << "at=" << at << " flip=" << static_cast<int>(flip);
    }
  }
  std::remove(kPath);
}

TEST(TraceContainerTest, HostileCountsAreRejectedCheaply) {
  // Thread count over the sanity cap.
  std::vector<unsigned char> bytes;
  const char magic[] = "OFTRACE1";
  bytes.insert(bytes.end(), magic, magic + 8);
  append_u64(bytes, (std::uint64_t{1} << 16) + 1);
  write_bytes(kPath, bytes);
  TraceDump out;
  EXPECT_EQ(load_trace_dump(kPath, out), TraceLoadStatus::kCorruptHeader);

  // Record count no file of this size can back: rejected BEFORE reserve.
  bytes.clear();
  bytes.insert(bytes.end(), magic, magic + 8);
  append_u64(bytes, 1);  // one thread (legacy layout)
  append_u64(bytes, 2);  // name length
  bytes.insert(bytes.end(), {'h', 'i'});
  append_u64(bytes, 1);      // tid
  append_u64(bytes, 0);      // dropped
  append_u64(bytes, ~0ull);  // record count: 2^64-1
  write_bytes(kPath, bytes);
  const std::size_t before = g_allocated_bytes.load(std::memory_order_relaxed);
  EXPECT_EQ(load_trace_dump(kPath, out), TraceLoadStatus::kTruncated);
  EXPECT_LT(g_allocated_bytes.load(std::memory_order_relaxed) - before,
            std::size_t{65536});

  // Name length over the cap, but with enough trailing bytes to back it:
  // still rejected by the sanity cap, not by truncation.
  bytes.clear();
  bytes.insert(bytes.end(), magic, magic + 8);
  append_u64(bytes, 1);
  append_u64(bytes, (std::uint64_t{1} << 12) + 1);
  bytes.resize(bytes.size() + (std::size_t{1} << 12) + 64, 'x');
  write_bytes(kPath, bytes);
  EXPECT_EQ(load_trace_dump(kPath, out), TraceLoadStatus::kCorruptHeader);

  EXPECT_EQ(load_trace_dump("no_such_file.oftrace", out),
            TraceLoadStatus::kIoError);
  std::remove(kPath);
}

TEST(PerfettoWriterTest, EmitsProcessAndThreadMetadataAndCounterTracks) {
  std::ostringstream out;
  write_perfetto_json(out, make_dump());
  const std::string json = out.str();
  EXPECT_NE(json.find(R"("ph":"M","name":"process_name","pid":4242)"),
            std::string::npos);
  EXPECT_NE(json.find("unit_proc"), std::string::npos);
  EXPECT_NE(json.find(R"("name":"thread_name")"), std::string::npos);
  EXPECT_NE(json.find("worker0"), std::string::npos);
  // Overwrite-loss counter tracks: dropped=7 on worker0, 0 on writer.
  EXPECT_NE(json.find(R"("name":"ring_dropped")"), std::string::npos);
  EXPECT_NE(json.find(R"("args":{"value":7})"), std::string::npos);
  EXPECT_NE(json.find(R"("name":"decode_skipped")"), std::string::npos);
  // Batch counters render as counter tracks, revalidations beside hits.
  EXPECT_NE(json.find(R"({"ph":"C","name":"cache_hits")"), std::string::npos);
  EXPECT_NE(json.find(R"({"ph":"C","name":"cache_revalidations")"),
            std::string::npos);
  // The nested slices paired: batch contains stage_walk.
  EXPECT_NE(json.find(R"("ph":"X","name":"batch")"), std::string::npos);
  EXPECT_NE(json.find(R"("ph":"X","name":"stage_walk")"), std::string::npos);
}

TEST(PerfettoWriterTest, DecodeCountsSkippedPrefixBeforeFirstAnchor) {
  ThreadTrace thread;
  thread.name = "latecomer";
  thread.records = {
      {static_cast<std::uint16_t>(TraceEvent::kBatchBegin), 0, 5, 1},
      {static_cast<std::uint16_t>(TraceEvent::kBatchEnd), 0, 5, 1},
      {static_cast<std::uint16_t>(TraceEvent::kTimeSync), 0, 0, 500},
      {static_cast<std::uint16_t>(TraceEvent::kBatchBegin), 0, 10, 1},
      {static_cast<std::uint16_t>(TraceEvent::kBatchEnd), 0, 30, 1},
  };
  DecodeStats stats;
  const auto events = decode_thread(thread, &stats);
  EXPECT_EQ(stats.skipped_prefix, 2u);  // the pre-anchor pair is undecodable
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].ts_ns, 510u);
  EXPECT_EQ(events[1].ts_ns, 540u);
}

TEST(PerfettoWriterTest, MergeShiftsProcessesByWallClockOffsets) {
  // Two processes whose monotonic clocks disagree but whose wall clocks
  // pin real time: A's anchor says wall-mono = 4 ms, B's says 8 ms, so B's
  // events must land 4 ms later than equal monotonic stamps in A.
  const auto make_process = [](std::uint64_t mono_base, std::uint64_t wall,
                               const char* name, std::uint64_t pid) {
    TraceDump dump;
    dump.pid = pid;
    dump.process_name = name;
    ThreadTrace thread;
    thread.name = "loop";
    thread.tid = 1;
    thread.records = {
        {static_cast<std::uint16_t>(TraceEvent::kTimeSync), 0, 0, mono_base},
        {static_cast<std::uint16_t>(TraceEvent::kWallClockSync), 0, 0, wall},
        {static_cast<std::uint16_t>(TraceEvent::kBatchBegin), 0, 1'000'000,
         1},
        {static_cast<std::uint16_t>(TraceEvent::kBatchEnd), 0, 1'000'000, 1},
    };
    dump.threads.push_back(std::move(thread));
    return dump;
  };
  // A: mono 1ms, wall 5ms → offset 4ms. B: mono 1ms, wall 9ms → offset 8ms.
  const std::vector<TraceDump> dumps = {
      make_process(1'000'000, 5'000'000, "ctrl", 11),
      make_process(1'000'000, 9'000'000, "switch", 22),
  };
  std::ostringstream out;
  write_perfetto_json(out, dumps);
  const std::string json = out.str();
  EXPECT_NE(json.find(R"("pid":11)"), std::string::npos);
  EXPECT_NE(json.find(R"("pid":22)"), std::string::npos);
  // A's batch begins at mono 2 ms, unshifted (it has the smaller offset);
  // B's begins at mono 2 ms + (8−4) ms = 6 ms. Timestamps render in us.
  EXPECT_NE(json.find(R"("ph":"X","name":"batch","pid":11,"tid":1,"ts":2000.000)"),
            std::string::npos);
  EXPECT_NE(json.find(R"("ph":"X","name":"batch","pid":22,"tid":1,"ts":6000.000)"),
            std::string::npos);
}

TEST(PerfettoWriterTest, MergeWithoutWallAnchorsRendersUnshifted) {
  TraceDump plain;
  plain.pid = 33;
  plain.process_name = "legacy";
  ThreadTrace thread;
  thread.tid = 1;
  thread.name = "t";
  thread.records = {
      {static_cast<std::uint16_t>(TraceEvent::kTimeSync), 0, 0, 1'000'000},
      {static_cast<std::uint16_t>(TraceEvent::kBatchBegin), 0, 500, 1},
      {static_cast<std::uint16_t>(TraceEvent::kBatchEnd), 0, 500, 1},
  };
  plain.threads.push_back(thread);
  std::ostringstream out;
  write_perfetto_json(out, std::vector<TraceDump>{plain, plain});
  const std::string json = out.str();
  // Both copies at the same (unshifted) timestamp: no offset invented.
  EXPECT_NE(json.find(R"("ts":1000.500)"), std::string::npos);
  EXPECT_EQ(json.find(R"("ts":2000)"), std::string::npos);
}

TEST(SliceLatencyTest, FoldsPerSlicePerUnitOrEveryUnit) {
  // make_dump's worker batch: 256 packets in one 650 ns slice.
  const TraceDump dump = make_dump();
  const auto fold = [&dump](SliceFold how) {
    return slice_latency_histogram(dump, TraceEvent::kBatchBegin, how);
  };
  const LogHistogram whole = fold(SliceFold::kPerSlice);
  const LogHistogram per_unit = fold(SliceFold::kPerUnit);
  const LogHistogram every_unit = fold(SliceFold::kEveryUnit);
  EXPECT_EQ(whole.total(), 1u);
  EXPECT_EQ(whole.quantile(0.5),
            LogHistogram::bucket_upper(LogHistogram::bucket_index(650)));
  EXPECT_EQ(per_unit.total(), 1u);
  EXPECT_EQ(per_unit.quantile(0.5), 650u / 256u);
  EXPECT_EQ(every_unit.total(), 256u);
  EXPECT_EQ(every_unit.quantile(0.01), 650u / 256u);
  EXPECT_EQ(every_unit.quantile(0.99), 650u / 256u);
}

TEST(RingGapTest, LappedSliceReadsItsTrueLengthOrIsAbsent) {
  // One begin, 30 events 1 ms apart, the end, then m more events, drained
  // after the begin and at the end into one decoder and pairer, as the
  // flight recorder feeds them. A 16-slot ring laps in between: the slice
  // must read its true >= 31 ms or be absent (carried across the lost
  // records, it read 1-10 ms for m = 5-11). A 1024-slot ring keeps it, and
  // after a lap the stream pairs again from the next anchor on.
  constexpr std::uint64_t kTrueNs = 31'000'000;  // 31 sleeps of >= 1 ms
  for (const std::size_t capacity : {std::size_t{16}, std::size_t{1024}}) {
    for (int m = 0; m <= 11; ++m) {
      TraceRing ring(capacity);
      ThreadDecoder decoder;
      SlicePairer pairer;
      std::vector<Slice> slices;
      std::uint64_t gap_lost = 0;
      const auto feed = [&] {
        std::vector<TraceRecord> chunk;
        (void)ring.drain(chunk);
        for (const auto& record : chunk) {
          const auto event = decoder.decode(record);
          if (!event) continue;
          if (event->event == TraceEvent::kRingGap) gap_lost += event->payload;
          if (const auto slice = pairer.pair(*event)) slices.push_back(*slice);
        }
      };
      const auto tick = [&ring](TraceEvent event) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ring.emit(event, 0, 1);
      };

      ring.emit(TraceEvent::kBatchBegin, 0, 1);
      feed();
      for (int i = 0; i < 30; ++i) tick(TraceEvent::kStealAttempt);
      tick(TraceEvent::kBatchEnd);
      for (int i = 0; i < m; ++i) tick(TraceEvent::kStealAttempt);
      feed();
      EXPECT_EQ(gap_lost, ring.dropped()) << "m=" << m;
      EXPECT_EQ(ring.dropped() > 0, capacity == 16) << "m=" << m;
      ASSERT_EQ(slices.size(), capacity == 16 ? 0u : 1u) << "m=" << m;
      if (!slices.empty()) EXPECT_GE(slices[0].duration_ns(), kTrueNs);

      // A slice wholly after the gap pairs: eight events guarantee the
      // 16-slot ring an anchor (its cadence is capacity / 2) before it.
      for (int i = 0; i < 8; ++i) ring.emit(TraceEvent::kStealAttempt, 0, 1);
      ring.emit(TraceEvent::kPublishBegin, 0, 1);
      tick(TraceEvent::kPublishEnd);
      feed();
      ASSERT_FALSE(slices.empty()) << "m=" << m;
      EXPECT_EQ(slices.back().begin.event, TraceEvent::kPublishBegin);
      EXPECT_GE(slices.back().duration_ns(), 1'000'000u) << "m=" << m;
    }
  }
}

}  // namespace
