// The trace I/O loop end to end: the batched wire parse must be
// bitwise-identical to scalar parse_packet (shared core, but the property
// is what CI relies on) and allocation-free once its scratch is warm
// (counted by tests/alloc_counter.hpp); exported captures must parse back
// to exactly canonical_wire_header() of every synthetic lane; parse_capture
// must count and drop malformed frames; and a capture replayed through
// ParallelRuntime's submit/ticket API must classify bitwise-identically to
// the sequential pipeline — across two apps, at the minimum and a larger
// flow-cache size, with tracing on or off.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/builder.hpp"
#include "net/packet.hpp"
#include "obs/export.hpp"
#include "obs/tracer.hpp"
#include "runtime/runtime.hpp"
#include "trace/pcap.hpp"
#include "trace/wire_parse.hpp"
#include "workload/stanford_synth.hpp"
#include "workload/trace_export.hpp"
#include "workload/trace_gen.hpp"
#include "workload/zipf.hpp"
#include "alloc_counter.hpp"

namespace ofmtl {
namespace {

using runtime::ParallelRuntime;
using workload::FilterApp;

struct App {
  std::string tag;
  FilterSet set;
  MultiTableLookup tables;
  std::uint32_t in_port = 0;
};

App make_app(FilterApp app, const char* name) {
  auto set = workload::generate_filterset(app, name);
  auto tables = compile_app(build_app(set, TableLayout::kPerFieldTables));
  const auto port = workload::capture_in_port(set);
  return App{std::string(to_string(app)) + "_" + name, std::move(set),
             std::move(tables), port};
}

std::vector<PacketHeader> make_stream(const App& app, std::size_t flows,
                                      std::size_t packets, std::uint64_t seed) {
  const auto pool = workload::generate_trace(
      app.set, {.packets = flows, .hit_ratio = 0.9, .seed = seed});
  workload::ZipfSampler sampler(pool.size(), 1.1, seed + 1);
  std::vector<PacketHeader> stream;
  stream.reserve(packets);
  for (std::size_t i = 0; i < packets; ++i) {
    stream.push_back(pool[sampler.next()]);
  }
  return stream;
}

std::vector<trace::WireFrame> wire_frames(
    const std::vector<trace::PcapRecord>& records) {
  std::vector<trace::WireFrame> frames;
  frames.reserve(records.size());
  for (const auto& record : records) {
    frames.emplace_back(record.bytes, record.orig_len);
  }
  return frames;
}

/// Submit `headers` to queue 0 of `rt` in `batch`-sized slices, `loops`
/// passes on one ticket, waiting before the next pass rewrites `results`.
void replay(ParallelRuntime& rt, const std::vector<PacketHeader>& headers,
            std::vector<ExecutionResult>& results, std::size_t batch,
            std::size_t loops = 1) {
  runtime::BatchTicket ticket;
  for (std::size_t pass = 0; pass < loops; ++pass) {
    for (std::size_t base = 0; base < headers.size(); base += batch) {
      const std::size_t n = std::min(batch, headers.size() - base);
      (void)rt.submit(0, {headers.data() + base, n},
                      {results.data() + base, n}, &ticket);
    }
    ticket.wait();
  }
  ASSERT_FALSE(ticket.failed());
}

TEST(WireParseBatch, BitwiseIdenticalToScalarWithBadLanesFlagged) {
  const auto app = make_app(FilterApp::kRouting, "yoza");
  const auto stream = make_stream(app, 128, 512, 3);
  const auto writer = workload::export_trace(stream);
  trace::PcapReader reader{std::span<const std::uint8_t>(writer.buffer())};
  const auto records = reader.read_all();
  auto frames = wire_frames(records);

  // Poison a few lanes with malformed bytes the scalar parser rejects.
  const std::vector<std::uint8_t> runt = {0xAA, 0xBB};
  std::vector<std::uint8_t> bad_version(records[0].bytes.begin(),
                                        records[0].bytes.end());
  bad_version[14] = 0x55;
  frames[17] = trace::WireFrame(runt);
  frames[200] = trace::WireFrame(bad_version);
  frames[511] = trace::WireFrame();

  std::vector<PacketHeader> out(frames.size());
  trace::ParseContext ctx;
  const std::size_t valid =
      trace::parse_batch(frames, app.in_port, out, ctx);
  EXPECT_EQ(valid, frames.size() - 3);
  EXPECT_EQ(ctx.bad_lanes, (std::vector<std::uint32_t>{17, 200, 511}));

  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (i == 17 || i == 200 || i == 511) {
      EXPECT_THROW((void)parse_packet(frames[i].bytes, app.in_port),
                   std::invalid_argument);
      EXPECT_EQ(out[i], PacketHeader{}) << "lane " << i;
    } else {
      EXPECT_EQ(out[i], parse_packet(frames[i].bytes, app.in_port).header)
          << "lane " << i;
    }
  }
}

TEST(WireParseBatch, AllocationFreeOnceWarm) {
  const auto app = make_app(FilterApp::kMacLearning, "gozb");
  const auto stream = make_stream(app, 64, 256, 5);
  const auto writer = workload::export_trace(stream);
  trace::PcapReader reader{std::span<const std::uint8_t>(writer.buffer())};
  const auto records = reader.read_all();
  auto frames = wire_frames(records);
  frames[100] = trace::WireFrame();  // keep one bad lane: that path counts too

  std::vector<PacketHeader> out(frames.size());
  trace::ParseContext ctx;
  (void)trace::parse_batch(frames, app.in_port, out, ctx);  // warm bad_lanes

  const std::size_t before = g_allocations.load();
  for (int repeat = 0; repeat < 4; ++repeat) {
    const std::size_t valid =
        trace::parse_batch(frames, app.in_port, out, ctx);
    EXPECT_EQ(valid, frames.size() - 1);
  }
  EXPECT_EQ(g_allocations.load(), before)
      << "warm parse_batch allocated on the hot path";
}

TEST(TraceExport, CaptureParsesBackToCanonicalHeaders) {
  for (const auto filter_app : {FilterApp::kRouting, FilterApp::kMacLearning}) {
    const auto app = make_app(filter_app, "bbra");
    const auto stream = make_stream(app, 128, 512, 7);
    const auto writer = workload::export_trace(stream);
    trace::PcapReader reader{std::span<const std::uint8_t>(writer.buffer())};
    const auto records = reader.read_all();
    ASSERT_EQ(records.size(), stream.size());

    const auto canonical = workload::replayed_headers(stream, app.in_port);
    for (std::size_t i = 0; i < records.size(); ++i) {
      const auto parsed = parse_packet(records[i].bytes, app.in_port);
      ASSERT_EQ(parsed.header, canonical[i]) << app.tag << " lane " << i;
      // Canonicalization is idempotent: a replayed header re-exports to
      // itself.
      ASSERT_EQ(canonical_wire_header(canonical[i], app.in_port),
                canonical[i])
          << app.tag << " lane " << i;
    }

    // parse_capture ingests the same lanes (none malformed).
    reader.rewind();
    const auto capture = trace::parse_capture(reader, app.in_port);
    EXPECT_EQ(capture.malformed, 0U);
    EXPECT_EQ(capture.headers, canonical);
  }
}

TEST(TraceExport, SnapLengthCappedCapturesReplayGracefully) {
  // A capture taken with a snap length (tcpdump -s) stores only a prefix
  // of each frame; pcap orig_len records the rest. The parser must treat
  // "claims bytes the capture cut off" as snapping (fields absent), not as
  // the malformed "claims bytes beyond the wire" case — otherwise every
  // real snapped capture would be wholly unreplayable.
  PacketSpec spec;
  spec.eth_src = MacAddress{0x020000000001ULL};
  spec.eth_dst = MacAddress{0x020000000002ULL};
  spec.eth_type = static_cast<std::uint16_t>(EtherType::kIpv4);
  spec.ipv4_src = Ipv4Address{10, 0, 0, 1};
  spec.ipv4_dst = Ipv4Address{10, 0, 0, 2};
  spec.ip_proto = static_cast<std::uint8_t>(IpProto::kTcp);
  spec.src_port = 12345;
  spec.dst_port = 80;
  const auto frame = serialize_packet(spec);  // 14 eth + 20 ip + 8 l4 = 42

  trace::PcapWriter writer({.snap_len = 38});  // cuts the last 4 L4 bytes
  writer.append(1'000, frame);
  trace::PcapReader reader{std::span<const std::uint8_t>(writer.buffer())};
  trace::PcapRecord record;
  ASSERT_TRUE(reader.next(record));
  ASSERT_EQ(record.bytes.size(), 38U);
  ASSERT_EQ(record.orig_len, 42U);

  // Without the wire length, the snapped bytes look like an overrun.
  EXPECT_THROW((void)parse_packet(record.bytes, 7), std::invalid_argument);

  // With it, everything still captured parses; the cut-off ports are
  // absent rather than an error.
  PacketHeader snapped;
  ASSERT_TRUE(parse_packet_header(record.bytes, 7, snapped, record.orig_len));
  PacketHeader full = header_from_spec(spec, 7);
  EXPECT_EQ(snapped.get64(FieldId::kIpv4Dst), full.get64(FieldId::kIpv4Dst));
  EXPECT_EQ(snapped.get64(FieldId::kIpProto), full.get64(FieldId::kIpProto));
  EXPECT_FALSE(snapped.has(FieldId::kSrcPort));
  EXPECT_FALSE(snapped.has(FieldId::kDstPort));

  // parse_capture ingests the snapped capture with zero malformed frames.
  reader.rewind();
  const auto capture = trace::parse_capture(reader, 7);
  EXPECT_EQ(capture.malformed, 0U);
  ASSERT_EQ(capture.headers.size(), 1U);
  EXPECT_EQ(capture.headers[0], snapped);

  // A length claiming bytes beyond even the wire stays malformed.
  std::vector<std::uint8_t> overrun(frame);
  overrun[16] = 0;
  overrun[17] = 200;
  PacketHeader rejected;
  EXPECT_FALSE(
      parse_packet_header(overrun, 7, rejected, /*wire_len=*/overrun.size()));
}

TEST(TraceReplay, CaptureThroughRuntimeMatchesSequentialOracle) {
  // The acceptance property: a capture parsed by parse_capture and replayed
  // through the runtime classifies exactly as the sequential pipeline does,
  // across two apps, with a cache that misses nearly every packet and one
  // with room for the capture's flows.
  for (const auto& [filter_app, name] :
       {std::pair{FilterApp::kRouting, "yoza"},
        std::pair{FilterApp::kMacLearning, "gozb"}}) {
    const auto app = make_app(filter_app, name);
    const auto stream = make_stream(app, 256, 2048, 11);
    const auto writer = workload::export_trace(stream);
    trace::PcapReader reader{std::span<const std::uint8_t>(writer.buffer())};
    const auto capture = trace::parse_capture(reader, app.in_port);
    ASSERT_EQ(capture.headers.size(), stream.size());

    for (const std::size_t cache : {runtime::FlowCache::kProbeWindow,
                                    std::size_t{512}}) {
      ParallelRuntime rt(app.tables.clone(),
                         {.workers = 1, .flow_cache_capacity = cache});
      std::vector<ExecutionResult> replayed(stream.size());
      replay(rt, capture.headers, replayed, 128);
      for (std::size_t i = 0; i < stream.size(); ++i) {
        ASSERT_EQ(replayed[i], app.tables.execute(capture.headers[i]))
            << app.tag << " cache=" << cache << " packet " << i;
      }
    }
  }
}

TEST(TraceReplay, TracedRunIsBitwiseIdenticalToUntraced) {
  // Observability must be free of observer effects: the same replay with
  // the trace rings live classifies every packet bitwise-identically, and
  // (when the instrumentation is compiled in) yields a non-empty event
  // stream whose decoded timestamps are monotone per thread. Two workers,
  // all 16 batches of a pass in flight at once, two passes over the same
  // result lanes.
  const auto app = make_app(FilterApp::kMacLearning, "gozb");
  const auto stream = make_stream(app, 256, 2048, 23);
  const auto writer = workload::export_trace(stream);
  trace::PcapReader reader{std::span<const std::uint8_t>(writer.buffer())};
  const auto capture = trace::parse_capture(reader, app.in_port);

  const auto run = [&](std::vector<ExecutionResult>& results) {
    ParallelRuntime rt(app.tables.clone(),
                       {.workers = 2, .flow_cache_capacity = 512});
    replay(rt, capture.headers, results, 128, /*loops=*/2);
  };
  std::vector<ExecutionResult> untraced(stream.size()), traced(stream.size());
  obs::stop_tracing();
  run(untraced);
  obs::start_tracing();
  run(traced);
  obs::stop_tracing();
  const auto dump = obs::collect_tracing();

  for (std::size_t i = 0; i < stream.size(); ++i) {
    ASSERT_EQ(traced[i], untraced[i]) << "packet " << i;
  }

  std::uint64_t total_events = 0, batch_begins = 0;
  for (const auto& thread : dump.threads) {
    const auto events = obs::decode_thread(thread);
    std::uint64_t last_ts = 0;
    for (const auto& event : events) {
      EXPECT_GE(event.ts_ns, last_ts) << "thread " << thread.name;
      last_ts = event.ts_ns;
      ++total_events;
      if (event.event == obs::TraceEvent::kBatchBegin) ++batch_begins;
    }
  }
  EXPECT_GT(total_events, 0u);
  // Every batch the run submitted shows up (nothing wrapped: 2 loops x 16
  // batches fits any default ring).
  EXPECT_GE(batch_begins, 2 * ((stream.size() + 127) / 128));
}

TEST(ParseCapture, MalformedFramesAreCountedAndDropped) {
  const auto app = make_app(FilterApp::kMacLearning, "gozb");
  const auto stream = make_stream(app, 64, 200, 17);
  auto writer = workload::export_trace(stream);
  // Append a frame the wire parser rejects (runt Ethernet header).
  const std::vector<std::uint8_t> runt = {1, 2, 3, 4};
  writer.append(99, runt);
  trace::PcapReader reader{std::span<const std::uint8_t>(writer.buffer())};
  const auto capture = trace::parse_capture(reader, app.in_port);
  EXPECT_EQ(capture.frames, stream.size() + 1);
  EXPECT_EQ(capture.malformed, 1U);
  EXPECT_EQ(capture.headers,
            workload::replayed_headers(stream, app.in_port));
}

}  // namespace
}  // namespace ofmtl
