// The OFP control-plane server, bottom-up: FrameAssembler reassembly under
// arbitrary fragmentation, the sans-io Session state machine (handshake,
// echo liveness, flow-mod batching with barrier semantics, backpressure and
// malformed-input degradation — all on a virtual clock, no sockets), the
// FlowModSink adapters and the one validate-then-apply path behind them
// (hostile flow-mods, a seeded FLOW_MOD fuzz against an apply_mods oracle),
// and finally the epoll OfpServer end-to-end over loopback TCP with scripted
// fault injection (byte-at-a-time delivery, mid-message RST, slow readers).
// The robustness contract under test: no peer input ever crashes the
// server; it answers ERROR or closes gracefully.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "ofp/agent.hpp"
#include "ofp/server/flow_mod_sink.hpp"
#include "ofp/server/frame_assembler.hpp"
#include "ofp/server/server.hpp"
#include "ofp/server/session.hpp"
#include "runtime/snapshot.hpp"
#include "support/ofp/chaos.hpp"
#include "support/ofp/fault_injection.hpp"
#include "workload/rng.hpp"

namespace ofmtl::ofp::server {
namespace {

using testing::FaultLevel;
using testing::FaultySocket;
using testing::feed_fragmented;
using testing::FrameFault;
using testing::make_fault;
using testing::ScriptedController;

// --- shared helpers ---

std::vector<std::uint8_t> flow_mod_frame(std::uint32_t xid, std::uint32_t id,
                                         FlowModCommand command =
                                             FlowModCommand::kAdd,
                                         std::uint8_t table = 0) {
  FlowModMsg mod;
  mod.command = command;
  mod.table_id = table;
  mod.entry.id = id;
  mod.entry.priority = 1;
  mod.entry.match.set(FieldId::kEthDst, FieldMatch::exact(std::uint64_t{id}));
  mod.entry.instructions = output_instruction(id % 1024);
  return encode({xid, mod});
}

/// An ECHO_REQUEST of the maximum frame size (64 KiB less a byte): the
/// header, the payload's u16 length, the payload.
std::vector<std::uint8_t> max_size_echo(std::uint32_t xid) {
  auto frame = encode({xid, EchoRequest{std::vector<std::uint8_t>(
                                0xFFFF - kHeaderSize - 2, 0xEE)}});
  EXPECT_EQ(frame.size(), 0xFFFFU);
  return frame;
}

/// Sink that records batch sizes and answers with scripted codes (kNone when
/// the script runs out).
struct RecordingSink {
  std::vector<std::size_t> batches;
  std::vector<std::uint32_t> xids;
  std::vector<ErrorCode> script;

  FlowModSink make() {
    return [this](std::span<const PendingFlowMod> mods,
                  std::span<ErrorCode> results) {
      batches.push_back(mods.size());
      for (std::size_t i = 0; i < mods.size(); ++i) {
        xids.push_back(mods[i].xid);
        const auto n = xids.size() - 1;
        results[i] = n < script.size() ? script[n] : ErrorCode::kNone;
      }
    };
  }
};

/// Decode every frame the session has queued, consuming its output.
std::vector<Envelope> drain_frames(Session& session) {
  FrameAssembler assembler;
  const auto pending = session.pending_output();
  EXPECT_EQ(assembler.push(pending), FrameAssembler::Status::kOk);
  session.consume_output(pending.size());
  std::vector<Envelope> envelopes;
  std::vector<std::uint8_t> frame;
  while (assembler.next(frame)) {
    Envelope envelope;
    EXPECT_EQ(try_decode(frame, envelope), DecodeStatus::kOk);
    envelopes.push_back(std::move(envelope));
  }
  return envelopes;
}

/// A steady-state session: HELLO handshake done, server HELLO drained.
Session steady_session(FlowModSink sink) {
  Session session(1, {}, std::move(sink), 0);
  session.on_bytes(encode({1, Hello{}}), 0);
  const auto hello = drain_frames(session);
  EXPECT_EQ(hello.size(), 1U);
  EXPECT_EQ(session.state(), Session::State::kSteady);
  return session;
}

bool wait_until(const std::function<bool()>& predicate, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return predicate();
}

// --- FrameAssembler ---

TEST(FrameAssembler, ReassemblesAtEveryFragmentation) {
  std::vector<std::uint8_t> stream;
  std::vector<std::vector<std::uint8_t>> frames = {
      encode({1, Hello{}}),
      encode({2, EchoRequest{{1, 2, 3, 4, 5}}}),
      flow_mod_frame(3, 7),
  };
  for (const auto& f : frames) stream.insert(stream.end(), f.begin(), f.end());

  for (std::size_t chunk = 1; chunk <= stream.size(); ++chunk) {
    FrameAssembler assembler;
    std::vector<std::vector<std::uint8_t>> got;
    std::vector<std::uint8_t> frame;
    for (std::size_t off = 0; off < stream.size(); off += chunk) {
      const auto n = std::min(chunk, stream.size() - off);
      ASSERT_EQ(assembler.push({stream.data() + off, n}),
                FrameAssembler::Status::kOk);
      while (assembler.next(frame)) got.push_back(frame);
    }
    ASSERT_EQ(got, frames) << "chunk size " << chunk;
    EXPECT_EQ(assembler.buffered(), 0U);
  }
}

TEST(FrameAssembler, BadLengthPoisonsButEarlierFramesDrain) {
  FrameAssembler assembler;
  auto good = encode({1, Hello{}});
  std::vector<std::uint8_t> bad = {kProtocolVersion, 0, 0, 4, 0, 0, 0, 9};
  auto stream = good;
  stream.insert(stream.end(), bad.begin(), bad.end());
  // The bad header hides behind the good frame, so the push itself is clean;
  // popping the good frame exposes it and poisons the stream eagerly.
  EXPECT_EQ(assembler.push(stream), FrameAssembler::Status::kOk);
  std::vector<std::uint8_t> frame;
  EXPECT_TRUE(assembler.next(frame));  // the good frame survives
  EXPECT_EQ(frame, good);
  EXPECT_EQ(assembler.status(), FrameAssembler::Status::kBadLength);
  EXPECT_FALSE(assembler.next(frame));
  // Sticky: nothing rehabilitates the stream.
  EXPECT_EQ(assembler.push(good), FrameAssembler::Status::kBadLength);
}

TEST(FrameAssembler, OverflowIsStickyAndBounded) {
  FrameAssembler assembler(16);
  // One frame claiming 100 bytes can never complete within a 16-byte cap.
  std::vector<std::uint8_t> header = {kProtocolVersion, 0, 0, 100, 0, 0, 0, 1};
  EXPECT_EQ(assembler.push(header), FrameAssembler::Status::kOk);
  std::vector<std::uint8_t> filler(20, 0xAB);
  EXPECT_EQ(assembler.push(filler), FrameAssembler::Status::kOverflow);
  EXPECT_EQ(assembler.push(filler), FrameAssembler::Status::kOverflow);
  EXPECT_LE(assembler.buffered(), 16U);
}

// --- Session: sans-io state machine ---

TEST(Session, HandshakeThenEchoAtArbitraryFragmentation) {
  workload::Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    RecordingSink sink;
    Session session(1, {}, sink.make(), 0);
    EXPECT_EQ(session.state(), Session::State::kAwaitHello);

    std::vector<std::uint8_t> stream = encode({1, Hello{}});
    const auto echo = encode({2, EchoRequest{{0xAA, 0xBB}}});
    stream.insert(stream.end(), echo.begin(), echo.end());
    feed_fragmented(session, stream, rng, 0);

    EXPECT_EQ(session.state(), Session::State::kSteady);
    const auto out = drain_frames(session);
    ASSERT_EQ(out.size(), 2U);  // our HELLO + the echo reply
    EXPECT_TRUE(std::holds_alternative<Hello>(out[0].message));
    EXPECT_EQ(out[1].xid, 2U);
    EXPECT_EQ(std::get<EchoReply>(out[1].message).payload,
              (std::vector<std::uint8_t>{0xAA, 0xBB}));
    EXPECT_EQ(session.counters().frames_rx, 2U);
  }
}

TEST(Session, TrafficBeforeHelloFailsHandshake) {
  RecordingSink sink;
  Session session(1, {}, sink.make(), 0);
  session.on_bytes(encode({9, EchoRequest{{1}}}), 0);
  EXPECT_EQ(session.state(), Session::State::kDraining);
  EXPECT_EQ(session.close_reason(), CloseReason::kHandshakeFailed);
  const auto out = drain_frames(session);
  ASSERT_EQ(out.size(), 2U);  // HELLO was already queued, then the ERROR
  const auto& error = std::get<ErrorMsg>(out[1].message);
  EXPECT_EQ(error.type, ErrorType::kHelloFailed);
  EXPECT_TRUE(session.wants_close());  // output drained, nothing left
}

TEST(Session, MalformedFirstFrameFailsHandshake) {
  RecordingSink sink;
  Session session(1, {}, sink.make(), 0);
  auto bytes = encode({9, Hello{}});
  bytes[0] = 9;  // wrong version
  session.on_bytes(bytes, 0);
  EXPECT_EQ(session.close_reason(), CloseReason::kHandshakeFailed);
  const auto out = drain_frames(session);
  ASSERT_EQ(out.size(), 2U);
  EXPECT_EQ(std::get<ErrorMsg>(out[1].message).code, ErrorCode::kBadVersion);
  EXPECT_EQ(session.counters().malformed_frames, 1U);
}

TEST(Session, FlowModsBatchUntilBarrier) {
  RecordingSink sink;
  auto session = steady_session(sink.make());
  std::vector<std::uint8_t> stream;
  for (std::uint32_t i = 0; i < 3; ++i) {
    const auto f = flow_mod_frame(10 + i, 100 + i);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  const auto echo = encode({20, EchoRequest{{1}}});
  stream.insert(stream.end(), echo.begin(), echo.end());
  session.on_bytes(stream, 1);

  // One batch, flushed by the echo barrier — not three.
  ASSERT_EQ(sink.batches, (std::vector<std::size_t>{3}));
  EXPECT_EQ(sink.xids, (std::vector<std::uint32_t>{10, 11, 12}));
  const auto out = drain_frames(session);
  ASSERT_EQ(out.size(), 1U);  // echo reply only: successful mods are silent
  EXPECT_EQ(out[0].xid, 20U);
  EXPECT_EQ(session.counters().flow_mods_ok, 3U);
}

TEST(Session, PendingModsFlushAtEndOfRead) {
  RecordingSink sink;
  auto session = steady_session(sink.make());
  session.on_bytes(flow_mod_frame(10, 100), 1);
  // No barrier message arrived, but the read event ended: the batch must
  // not linger unapplied while the connection idles.
  ASSERT_EQ(sink.batches, (std::vector<std::size_t>{1}));
}

TEST(Session, MaxModsPerBatchForcesFlush) {
  RecordingSink sink;
  auto session = steady_session(sink.make());
  constexpr auto kCap = Session::kMaxModsPerBatch;
  std::vector<std::uint8_t> stream;
  for (std::uint32_t i = 0; i < 2 * kCap + 1; ++i) {
    const auto f = flow_mod_frame(10 + i, 100 + i);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  ASSERT_LE(stream.size(), Session::kReadBufferCap);  // one legal read
  session.on_bytes(stream, 1);
  ASSERT_EQ(sink.batches, (std::vector<std::size_t>{kCap, kCap, 1}));
}

TEST(Session, FailedModsEarnErrorRepliesBeforeTheBarrierReply) {
  RecordingSink sink;
  sink.script = {ErrorCode::kNone, ErrorCode::kDuplicateEntry};
  auto session = steady_session(sink.make());
  std::vector<std::uint8_t> stream = flow_mod_frame(10, 100);
  const auto dup = flow_mod_frame(11, 100);
  stream.insert(stream.end(), dup.begin(), dup.end());
  const auto echo = encode({12, EchoRequest{{1}}});
  stream.insert(stream.end(), echo.begin(), echo.end());
  session.on_bytes(stream, 1);

  const auto out = drain_frames(session);
  ASSERT_EQ(out.size(), 2U);
  // ERROR for the failed mod precedes the echo reply: replies stay in frame
  // order, so the barrier proves every earlier mod was applied or answered.
  EXPECT_EQ(out[0].xid, 11U);
  EXPECT_EQ(std::get<ErrorMsg>(out[0].message).code,
            ErrorCode::kDuplicateEntry);
  EXPECT_EQ(out[1].xid, 12U);
  EXPECT_EQ(session.counters().flow_mods_ok, 1U);
  EXPECT_EQ(session.counters().flow_mods_failed, 1U);
}

TEST(Session, MalformedSteadyFrameAnswersErrorAndTolerates) {
  RecordingSink sink;
  auto session = steady_session(sink.make());
  auto bad = encode({30, EchoRequest{{1, 2}}});
  bad[1] = 250;  // unknown type
  session.on_bytes(bad, 1);
  EXPECT_EQ(session.state(), Session::State::kSteady);  // tolerated
  const auto out = drain_frames(session);
  ASSERT_EQ(out.size(), 1U);
  EXPECT_EQ(out[0].xid, 30U);
  EXPECT_EQ(std::get<ErrorMsg>(out[0].message).code, ErrorCode::kBadType);
  EXPECT_EQ(session.counters().malformed_frames, 1U);

  // The session still works afterwards.
  session.on_bytes(encode({31, EchoRequest{{3}}}), 2);
  const auto next = drain_frames(session);
  ASSERT_EQ(next.size(), 1U);
  EXPECT_EQ(next[0].xid, 31U);
}

TEST(Session, FramingDesyncClosesAfterBestEffortError) {
  RecordingSink sink;
  auto session = steady_session(sink.make());
  // Length field below the header size: reassembly cannot resynchronize.
  session.on_bytes(std::vector<std::uint8_t>{kProtocolVersion, 0, 0, 4}, 1);
  EXPECT_EQ(session.state(), Session::State::kDraining);
  EXPECT_EQ(session.close_reason(), CloseReason::kProtocolError);
  const auto out = drain_frames(session);
  ASSERT_EQ(out.size(), 1U);
  EXPECT_EQ(std::get<ErrorMsg>(out[0].message).code, ErrorCode::kBadLength);
  EXPECT_TRUE(session.wants_close());
}

TEST(Session, ReadOverTheCapIsFramedInPieces) {
  // One read of 3000 FLOW_MODs (168,000 bytes, more than kReadBufferCap)
  // and the head of a maximal echo: the session feeds the assembler in
  // pieces and drains complete frames between them, so every mod applies
  // and only the partial echo stays buffered until its tail arrives.
  RecordingSink sink;
  auto session = steady_session(sink.make());
  constexpr std::uint32_t kMods = 3000;
  std::vector<std::uint8_t> stream;
  for (std::uint32_t i = 0; i < kMods; ++i) {
    const auto f = flow_mod_frame(10 + i, 100 + i);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  const auto echo = max_size_echo(9);
  const auto cut = echo.begin() + 1000;
  stream.insert(stream.end(), echo.begin(), cut);
  ASSERT_GT(stream.size(), Session::kReadBufferCap);
  session.on_bytes(stream, 1);
  EXPECT_EQ(session.state(), Session::State::kSteady);
  EXPECT_EQ(sink.xids.size(), kMods);
  EXPECT_EQ(session.counters().flow_mods_ok, kMods);
  EXPECT_TRUE(drain_frames(session).empty());

  session.on_bytes(std::vector<std::uint8_t>(cut, echo.end()), 2);
  const auto replies = drain_frames(session);
  ASSERT_EQ(replies.size(), 1U);
  EXPECT_EQ(replies[0].xid, 9U);
  EXPECT_TRUE(std::holds_alternative<EchoReply>(replies[0].message));
}

TEST(Session, BackpressureDrainsSlowReader) {
  RecordingSink sink;
  auto session = steady_session(sink.make());
  // Maximum-size echo requests whose replies the "peer" never reads: the
  // write buffer fills to the cap, then the session drains instead of
  // growing. Four 64-KiB replies fit in 256 KiB; the fifth trips the cap.
  const auto echo = max_size_echo(50);
  const auto fits = Session::kWriteBufferCap / echo.size();
  ASSERT_EQ(fits, 4U);
  for (std::size_t i = 0; i < fits; ++i) session.on_bytes(echo, 1);
  EXPECT_EQ(session.state(), Session::State::kSteady);
  EXPECT_EQ(session.output_buffered(), fits * echo.size());
  session.on_bytes(echo, 1);
  EXPECT_EQ(session.state(), Session::State::kDraining);
  EXPECT_EQ(session.close_reason(), CloseReason::kBackpressure);
  EXPECT_EQ(session.output_buffered(), fits * echo.size());
  // The drain flushes what the peer already earned, then wants the close.
  session.consume_output(session.pending_output().size());
  EXPECT_TRUE(session.wants_close());
}

TEST(Session, EchoProbeThenTimeoutCloses) {
  RecordingSink sink;
  auto session = steady_session(sink.make());
  constexpr auto kInterval = SessionConfig{}.echo_interval_ms;
  constexpr auto kDeadline = kInterval + Session::kEchoTimeoutMs;

  ASSERT_TRUE(session.next_deadline_ms().has_value());
  EXPECT_EQ(*session.next_deadline_ms(), kInterval);
  session.on_tick(kInterval - 1);
  EXPECT_EQ(session.counters().echo_probes, 0U);
  session.on_tick(kInterval);  // idle hit the interval: probe goes out
  EXPECT_EQ(session.counters().echo_probes, 1U);
  const auto out = drain_frames(session);
  ASSERT_EQ(out.size(), 1U);
  EXPECT_TRUE(std::holds_alternative<EchoRequest>(out[0].message));
  EXPECT_EQ(*session.next_deadline_ms(), kDeadline);

  session.on_tick(kDeadline - 1);
  EXPECT_EQ(session.state(), Session::State::kSteady);
  session.on_tick(kDeadline);  // probe unanswered past the grace
  EXPECT_EQ(session.close_reason(), CloseReason::kEchoTimeout);
  EXPECT_TRUE(session.wants_close());
}

TEST(Session, AnyInboundByteAnswersProbe) {
  RecordingSink sink;
  auto session = steady_session(sink.make());
  constexpr auto kInterval = SessionConfig{}.echo_interval_ms;
  session.on_tick(kInterval);
  EXPECT_EQ(session.counters().echo_probes, 1U);
  session.on_bytes(encode({77, EchoReply{{}}}), kInterval + 20);  // answered
  session.on_tick(kInterval + Session::kEchoTimeoutMs);  // the old deadline
  EXPECT_EQ(session.state(), Session::State::kSteady);
  EXPECT_EQ(session.counters().echo_probes, 1U);
  // The idle clock restarted at the answer.
  EXPECT_EQ(*session.next_deadline_ms(), kInterval + 20 + kInterval);
}

TEST(Session, PeerCloseFlushesPendingMods) {
  RecordingSink sink;
  auto session = steady_session(sink.make());
  session.on_bytes(flow_mod_frame(10, 1), 1);
  session.on_peer_closed(2);
  EXPECT_EQ(session.close_reason(), CloseReason::kPeerClosed);
  // The mod that arrived before EOF was applied, not dropped.
  ASSERT_FALSE(sink.batches.empty());
}

// --- FlowModSink adapters ---

MultiTableLookup one_table() {
  MultiTableLookup tables;
  tables.add_table(LookupTable({FieldId::kEthDst}, {}));
  return tables;
}

PendingFlowMod pending(std::uint32_t xid, std::uint32_t id,
                       FlowModCommand command = FlowModCommand::kAdd,
                       std::uint8_t table = 0) {
  PendingFlowMod p;
  p.xid = xid;
  p.mod.command = command;
  p.mod.table_id = table;
  p.mod.entry.id = id;
  p.mod.entry.priority = 1;
  p.mod.entry.match.set(FieldId::kEthDst, FieldMatch::exact(std::uint64_t{id}));
  p.mod.entry.instructions = output_instruction(id % 1024);  // as flow_mod_frame
  return p;
}

/// Table 0 holds one field of each engine (LPM, EM, RM) and may Goto
/// table 1.
MultiTableLookup two_tables() {
  MultiTableLookup tables;
  tables.add_table(LookupTable(
      {FieldId::kEthDst, FieldId::kVlanId, FieldId::kSrcPort}, {}));
  tables.add_table(LookupTable({FieldId::kEthDst}, {}));
  return tables;
}

PendingFlowMod with_match(PendingFlowMod p, FieldId field, FieldMatch match) {
  p.mod.entry.match.set(field, match);
  return p;
}

PendingFlowMod with_goto(PendingFlowMod p, std::uint8_t table) {
  p.mod.entry.instructions.goto_table = table;
  return p;
}

PendingFlowMod with_set_field(PendingFlowMod p, FieldId field, U128 value,
                              bool write_actions = false) {
  auto& ins = p.mod.entry.instructions;
  (write_actions ? ins.write_actions : ins.apply_actions)
      .push_back(SetFieldAction{field, value});
  return p;
}

TEST(FlowModSinks, ApplyModsValidatesPerMod) {
  auto tables = two_tables();
  const auto masked = FieldMatch::masked(U128{0x10}, U128{0xF0});
  const std::vector<PendingFlowMod> mods = {
      pending(1, 10),                              // ok
      pending(2, 10),                              // duplicate add
      pending(3, 11, FlowModCommand::kModify),     // unknown id
      pending(4, 11, FlowModCommand::kDelete),     // unknown id
      pending(5, 12, FlowModCommand::kAdd, 9),     // bad table
      // Match shapes the decomposed table cannot hold:
      with_match(pending(6, 13), FieldId::kEthDst, masked),
      with_match(pending(7, 14), FieldId::kVlanId, masked),
      with_match(pending(8, 15), FieldId::kVlanId,
                 FieldMatch::of_range(1, 5)),      // range on an EM field
      with_match(pending(9, 16), FieldId::kEthDst,
                 FieldMatch::of_prefix(Prefix::from_value(1, 8, 32))),
      with_match(pending(10, 17), FieldId::kSrcPort,
                 FieldMatch::of_range(0, 70000)),  // past the field's max
      with_match(pending(10, 22), FieldId::kSrcPort,
                 FieldMatch::exact(std::uint64_t{70000})),
      // A constraint on a field outside the table:
      with_match(pending(11, 18), FieldId::kIpv4Dst,
                 FieldMatch::exact(std::uint64_t{1})),
      with_goto(pending(12, 19), 0),               // Goto to itself
      with_goto(pending(13, 20), 2),               // Goto past the last table
      with_goto(pending(14, 21), 1),               // ok
      // Set-Field values wider than their field, in either action list:
      with_set_field(with_goto(pending(16, 23), 1), FieldId::kSrcPort,
                     U128{70000}),
      with_set_field(pending(17, 24), FieldId::kIpv4Dst,
                     (U128{1} << 32) | U128{5}, /*write_actions=*/true),
      with_set_field(pending(18, 25), FieldId::kSrcPort, U128{65535}),  // ok
      // Modify of a live id to an invalid match keeps the old entry.
      with_match(pending(15, 10, FlowModCommand::kModify), FieldId::kEthDst,
                 masked),
  };
  std::vector<ErrorCode> results(mods.size(), ErrorCode::kNone);
  apply_mods(tables, mods, results);
  // Each cause answers with its own code, so a controller can tell a bad
  // table id from a bad match, Goto or Set-Field.
  using E = ErrorCode;
  EXPECT_EQ(results,
            (std::vector<ErrorCode>{
                E::kNone, E::kDuplicateEntry, E::kUnknownEntry,
                E::kUnknownEntry, E::kBadTableId, E::kBadField, E::kBadField,
                E::kBadField, E::kBadField, E::kBadField, E::kBadField,
                E::kBadField, E::kBadGotoTable, E::kBadGotoTable, E::kNone,
                E::kBadSetArgument, E::kBadSetArgument, E::kNone,
                E::kBadField}));
  EXPECT_EQ(tables.table(0).entry_count(), 3U);
  EXPECT_TRUE(tables.contains_entry(0, 21));
  EXPECT_TRUE(tables.contains_entry(0, 25));
  PacketHeader probe;
  probe.set(FieldId::kEthDst, std::uint64_t{10});
  const auto result = tables.execute(probe);
  EXPECT_EQ(result.matched_entries, (std::vector<FlowEntryId>{10}));
  EXPECT_EQ(result.output_ports, (std::vector<std::uint32_t>{10}));

  const std::vector<PendingFlowMod> remove = {
      pending(19, 10, FlowModCommand::kDelete)};
  apply_mods(tables, remove, results);
  EXPECT_EQ(results[0], ErrorCode::kNone);
  EXPECT_FALSE(tables.contains_entry(0, 10));
}

TEST(FlowModSinks, RejectedModsLeaveTheDeltaLogUntouched) {
  auto tables = two_tables();
  tables.set_log_epoch(1);
  const std::vector<PendingFlowMod> install = {pending(1, 10)};
  std::vector<ErrorCode> results(1);
  apply_mods(tables, install, results);
  PacketHeader probe;
  probe.set(FieldId::kEthDst, std::uint64_t{10});
  const auto cached = tables.execute(probe);

  // A Modify that removed before validating would log the removal of the
  // entry the probe matched; an Add would log an insert matching it.
  tables.set_log_epoch(2);
  const std::vector<PendingFlowMod> hostile = {
      with_match(pending(2, 10, FlowModCommand::kModify), FieldId::kVlanId,
                 FieldMatch::of_range(1, 5)),
      with_goto(pending(3, 11), 0),
  };
  results.assign(hostile.size(), ErrorCode::kNone);
  apply_mods(tables, hostile, results);
  EXPECT_EQ(results, (std::vector<ErrorCode>{ErrorCode::kBadField,
                                             ErrorCode::kBadGotoTable}));
  EXPECT_TRUE(tables.still_valid(probe, cached, 1));
}

TEST(FlowModSinks, ClassifierSinkPublishesOncePerBatch) {
  runtime::SnapshotClassifier classifier(one_table());
  auto sink = make_classifier_sink(classifier);
  const auto before = classifier.epoch();

  std::vector<PendingFlowMod> mods = {pending(1, 10), pending(2, 11),
                                      pending(3, 10)};  // last: duplicate
  std::vector<ErrorCode> results(mods.size(), ErrorCode::kNone);
  sink(mods, results);

  EXPECT_EQ(classifier.epoch(), before + 1);  // ONE publish for the batch
  EXPECT_EQ(results[0], ErrorCode::kNone);
  EXPECT_EQ(results[1], ErrorCode::kNone);
  EXPECT_EQ(results[2], ErrorCode::kDuplicateEntry);
  const auto guard = classifier.acquire();
  EXPECT_TRUE(guard.tables().contains_entry(0, 10));
  EXPECT_TRUE(guard.tables().contains_entry(0, 11));
}

// --- OfpServer: live sockets + fault injection ---

ServerConfig quick_config() {
  ServerConfig config;
  config.session.echo_interval_ms = 60'000;  // no probes unless a test asks
  return config;
}

TEST(OfpServer, StartHandshakeStop) {
  RecordingSink sink;
  OfpServer server(sink.make(), quick_config());
  ASSERT_TRUE(server.start());
  ASSERT_NE(server.port(), 0);

  ScriptedController controller;
  ASSERT_TRUE(controller.connect(server.port()));
  ASSERT_TRUE(wait_until([&] { return server.stats().handshakes == 1; }, 2000));
  EXPECT_EQ(server.active_sessions(), 1U);

  const auto barrier = controller.barrier();
  EXPECT_TRUE(barrier.ok);
  server.stop();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.active_sessions(), 0U);
}

TEST(OfpServer, ByteAtATimeDeliveryConverges) {
  runtime::SnapshotClassifier classifier(one_table());
  OfpServer server(make_classifier_sink(classifier), quick_config());
  ASSERT_TRUE(server.start());

  ScriptedController controller;
  ASSERT_TRUE(controller.connect(server.port()));
  FrameFault byte_at_a_time;
  byte_at_a_time.chunks = {1};
  for (std::uint32_t id = 1; id <= 5; ++id) {
    ASSERT_TRUE(controller.send(flow_mod_frame(controller.next_xid(), id),
                                byte_at_a_time));
  }
  const auto barrier = controller.barrier();
  ASSERT_TRUE(barrier.ok);
  EXPECT_EQ(barrier.errors_seen, 0U);

  const auto guard = classifier.acquire();
  for (std::uint32_t id = 1; id <= 5; ++id) {
    EXPECT_TRUE(guard.tables().contains_entry(0, id)) << "id " << id;
  }
  server.stop();
}

TEST(OfpServer, MalformedFrameAnswersErrorOverTheWire) {
  RecordingSink sink;
  OfpServer server(sink.make(), quick_config());
  ASSERT_TRUE(server.start());

  ScriptedController controller;
  ASSERT_TRUE(controller.connect(server.port()));
  auto bad = encode({99, EchoRequest{{1, 2, 3}}});
  bad[1] = 250;  // unknown type, length still consistent
  ASSERT_TRUE(controller.send(bad));
  const auto frame = controller.socket().read_frame();
  ASSERT_TRUE(frame.has_value());
  Envelope envelope;
  ASSERT_EQ(try_decode(*frame, envelope), DecodeStatus::kOk);
  EXPECT_EQ(envelope.xid, 99U);
  EXPECT_EQ(std::get<ErrorMsg>(envelope.message).code, ErrorCode::kBadType);

  // The session survived: it still answers echoes.
  EXPECT_TRUE(controller.barrier().ok);
  EXPECT_GE(server.stats().malformed_frames, 1U);
  server.stop();
}

TEST(OfpServer, MidMessageRstThenReconnectConverges) {
  runtime::SnapshotClassifier classifier(one_table());
  OfpServer server(make_classifier_sink(classifier), quick_config());
  ASSERT_TRUE(server.start());

  {
    ScriptedController controller;
    ASSERT_TRUE(controller.connect(server.port()));
    const auto frame = flow_mod_frame(controller.next_xid(), 1);
    FrameFault cut_mid_frame;
    cut_mid_frame.cut = frame.size() / 2;  // partial frame, then hard RST
    EXPECT_FALSE(controller.send(frame, cut_mid_frame));
  }
  ASSERT_TRUE(
      wait_until([&] { return server.stats().sessions_closed >= 1; }, 2000));

  // The replayed controller resends everything; the server state converges.
  ScriptedController retry;
  ASSERT_TRUE(retry.connect(server.port()));
  ASSERT_TRUE(retry.send(flow_mod_frame(retry.next_xid(), 1)));
  ASSERT_TRUE(retry.barrier().ok);
  EXPECT_TRUE(classifier.acquire().tables().contains_entry(0, 1));
  server.stop();
}

TEST(OfpServer, TrafficBeforeHelloIsRejectedGracefully) {
  RecordingSink sink;
  OfpServer server(sink.make(), quick_config());
  ASSERT_TRUE(server.start());

  auto sock = FaultySocket::connect(server.port());
  ASSERT_TRUE(sock.has_value());
  ASSERT_TRUE(sock->send_all(encode({5, EchoRequest{{1}}})));  // no HELLO
  // Server answers HELLO (its own), then ERROR, then closes.
  bool saw_error = false;
  while (const auto frame = sock->read_frame()) {
    Envelope envelope;
    if (try_decode(*frame, envelope) != DecodeStatus::kOk) continue;
    if (const auto* error = std::get_if<ErrorMsg>(&envelope.message)) {
      EXPECT_EQ(error->type, ErrorType::kHelloFailed);
      saw_error = true;
    }
  }
  EXPECT_TRUE(saw_error);
  ASSERT_TRUE(
      wait_until([&] { return server.stats().protocol_closes >= 1; }, 2000));
  server.stop();
}

TEST(OfpServer, SlowReaderIsClosedUnderBackpressure) {
  // A peer that never reads: every send() would block, so nothing leaves
  // the session's write queue. The queue hits its cap, the session drains,
  // and the drain closes it at its deadline on the virtual clock.
  RecordingSink sink;
  testing::VirtualClock clock;
  ServerConfig config = quick_config();
  config.hooks.now_ms = clock.hook();
  config.hooks.send = [](int, const void*, std::size_t) -> long {
    errno = EAGAIN;
    return -1;
  };
  OfpServer server(sink.make(), config);
  ASSERT_TRUE(server.start());

  auto sock = FaultySocket::connect(server.port());
  ASSERT_TRUE(sock.has_value());
  const auto hello = encode({1, Hello{}});
  ASSERT_TRUE(sock->send_all(hello));
  std::uint64_t sent = hello.size();
  // One maximum-size echo more than the write cap holds replies for.
  for (std::uint32_t i = 0; i <= Session::kWriteBufferCap / 0xFFFF; ++i) {
    const auto echo = max_size_echo(100 + i);
    ASSERT_TRUE(sock->send_all(echo));
    sent += echo.size();
  }
  // Once the server has read every byte, the session is draining.
  ASSERT_TRUE(
      wait_until([&] { return server.stats().bytes_rx == sent; }, 5000));
  EXPECT_EQ(server.stats().backpressure_closes, 0U);  // draining, still open
  EXPECT_EQ(server.active_sessions(), 1U);

  clock.advance(Session::kDrainTimeoutMs);
  ASSERT_TRUE(wait_until(
      [&] { return server.stats().backpressure_closes == 1; }, 5000));
  EXPECT_EQ(server.active_sessions(), 0U);
  EXPECT_EQ(server.stats().bytes_tx, 0U);
  server.stop();
}

TEST(OfpServer, ConcurrentFaultySessionsConvergeToOracle) {
  constexpr std::uint32_t kSessions = 4;
  constexpr std::uint32_t kModsPerSession = 25;

  runtime::SnapshotClassifier classifier(one_table());
  OfpServer server(make_classifier_sink(classifier), quick_config());
  ASSERT_TRUE(server.start());

  std::atomic<std::uint32_t> converged{0};
  std::vector<std::thread> controllers;
  for (std::uint32_t s = 0; s < kSessions; ++s) {
    controllers.emplace_back([&, s] {
      workload::Rng rng(1000 + s);
      const std::uint32_t base = 1 + s * kModsPerSession;
      ScriptedController controller;
      // Replay-from-start on every connection loss: duplicate adds earn
      // ERROR replies, but the final state is the same (exactly-once
      // effect via idempotent replay + disjoint id ranges).
      for (int attempt = 0; attempt < 64; ++attempt) {
        if (!controller.connect(server.port())) continue;
        bool alive = true;
        for (std::uint32_t i = 0; i < kModsPerSession && alive; ++i) {
          const auto frame = flow_mod_frame(controller.next_xid(), base + i);
          alive = controller.send(
              frame, make_fault(rng, frame.size(), FaultLevel::kLight));
        }
        if (!alive) continue;
        if (controller.barrier().ok) {
          converged.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& t : controllers) t.join();
  ASSERT_EQ(converged.load(), kSessions);

  // Oracle: the same mods applied sequentially to a fresh table.
  auto oracle = one_table();
  for (std::uint32_t s = 0; s < kSessions; ++s) {
    const std::uint32_t base = 1 + s * kModsPerSession;
    for (std::uint32_t i = 0; i < kModsPerSession; ++i) {
      std::vector<PendingFlowMod> one = {pending(1, base + i)};
      std::vector<ErrorCode> result(1);
      apply_mods(oracle, one, result);
      ASSERT_EQ(result[0], ErrorCode::kNone);
    }
  }

  // Bitwise agreement: same entries, same execution verdicts on probes.
  const auto guard = classifier.acquire();
  for (std::uint32_t id = 1; id <= kSessions * kModsPerSession; ++id) {
    ASSERT_TRUE(guard.tables().contains_entry(0, id)) << "id " << id;
    PacketHeader probe;
    probe.set(FieldId::kEthDst, std::uint64_t{id});
    const auto got = guard.tables().execute(probe);
    const auto want = oracle.execute(probe);
    ASSERT_EQ(got.verdict, want.verdict) << "id " << id;
    ASSERT_EQ(got.output_ports, want.output_ports) << "id " << id;
  }
  EXPECT_GE(server.stats().flow_mods_ok, kSessions * kModsPerSession);
  server.stop();
}

// --- hostile flow-mods: answered with ERROR, never a crash ---

/// A flow-mod whose VLAN match is masked: EM fields hold exact or any only.
std::vector<std::uint8_t> masked_vlan_frame(std::uint32_t xid,
                                            std::uint32_t id) {
  FlowModMsg mod;
  mod.entry.id = id;
  mod.entry.priority = 1;
  mod.entry.match.set(FieldId::kVlanId,
                      FieldMatch::masked(U128{0x10}, U128{0xF0}));
  mod.entry.instructions = output_instruction(1);
  return encode({xid, mod});
}

TEST(Session, HostileFlowModEarnsErrorThenServingContinues) {
  runtime::SnapshotClassifier classifier(two_tables());
  auto session = steady_session(make_classifier_sink(classifier));
  EXPECT_NO_THROW(session.on_bytes(masked_vlan_frame(7, 1), 1));
  const auto replies = drain_frames(session);
  ASSERT_EQ(replies.size(), 1U);
  EXPECT_EQ(replies[0].xid, 7U);
  const auto& error = std::get<ErrorMsg>(replies[0].message);
  EXPECT_EQ(error.type, ErrorType::kBadMatch);
  EXPECT_EQ(error.code, ErrorCode::kBadField);
  EXPECT_EQ(session.state(), Session::State::kSteady);

  session.on_bytes(flow_mod_frame(8, 2), 2);
  EXPECT_TRUE(drain_frames(session).empty());
  const auto guard = classifier.acquire();
  EXPECT_FALSE(guard.tables().contains_entry(0, 1));
  EXPECT_TRUE(guard.tables().contains_entry(0, 2));
}

TEST(Session, RejectedFlowModsAnswerTheirOpenFlowErrorType) {
  // OpenFlow 1.3 sorts a bad Goto under OFPET_BAD_INSTRUCTION and a bad
  // Set-Field under OFPET_BAD_ACTION; an id conflict or a bad table id is
  // OFPET_FLOW_MOD_FAILED.
  runtime::SnapshotClassifier classifier(two_tables());
  auto session = steady_session(make_classifier_sink(classifier));
  const std::vector<PendingFlowMod> mods = {
      with_goto(pending(1, 10), 0),
      with_set_field(pending(2, 11), FieldId::kSrcPort, U128{70000}),
      pending(3, 12),
      pending(4, 12),
      pending(5, 13, FlowModCommand::kAdd, 9),
  };
  std::vector<std::uint8_t> stream;
  for (const auto& mod : mods) {
    const auto frame = encode({mod.xid, mod.mod});
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  session.on_bytes(stream, 1);
  const auto replies = drain_frames(session);
  ASSERT_EQ(replies.size(), 4U);
  const std::vector<std::pair<ErrorType, ErrorCode>> expected = {
      {ErrorType::kBadInstruction, ErrorCode::kBadGotoTable},
      {ErrorType::kBadAction, ErrorCode::kBadSetArgument},
      {ErrorType::kFlowModFailed, ErrorCode::kDuplicateEntry},
      {ErrorType::kFlowModFailed, ErrorCode::kBadTableId},
  };
  const std::uint32_t xids[] = {1, 2, 4, 5};
  for (std::size_t i = 0; i < replies.size(); ++i) {
    EXPECT_EQ(replies[i].xid, xids[i]);
    const auto& error = std::get<ErrorMsg>(replies[i].message);
    EXPECT_EQ(error.type, expected[i].first) << "reply " << i;
    EXPECT_EQ(error.code, expected[i].second) << "reply " << i;
  }
  EXPECT_EQ(session.state(), Session::State::kSteady);
}

TEST(OfpServer, HostileFlowModLeavesTheServerRunning) {
  runtime::SnapshotClassifier classifier(two_tables());
  OfpServer server(make_classifier_sink(classifier), quick_config());
  ASSERT_TRUE(server.start());

  ScriptedController controller;
  ASSERT_TRUE(controller.connect(server.port()));
  ASSERT_TRUE(controller.send(masked_vlan_frame(controller.next_xid(), 1)));
  const auto barrier = controller.barrier();
  EXPECT_TRUE(barrier.ok);
  EXPECT_EQ(barrier.errors_seen, 1U);
  EXPECT_TRUE(server.running());

  ASSERT_TRUE(controller.send(flow_mod_frame(controller.next_xid(), 2)));
  ASSERT_TRUE(controller.barrier().ok);
  EXPECT_TRUE(classifier.acquire().tables().contains_entry(0, 2));
  EXPECT_EQ(server.stats().flow_mods_failed, 1U);
  server.stop();
}

// --- seeded FLOW_MOD fuzz: every apply path agrees with apply_mods ---

const std::vector<std::vector<FieldId>> kFuzzLayout = {
    {FieldId::kInPort, FieldId::kEthDst, FieldId::kVlanId},
    {FieldId::kMetadata, FieldId::kIpv4Dst, FieldId::kSrcPort}};
const std::vector<FieldId> kFuzzFields = {
    FieldId::kInPort,   FieldId::kEthDst,  FieldId::kVlanId,
    FieldId::kMetadata, FieldId::kIpv4Dst, FieldId::kSrcPort};

MultiTableLookup fuzz_tables() {
  MultiTableLookup tables;
  for (const auto& fields : kFuzzLayout) tables.add_table(LookupTable(fields, {}));
  return tables;
}

/// Mostly small values, so rules overlap and probes hit them; sometimes the
/// field's maximum, sometimes one past it.
U128 fuzz_value(workload::Rng& rng, unsigned bits) {
  const auto roll = rng.below(8);
  if (roll == 0) return bits == 128 ? ~U128{} : (~U128{}) >> (128 - bits);
  if (roll == 1) return U128{1} << std::min(bits, 127U);
  return U128{rng.below(8)};
}

FieldMatch fuzz_field_match(workload::Rng& rng, FieldId field) {
  const unsigned bits = field_bits(field);
  switch (rng.below(5)) {
    case 0:
      return FieldMatch::any();
    case 1:
      return FieldMatch::exact(fuzz_value(rng, bits));
    case 2: {
      const unsigned width = rng.chance(0.8)
                                 ? bits
                                 : static_cast<unsigned>(rng.between(1, 128));
      const auto length = static_cast<unsigned>(rng.below(width + 1));
      return FieldMatch::of_prefix(Prefix{fuzz_value(rng, bits), length, width});
    }
    case 3: {
      const auto lo = rng.below(8);
      const auto hi = rng.chance(0.1) ? lo + 70000 : lo + rng.below(8);
      return FieldMatch::of_range(lo, hi);
    }
    default:
      return FieldMatch::masked(fuzz_value(rng, bits), U128{rng.below(16)});
  }
}

/// A random decodable FLOW_MOD: any command, table 0..2 (2 does not exist),
/// ids from a pool of 12, 0..3 constraints on any field (mostly the table's
/// own), sometimes an Apply-Actions Set-Field on a field table 1 searches
/// (its value sometimes one past the field's maximum), and sometimes a Goto
/// to any table 0..2.
FlowModMsg fuzz_flow_mod(workload::Rng& rng) {
  FlowModMsg mod;
  mod.command = static_cast<FlowModCommand>(rng.below(3));
  mod.table_id = static_cast<std::uint8_t>(rng.chance(0.9) ? rng.below(2) : 2);
  mod.entry.id = static_cast<FlowEntryId>(1 + rng.below(12));
  mod.entry.priority = static_cast<std::uint16_t>(rng.below(4));
  const auto& own = kFuzzLayout[mod.table_id % kFuzzLayout.size()];
  for (auto n = rng.below(4); n > 0; --n) {
    const FieldId field =
        rng.chance(0.85) ? own[rng.below(own.size())]
                         : static_cast<FieldId>(rng.below(kFieldCount));
    mod.entry.match.set(field, fuzz_field_match(rng, field));
  }
  mod.entry.instructions =
      output_instruction(static_cast<std::uint32_t>(1 + rng.below(4)));
  if (rng.chance(0.5)) {
    const FieldId field = kFuzzLayout[1][rng.below(kFuzzLayout[1].size())];
    mod.entry.instructions.apply_actions.push_back(
        SetFieldAction{field, fuzz_value(rng, field_bits(field))});
  }
  if (rng.chance(0.4)) {
    mod.entry.instructions.goto_table = static_cast<std::uint8_t>(rng.below(3));
    mod.entry.instructions.write_metadata =
        MetadataWrite{rng.below(8), ~std::uint64_t{0}};
  }
  mod.send_flow_removed = rng.chance(0.3);
  return mod;
}

/// xid -> error code of every ERROR frame in `frames`.
std::map<std::uint32_t, ErrorCode> errors_by_xid(
    const std::vector<Envelope>& frames) {
  std::map<std::uint32_t, ErrorCode> errors;
  for (const auto& envelope : frames) {
    if (const auto* error = std::get_if<ErrorMsg>(&envelope.message)) {
      errors[envelope.xid] = error->code;
    }
  }
  return errors;
}

/// 1000 seeded batches of 1–8 fuzzed FLOW_MODs through a Session over the
/// classifier sink and through a SwitchAgent: per-xid ERROR codes must equal
/// an apply_mods oracle's, and 16 random probes per batch must classify
/// identically in the classifier, the oracle, the agent's decomposed
/// pipeline and its reference.
void expect_session_agent_and_oracle_agree(std::uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  workload::Rng rng(seed);
  runtime::SnapshotClassifier classifier(fuzz_tables());
  auto session = steady_session(make_classifier_sink(classifier));
  SwitchAgent agent(kFuzzLayout);
  ASSERT_EQ(agent.handle_control(encode({1, Hello{}})).size(), 1U);
  auto oracle = fuzz_tables();

  std::uint32_t xid = 100;
  std::size_t rejected = 0;
  for (int batch = 0; batch < 1000; ++batch) {
    std::vector<PendingFlowMod> mods;
    std::vector<std::uint8_t> bytes;
    for (auto n = 1 + rng.below(8); n > 0; --n) {
      mods.push_back({xid++, fuzz_flow_mod(rng)});
      const auto frame = encode({mods.back().xid, mods.back().mod});
      bytes.insert(bytes.end(), frame.begin(), frame.end());
    }
    std::vector<ErrorCode> want(mods.size(), ErrorCode::kNone);
    apply_mods(oracle, mods, want);

    ASSERT_NO_THROW(session.on_bytes(bytes, 0)) << "batch " << batch;
    std::vector<std::vector<std::uint8_t>> agent_out;
    ASSERT_NO_THROW(agent_out = agent.handle_control(bytes)) << "batch " << batch;
    std::vector<Envelope> agent_frames;
    for (const auto& frame : agent_out) agent_frames.push_back(decode(frame));
    const auto session_errors = errors_by_xid(drain_frames(session));
    const auto agent_errors = errors_by_xid(agent_frames);
    for (std::size_t i = 0; i < mods.size(); ++i) {
      const auto it = session_errors.find(mods[i].xid);
      const auto got = it == session_errors.end() ? ErrorCode::kNone : it->second;
      EXPECT_EQ(got, want[i]) << "batch " << batch << " mod " << i;
      const auto agent_it = agent_errors.find(mods[i].xid);
      EXPECT_EQ(agent_it == agent_errors.end() ? ErrorCode::kNone
                                               : agent_it->second,
                want[i])
          << "batch " << batch << " mod " << i;
      if (want[i] != ErrorCode::kNone) ++rejected;
    }

    const auto guard = classifier.acquire();
    for (int probe = 0; probe < 16; ++probe) {
      PacketHeader header;
      for (const auto field : kFuzzFields) header.set(field, rng.below(8));
      const auto expected = oracle.execute(header);
      ASSERT_EQ(guard.tables().execute(header), expected) << "batch " << batch;
      ASSERT_EQ(agent.model().pipeline().execute(header), expected)
          << "batch " << batch;
      ASSERT_EQ(agent.model().process_reference(header), expected)
          << "batch " << batch;
    }
  }
  // The generator must exercise both outcomes.
  EXPECT_GT(rejected, 100U);
  EXPECT_GT(session.counters().flow_mods_ok, 100U);
}

TEST(FlowModFuzz, SessionAgentAndOracleAgree) {
  // Were over-wide Set-Field values accepted, seed 1717 would reach a range
  // lookup on src_port 65536 (a throw) and seed 3 a table-1 exact ipv4_dst
  // rule matched by the low bits of 2^32 (a wrong verdict).
  expect_session_agent_and_oracle_agree(1717);
  expect_session_agent_and_oracle_agree(3);
}

// --- stats endpoint: read-only HTTP plane inside the same epoll loop ---

/// Minimal HTTP/1.0 client: send one GET, read to EOF (the endpoint always
/// answers Connection: close).
std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(OfpServerStats, EndpointServesPrometheusAndJson) {
  RecordingSink sink;
  obs::MetricsRegistry registry;
  ServerConfig config = quick_config();
  config.stats_port = 0;  // ephemeral
  config.metrics = &registry;
  OfpServer server(sink.make(), config);
  ASSERT_TRUE(server.start());
  ASSERT_NE(server.stats_port(), 0);

  // Drive one session so the counters have something to say.
  ScriptedController controller;
  ASSERT_TRUE(controller.connect(server.port()));
  ASSERT_TRUE(controller.send(flow_mod_frame(controller.next_xid(), 7)));
  ASSERT_TRUE(controller.barrier().ok);

  const std::string text = http_get(server.stats_port(), "/metrics");
  EXPECT_NE(text.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(text.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ofmtl_ofp_sessions_accepted_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("ofmtl_ofp_sessions_accepted_total 1"),
            std::string::npos);
  EXPECT_NE(text.find("ofmtl_ofp_flow_mods_ok_total 1"), std::string::npos);
  EXPECT_NE(text.find("ofmtl_ofp_active_sessions 1"), std::string::npos);
  EXPECT_NE(text.find("ofmtl_ofp_handshakes_total 1"), std::string::npos);

  const std::string json = http_get(server.stats_port(), "/metrics.json");
  EXPECT_NE(json.find("Content-Type: application/json"), std::string::npos);
  EXPECT_NE(json.find(R"({"metrics":[)"), std::string::npos);
  EXPECT_NE(json.find(R"("name":"ofmtl_ofp_frames_rx_total")"),
            std::string::npos);

  const std::string missing = http_get(server.stats_port(), "/nope");
  EXPECT_NE(missing.find("HTTP/1.0 404 Not Found"), std::string::npos);

  server.stop();
  // The server's provider unregistered on stop: no dangling callback.
  EXPECT_EQ(registry.provider_count(), 0u);
}

TEST(OfpServerStats, EndpointSurvivesHostileAndPartialRequests) {
  RecordingSink sink;
  obs::MetricsRegistry registry;
  ServerConfig config = quick_config();
  config.stats_port = 0;
  config.metrics = &registry;
  OfpServer server(sink.make(), config);
  ASSERT_TRUE(server.start());

  // Garbage request line: answered 404, not crashed.
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.stats_port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    const char junk[] = "\x00\xff garbage\r\n\r\n";
    (void)::send(fd, junk, sizeof junk - 1, 0);
    std::string response;
    char buf[1024];
    while (true) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) break;
      response.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    EXPECT_NE(response.find("404"), std::string::npos);
  }

  // Peer that connects and immediately disconnects: cleaned up, and the
  // data plane is untouched throughout.
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.stats_port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    ::close(fd);
  }
  ScriptedController controller;
  ASSERT_TRUE(controller.connect(server.port()));
  EXPECT_TRUE(controller.barrier().ok);
  EXPECT_NE(http_get(server.stats_port(), "/metrics").find("200 OK"),
            std::string::npos);
  server.stop();
}

TEST(OfpServerStats, DisabledByDefault) {
  RecordingSink sink;
  OfpServer server(sink.make(), quick_config());
  ASSERT_TRUE(server.start());
  EXPECT_EQ(server.stats_port(), 0);  // no listener bound
  server.stop();
}

}  // namespace
}  // namespace ofmtl::ofp::server
