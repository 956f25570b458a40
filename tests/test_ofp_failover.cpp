// Control-plane failover and overload resilience, bottom-up: RoleManager
// generation fencing and deterministic promotion, the FlowJournal /
// compute_resync diff and its convergence contract, the AdmissionController
// overload state machine (hysteresis, dwell, shedding, bounded retry),
// the Session-level wiring of all three (sans-io, virtual clock), and the
// live OfpServer paths that only exist under chaos: EMFILE accept backoff,
// SIGPIPE-free writes to RST'd peers, virtual-clock liveness timeouts, and a
// full kill-the-master / promote / resync / converge scenario over loopback
// TCP driven by the seeded chaos toolkit.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ofp/server/admission.hpp"
#include "ofp/server/flow_mod_sink.hpp"
#include "ofp/server/resync.hpp"
#include "ofp/server/roles.hpp"
#include "ofp/server/server.hpp"
#include "ofp/server/session.hpp"
#include "runtime/snapshot.hpp"
#include "support/ofp/chaos.hpp"
#include "support/ofp/fault_injection.hpp"
#include "workload/rng.hpp"

namespace ofmtl::ofp::server {
namespace {

using testing::ChaosAction;
using testing::ChaosEdge;
using testing::ChaosProfile;
using testing::ChaosScheduler;
using testing::FaultySocket;
using testing::ScriptedController;
using testing::SyscallFaultInjector;
using testing::VirtualClock;

// --- shared helpers ---

FlowModMsg make_mod(std::uint32_t id,
                    FlowModCommand command = FlowModCommand::kAdd,
                    std::uint64_t cookie = 0) {
  FlowModMsg mod;
  mod.command = command;
  mod.table_id = 0;
  mod.cookie = cookie != 0 ? cookie : 0x1000 + id;
  mod.entry.id = id;
  mod.entry.priority = 1;
  mod.entry.match.set(FieldId::kEthDst, FieldMatch::exact(std::uint64_t{id}));
  mod.entry.instructions = output_instruction(id % 1024);
  return mod;
}

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

/// A steady session bound to a shared control plane, handshake drained.
Session steady_session(std::uint64_t id, FlowModSink sink,
                       ControlPlane& control) {
  Session session(id, {}, std::move(sink), control, 0);
  session.on_bytes(encode({1, Hello{}}), 0);
  EXPECT_EQ(drain_frames(session).size(), 1U);
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

// --- RoleManager: fencing and deterministic promotion ---

TEST(RoleManager, SessionsStartEqualAndMasterClaimDemotesPredecessor) {
  RoleManager roles;
  roles.on_session_open(1);
  roles.on_session_open(2);
  EXPECT_EQ(roles.role_of(1), Role::kEqual);
  EXPECT_FALSE(roles.master().has_value());

  auto d = roles.apply(1, {Role::kMaster, 10});
  EXPECT_TRUE(d.accepted);
  EXPECT_EQ(d.role, Role::kMaster);
  EXPECT_EQ(d.generation_id, 10U);
  EXPECT_EQ(roles.master(), std::optional<std::uint64_t>{1});

  // A second master claim moves the mastership and demotes the first.
  d = roles.apply(2, {Role::kMaster, 11});
  EXPECT_TRUE(d.accepted);
  EXPECT_EQ(roles.master(), std::optional<std::uint64_t>{2});
  EXPECT_EQ(roles.role_of(1), Role::kSlave);
}

TEST(RoleManager, StaleGenerationIsFencedEqualGenerationIsNot) {
  RoleManager roles;
  roles.on_session_open(1);
  roles.on_session_open(2);
  ASSERT_TRUE(roles.apply(1, {Role::kMaster, 10}).accepted);

  // The fenced ex-master shape: an older generation must be rejected.
  auto d = roles.apply(2, {Role::kMaster, 9});
  EXPECT_FALSE(d.accepted);
  EXPECT_EQ(d.error, ErrorCode::kStale);
  EXPECT_EQ(roles.master(), std::optional<std::uint64_t>{1});

  // Equal generation is NOT stale (distance 0): OpenFlow allows re-claims.
  EXPECT_TRUE(roles.apply(2, {Role::kMaster, 10}).accepted);
  EXPECT_EQ(roles.master(), std::optional<std::uint64_t>{2});
}

TEST(RoleManager, GenerationComparisonIsCircular) {
  RoleManager roles;
  roles.on_session_open(1);
  const std::uint64_t near_wrap = ~std::uint64_t{0} - 1;
  ASSERT_TRUE(roles.apply(1, {Role::kMaster, near_wrap}).accepted);
  // Wrapping past zero is a *newer* generation in circular comparison.
  EXPECT_TRUE(roles.apply(1, {Role::kMaster, 2}).accepted);
  EXPECT_EQ(roles.generation_id(), 2U);
  // ...and the pre-wrap value is now stale.
  EXPECT_FALSE(roles.apply(1, {Role::kMaster, near_wrap}).accepted);
}

TEST(RoleManager, EqualAndNoChangeAreUnfenced) {
  RoleManager roles;
  roles.on_session_open(1);
  roles.on_session_open(2);
  ASSERT_TRUE(roles.apply(1, {Role::kMaster, 100}).accepted);

  // NOCHANGE is a pure query: no fencing, no mutation, any generation.
  auto d = roles.apply(2, {Role::kNoChange, 1});
  EXPECT_TRUE(d.accepted);
  EXPECT_EQ(d.role, Role::kEqual);
  EXPECT_EQ(roles.master(), std::optional<std::uint64_t>{1});

  // EQUAL is unfenced too (it abandons mastership, never claims it).
  EXPECT_TRUE(roles.apply(1, {Role::kEqual, 1}).accepted);
  EXPECT_FALSE(roles.master().has_value());
}

TEST(RoleManager, MasterLossPromotesLowestIdSlaveDeterministically) {
  RoleManager roles;
  for (std::uint64_t id = 1; id <= 4; ++id) roles.on_session_open(id);
  ASSERT_TRUE(roles.apply(2, {Role::kMaster, 1}).accepted);
  ASSERT_TRUE(roles.apply(4, {Role::kSlave, 2}).accepted);
  ASSERT_TRUE(roles.apply(3, {Role::kSlave, 3}).accepted);
  // Session 1 stays EQUAL: not a promotion candidate.

  const auto promoted = roles.on_session_closed(2);
  ASSERT_TRUE(promoted.has_value());
  EXPECT_EQ(*promoted, 3U);  // lowest-id slave, not the equal session
  EXPECT_EQ(roles.role_of(3), Role::kMaster);
  EXPECT_EQ(roles.master(), std::optional<std::uint64_t>{3});

  // Next death promotes the remaining slave; then nobody is left to promote.
  EXPECT_EQ(roles.on_session_closed(3), std::optional<std::uint64_t>{4});
  EXPECT_FALSE(roles.on_session_closed(4).has_value());
  EXPECT_FALSE(roles.master().has_value());
}

TEST(RoleManager, NonMasterDeathPromotesNobody) {
  RoleManager roles;
  roles.on_session_open(1);
  roles.on_session_open(2);
  ASSERT_TRUE(roles.apply(1, {Role::kMaster, 1}).accepted);
  ASSERT_TRUE(roles.apply(2, {Role::kSlave, 2}).accepted);
  EXPECT_FALSE(roles.on_session_closed(2).has_value());
  EXPECT_EQ(roles.master(), std::optional<std::uint64_t>{1});
}

// --- FlowJournal + compute_resync: the convergence diff ---

TEST(Resync, JournalMirrorsSinkOrderSemantics) {
  FlowJournal journal;
  journal.record(make_mod(1, FlowModCommand::kAdd, 0xA));
  journal.record(make_mod(2, FlowModCommand::kAdd, 0xB));
  EXPECT_EQ(journal.size(), 2U);
  EXPECT_TRUE(journal.contains(0, 1));

  // Modify restamps the cookie; delete erases.
  journal.record(make_mod(1, FlowModCommand::kModify, 0xA2));
  journal.record(make_mod(2, FlowModCommand::kDelete, 0xB));
  EXPECT_EQ(journal.size(), 1U);
  EXPECT_FALSE(journal.contains(0, 2));
  const auto snapshot = journal.snapshot();
  ASSERT_EQ(snapshot.size(), 1U);
  EXPECT_EQ(snapshot[0].cookie, 0xA2U);
}

TEST(Resync, DiffPartitionsStaleMissingAndMatching) {
  FlowJournal journal;
  journal.record(make_mod(1, FlowModCommand::kAdd, 0xA));  // matches digest
  journal.record(make_mod(2, FlowModCommand::kAdd, 0xB));  // not intended
  journal.record(make_mod(3, FlowModCommand::kAdd, 0xC));  // cookie mismatch

  const std::vector<ResyncEntry> digest = {
      {0, 1, 0xA},   // matching: untouched
      {0, 3, 0xC2},  // re-issued with new content: delete + re-send
      {0, 4, 0xD},   // lost in flight: re-send only
  };
  const auto outcome = compute_resync(journal, digest);

  ASSERT_EQ(outcome.deletes.size(), 2U);  // ids 2 and 3, sorted
  EXPECT_EQ(outcome.deletes[0].entry.id, 2U);
  EXPECT_EQ(outcome.deletes[1].entry.id, 3U);
  EXPECT_EQ(outcome.deletes[0].command, FlowModCommand::kDelete);

  ASSERT_EQ(outcome.missing.size(), 2U);  // ids 3 and 4, sorted
  EXPECT_EQ(outcome.missing[0].entry_id, 3U);
  EXPECT_EQ(outcome.missing[1].entry_id, 4U);
}

TEST(Resync, ConvergesAfterApplyingTheDiff) {
  // Convergence argument made executable: apply the plan, journal == digest.
  FlowJournal journal;
  for (std::uint32_t id = 1; id <= 8; ++id) {
    journal.record(make_mod(id, FlowModCommand::kAdd, 0x100 + id));
  }
  std::vector<ResyncEntry> digest;  // intent: odd ids only, id 5 re-issued
  for (std::uint32_t id = 1; id <= 9; id += 2) {
    digest.push_back({0, id, id == 5 ? 0x999 : 0x100 + id});
  }

  const auto outcome = compute_resync(journal, digest);
  for (const auto& del : outcome.deletes) journal.record(del);
  for (const auto& miss : outcome.missing) {
    journal.record(make_mod(miss.entry_id, FlowModCommand::kAdd, miss.cookie));
  }

  ASSERT_EQ(journal.size(), digest.size());
  for (const auto& want : digest) {
    ASSERT_TRUE(journal.contains(want.table_id, want.entry_id));
    EXPECT_EQ(journal.raw().at(FlowJournal::key(want.table_id, want.entry_id)),
              want.cookie);
  }
  // A second diff against the same digest must be empty: fixpoint.
  const auto again = compute_resync(journal, digest);
  EXPECT_TRUE(again.deletes.empty());
  EXPECT_TRUE(again.missing.empty());
}

// --- AdmissionController: hysteresis, dwell, shedding ---

/// NORMAL -> THROTTLE at t=0, THROTTLE -> SHED once the dwell has passed.
void force_shed(AdmissionController& admission) {
  admission.on_pressure_sample(0.80, 0);
  admission.on_pressure_sample(0.95, kMinDwellMs);
  ASSERT_EQ(admission.state(), AdmissionState::kShed);
}

TEST(Admission, HysteresisWithDwellNeverFlaps) {
  AdmissionController admission;
  EXPECT_EQ(admission.state(), AdmissionState::kNormal);

  admission.on_pressure_sample(0.80, 0);
  EXPECT_EQ(admission.state(), AdmissionState::kThrottle);
  // Above kShedEnter but inside the dwell: no transition yet.
  admission.on_pressure_sample(0.95, kMinDwellMs - 1);
  EXPECT_EQ(admission.state(), AdmissionState::kThrottle);
  admission.on_pressure_sample(0.95, kMinDwellMs);
  EXPECT_EQ(admission.state(), AdmissionState::kShed);

  // 0.55 is under kShedExit but over kThrottleExit: SHED unwinds one level
  // and then PARKS in THROTTLE — the hysteresis band between 0.50 and 0.75.
  admission.on_pressure_sample(0.55, 2 * kMinDwellMs);
  EXPECT_EQ(admission.state(), AdmissionState::kThrottle);
  admission.on_pressure_sample(0.55, 4 * kMinDwellMs);
  EXPECT_EQ(admission.state(), AdmissionState::kThrottle);
  // Only dropping through kThrottleExit reaches NORMAL again.
  admission.on_pressure_sample(0.45, 6 * kMinDwellMs);
  EXPECT_EQ(admission.state(), AdmissionState::kNormal);
}

TEST(Admission, OnlyShedRejectsAndNeverTheMaster) {
  AdmissionController admission;
  EXPECT_FALSE(admission.sheds(false));
  EXPECT_FALSE(admission.sheds(true));
  // THROTTLE is the middle rung: it admits exactly as NORMAL does.
  admission.on_pressure_sample(0.80, 0);
  ASSERT_EQ(admission.state(), AdmissionState::kThrottle);
  EXPECT_FALSE(admission.sheds(false));
  EXPECT_FALSE(admission.sheds(true));
  admission.on_pressure_sample(0.95, kMinDwellMs);
  ASSERT_EQ(admission.state(), AdmissionState::kShed);
  EXPECT_TRUE(admission.sheds(false));
  EXPECT_FALSE(admission.sheds(true));  // the master keeps publishing
}

// --- Session: role, resync, and overload wiring (sans-io) ---

struct CountingSink {
  std::vector<std::vector<PendingFlowMod>> batches;
  FlowModSink make() {
    return [this](std::span<const PendingFlowMod> mods,
                  std::span<ErrorCode> results) {
      batches.emplace_back(mods.begin(), mods.end());
      std::fill(results.begin(), results.end(), ErrorCode::kNone);
    };
  }
};

TEST(SessionRoles, RoleRequestRoundTripAndQuery) {
  ControlPlane control;
  CountingSink sink;
  auto session = steady_session(1, sink.make(), control);

  session.on_bytes(encode({5, RoleRequestMsg{Role::kMaster, 7}}), 0);
  auto frames = drain_frames(session);
  ASSERT_EQ(frames.size(), 1U);
  const auto* reply = std::get_if<RoleReplyMsg>(&frames[0].message);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(frames[0].xid, 5U);
  EXPECT_EQ(reply->role, Role::kMaster);
  EXPECT_EQ(reply->generation_id, 7U);
  EXPECT_EQ(session.role(), Role::kMaster);
  EXPECT_EQ(session.counters().role_changes, 1U);

  // NOCHANGE queries without mutating (and without counting a change).
  session.on_bytes(encode({6, RoleRequestMsg{Role::kNoChange, 0}}), 0);
  frames = drain_frames(session);
  ASSERT_EQ(frames.size(), 1U);
  reply = std::get_if<RoleReplyMsg>(&frames[0].message);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->role, Role::kMaster);
  EXPECT_EQ(session.counters().role_changes, 1U);
}

TEST(SessionRoles, StaleClaimAnswersRoleRequestFailedError) {
  ControlPlane control;
  CountingSink sink_a, sink_b;
  auto master = steady_session(1, sink_a.make(), control);
  auto rival = steady_session(2, sink_b.make(), control);

  master.on_bytes(encode({1, RoleRequestMsg{Role::kMaster, 10}}), 0);
  drain_frames(master);
  rival.on_bytes(encode({2, RoleRequestMsg{Role::kMaster, 9}}), 0);
  const auto frames = drain_frames(rival);
  ASSERT_EQ(frames.size(), 1U);
  const auto* error = std::get_if<ErrorMsg>(&frames[0].message);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->type, ErrorType::kRoleRequestFailed);
  EXPECT_EQ(error->code, ErrorCode::kStale);
  EXPECT_EQ(rival.role(), Role::kEqual);
}

TEST(SessionRoles, SlaveFlowModsAreRejectedWithoutTouchingTheSink) {
  ControlPlane control;
  CountingSink sink;
  auto slave = steady_session(1, sink.make(), control);
  slave.on_bytes(encode({1, RoleRequestMsg{Role::kSlave, 1}}), 0);
  drain_frames(slave);

  slave.on_bytes(encode({2, make_mod(7)}), 0);
  slave.on_bytes(encode({3, EchoRequest{{1}}}), 0);
  const auto frames = drain_frames(slave);
  ASSERT_EQ(frames.size(), 2U);
  const auto* error = std::get_if<ErrorMsg>(&frames[0].message);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(frames[0].xid, 2U);
  EXPECT_EQ(error->type, ErrorType::kFlowModFailed);
  EXPECT_EQ(error->code, ErrorCode::kIsSlave);
  EXPECT_TRUE(std::holds_alternative<EchoReply>(frames[1].message));
  EXPECT_TRUE(sink.batches.empty());
  EXPECT_EQ(slave.counters().flow_mods_failed, 1U);
}

TEST(SessionResync, GCsStaleEntriesAndReportsMissing) {
  ControlPlane control;
  CountingSink sink;
  auto session = steady_session(1, sink.make(), control);

  // Publish ids 1..4 (journaled via the accepted sink results).
  for (std::uint32_t id = 1; id <= 4; ++id) {
    session.on_bytes(encode({id, make_mod(id)}), 0);
  }
  session.on_bytes(encode({9, EchoRequest{{0}}}), 0);  // barrier flush
  drain_frames(session);
  ASSERT_EQ(control.journal.size(), 4U);

  // Intent: keep 1 and 2, re-issue 3 with a new cookie, and claim an id 5
  // the switch never saw. Ids 4 and (old) 3 must be GC'd.
  ResyncRequestMsg request;
  request.done = true;
  request.entries = {{0, 1, 0x1001},
                     {0, 2, 0x1002},
                     {0, 3, 0x2222},
                     {0, 5, 0x1005}};
  session.on_bytes(encode({10, request}), 0);
  const auto frames = drain_frames(session);
  ASSERT_EQ(frames.size(), 1U);
  const auto* reply = std::get_if<ResyncReplyMsg>(&frames[0].message);
  ASSERT_NE(reply, nullptr);
  EXPECT_TRUE(reply->done);
  EXPECT_EQ(reply->deleted, 2U);
  ASSERT_EQ(reply->missing.size(), 2U);
  EXPECT_EQ(reply->missing[0].entry_id, 3U);
  EXPECT_EQ(reply->missing[1].entry_id, 5U);
  EXPECT_EQ(session.counters().resyncs, 1U);

  // The GC went through the ordinary sink path as one batch of deletes.
  ASSERT_FALSE(sink.batches.empty());
  const auto& gc = sink.batches.back();
  ASSERT_EQ(gc.size(), 2U);
  EXPECT_EQ(gc[0].mod.command, FlowModCommand::kDelete);
  EXPECT_EQ(gc[0].mod.entry.id, 3U);
  EXPECT_EQ(gc[1].mod.entry.id, 4U);

  // Journal converged to the intent minus the still-missing re-sends.
  EXPECT_TRUE(control.journal.contains(0, 1));
  EXPECT_TRUE(control.journal.contains(0, 2));
  EXPECT_FALSE(control.journal.contains(0, 3));
  EXPECT_FALSE(control.journal.contains(0, 4));
}

TEST(SessionResync, SlaveMayNotResyncAndChunksAccumulate) {
  ControlPlane control;
  CountingSink sink_a, sink_b;
  auto slave = steady_session(1, sink_a.make(), control);
  slave.on_bytes(encode({1, RoleRequestMsg{Role::kSlave, 1}}), 0);
  drain_frames(slave);
  ResyncRequestMsg request;
  request.done = true;
  slave.on_bytes(encode({2, request}), 0);
  auto frames = drain_frames(slave);
  ASSERT_EQ(frames.size(), 1U);
  const auto* error = std::get_if<ErrorMsg>(&frames[0].message);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, ErrorCode::kIsSlave);

  // A master streams the digest across chunks; only `done` triggers the diff.
  auto master = steady_session(2, sink_b.make(), control);
  ResyncRequestMsg chunk1;
  chunk1.done = false;
  chunk1.entries = {{0, 1, 0xA}};
  ResyncRequestMsg chunk2;
  chunk2.done = true;
  chunk2.entries = {{0, 2, 0xB}};
  master.on_bytes(encode({3, chunk1}), 0);
  EXPECT_TRUE(drain_frames(master).empty());
  master.on_bytes(encode({3, chunk2}), 0);
  frames = drain_frames(master);
  ASSERT_EQ(frames.size(), 1U);
  const auto* reply = std::get_if<ResyncReplyMsg>(&frames[0].message);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->missing.size(), 2U);  // both ids unknown to the journal
}

TEST(SessionResync, DigestOverCapDrainsTheSession) {
  ControlPlane control;
  CountingSink sink;
  auto session = steady_session(1, sink.make(), control);
  // Not-done chunks of up to 5040 entries (13 bytes each, so one chunk
  // fills a maximum-size frame) up to exactly the cap: still serving.
  constexpr std::size_t kChunk = 5040;
  auto chunk_of = [](std::size_t first, std::size_t count) {
    ResyncRequestMsg request;
    request.done = false;
    for (std::size_t i = 0; i < count; ++i) {
      const auto id = static_cast<FlowEntryId>(first + i);
      request.entries.push_back({0, id, id});
    }
    return encode({1, request});
  };
  for (std::size_t sent = 0; sent < Session::kMaxResyncDigest;) {
    const auto count = std::min(kChunk, Session::kMaxResyncDigest - sent);
    session.on_bytes(chunk_of(sent, count), 0);
    sent += count;
  }
  ASSERT_EQ(session.state(), Session::State::kSteady);
  EXPECT_TRUE(drain_frames(session).empty());

  // One entry past the cap is a protocol error.
  session.on_bytes(chunk_of(Session::kMaxResyncDigest, 1), 0);
  const auto frames = drain_frames(session);
  ASSERT_FALSE(frames.empty());
  const auto* error = std::get_if<ErrorMsg>(&frames[0].message);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, ErrorCode::kBufferOverflow);
  EXPECT_EQ(session.close_reason(), CloseReason::kProtocolError);
}

/// Feed `count` flow-mods from xid `first_xid` on, in chunks the read
/// buffer holds, and drain the replies; returns how many were kOverload
/// ERRORs carrying the backoff hint.
std::size_t feed_mods(Session& session, std::uint32_t first_xid,
                      std::size_t count, std::uint64_t now) {
  std::size_t overload_errors = 0;
  for (std::size_t sent = 0; sent < count;) {
    std::vector<std::uint8_t> bytes;
    for (std::size_t i = 0; i < 256 && sent < count; ++i, ++sent) {
      const auto xid = first_xid + static_cast<std::uint32_t>(sent);
      const auto frame = encode({xid, make_mod(xid)});
      bytes.insert(bytes.end(), frame.begin(), frame.end());
    }
    session.on_bytes(bytes, now);
    for (const auto& envelope : drain_frames(session)) {
      const auto* error = std::get_if<ErrorMsg>(&envelope.message);
      if (error == nullptr || error->code != ErrorCode::kOverload) continue;
      // The reply data carries the 16-bit big-endian backoff hint.
      EXPECT_EQ(error->type, ErrorType::kFlowModFailed);
      EXPECT_EQ(error->data.size(), 2U);
      if (error->data.size() == 2 &&
          ((error->data[0] << 8) | error->data[1]) == kBackoffHintMs) {
        overload_errors++;
      }
    }
  }
  return overload_errors;
}

TEST(SessionOverload, ShedModsEarnBackoffHintedErrorsThenDrain) {
  ControlPlane control;
  CountingSink sink;
  auto session = steady_session(1, sink.make(), control);
  // Force SHED; the session holds no role, so its mods are rejected.
  force_shed(control.admission);

  session.on_bytes(encode({1, make_mod(1)}), 10);
  session.on_bytes(encode({2, EchoRequest{{0}}}), 10);
  auto frames = drain_frames(session);
  ASSERT_EQ(frames.size(), 2U);
  const auto* error = std::get_if<ErrorMsg>(&frames[0].message);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->type, ErrorType::kFlowModFailed);
  EXPECT_EQ(error->code, ErrorCode::kOverload);
  ASSERT_EQ(error->data.size(), 2U);
  EXPECT_EQ((error->data[0] << 8) | error->data[1], kBackoffHintMs);
  EXPECT_TRUE(sink.batches.empty());
  EXPECT_EQ(session.counters().flow_mods_shed, 1U);

  // One short of the budget: still serving.
  EXPECT_EQ(feed_mods(session, 10, kMaxConsecutiveRejects - 2, 11),
            kMaxConsecutiveRejects - 2);
  EXPECT_EQ(session.state(), Session::State::kSteady);
  // The budget's last mod drains the session.
  EXPECT_EQ(feed_mods(session, 10'000, 1, 12), 1U);
  EXPECT_NE(session.state(), Session::State::kSteady);
  EXPECT_EQ(session.close_reason(), CloseReason::kOverload);
  EXPECT_EQ(session.counters().flow_mods_shed, kMaxConsecutiveRejects);
  EXPECT_TRUE(sink.batches.empty());
}

TEST(SessionOverload, RejectBudgetIsPerSessionAndResetsOnAdmit) {
  ControlPlane control;
  CountingSink sink_a, sink_b;
  auto a = steady_session(1, sink_a.make(), control);
  auto b = steady_session(2, sink_b.make(), control);
  force_shed(control.admission);

  // B sheds one short of the budget; A then spends its whole budget and is
  // drained. The count is per session: B keeps serving.
  feed_mods(b, 1, kMaxConsecutiveRejects - 1, 10);
  feed_mods(a, 1, kMaxConsecutiveRejects, 10);
  EXPECT_EQ(a.close_reason(), CloseReason::kOverload);
  EXPECT_EQ(b.state(), Session::State::kSteady);

  // Pressure eases to THROTTLE, which admits non-masters: B's next batch is
  // applied, and that resets its count.
  control.admission.on_pressure_sample(0.55, 2 * kMinDwellMs);
  ASSERT_EQ(control.admission.state(), AdmissionState::kThrottle);
  EXPECT_EQ(feed_mods(b, 20'000, 1, 20), 0U);
  EXPECT_EQ(sink_b.batches.size(), 1U);

  // Back in SHED, B again gets a full budget less one before it would
  // drain, though its total shed count is past the budget.
  control.admission.on_pressure_sample(0.95, 3 * kMinDwellMs);
  ASSERT_EQ(control.admission.state(), AdmissionState::kShed);
  feed_mods(b, 30'000, kMaxConsecutiveRejects - 1, 30);
  EXPECT_EQ(b.state(), Session::State::kSteady);
  EXPECT_EQ(b.counters().flow_mods_shed, 2 * (kMaxConsecutiveRejects - 1));
  EXPECT_TRUE(sink_a.batches.empty());
}

TEST(SessionOverload, MasterKeepsPublishingUnderShed) {
  ControlPlane control;
  CountingSink sink;
  auto master = steady_session(1, sink.make(), control);
  master.on_bytes(encode({1, RoleRequestMsg{Role::kMaster, 1}}), 0);
  drain_frames(master);
  force_shed(control.admission);

  master.on_bytes(encode({2, make_mod(1)}), 10);
  master.on_bytes(encode({3, EchoRequest{{0}}}), 10);
  const auto frames = drain_frames(master);
  ASSERT_EQ(frames.size(), 1U);
  EXPECT_TRUE(std::holds_alternative<EchoReply>(frames[0].message));
  ASSERT_EQ(sink.batches.size(), 1U);
  EXPECT_EQ(master.counters().flow_mods_ok, 1U);
}

TEST(SessionDrain, StalledDrainClosesAtTheDeadline) {
  ControlPlane control;
  CountingSink sink;
  auto session = steady_session(1, sink.make(), control);

  // An echo reply is queued, then the peer half-closes: the session drains.
  session.on_bytes(encode({10, EchoRequest{{1, 2, 3}}}), 100);
  session.on_peer_closed(100);
  ASSERT_EQ(session.state(), Session::State::kDraining);
  ASSERT_FALSE(session.wants_close());  // the reply is still queued
  constexpr auto kDeadline = 100 + Session::kDrainTimeoutMs;
  EXPECT_EQ(session.next_deadline_ms(), kDeadline);

  // The peer never reads. Before the deadline: still draining. At it: gone.
  session.on_tick(kDeadline - 1);
  EXPECT_EQ(session.state(), Session::State::kDraining);
  session.on_tick(kDeadline);
  EXPECT_EQ(session.state(), Session::State::kClosed);
}

TEST(SessionRoles, PromotionNoticeCarriesXidZero) {
  ControlPlane control;
  CountingSink sink;
  auto session = steady_session(1, sink.make(), control);
  session.on_bytes(encode({1, RoleRequestMsg{Role::kSlave, 1}}), 0);
  drain_frames(session);

  session.notify_role(Role::kMaster, 1, 0);
  const auto frames = drain_frames(session);
  ASSERT_EQ(frames.size(), 1U);
  EXPECT_EQ(frames[0].xid, 0U);
  const auto* reply = std::get_if<RoleReplyMsg>(&frames[0].message);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->role, Role::kMaster);
}

// --- FrameAssembler: every-boundary split sweep over the new vocabulary ---

TEST(FrameAssembler, EveryTwoPartSplitOfEveryMessageReassembles) {
  std::vector<std::vector<std::uint8_t>> frames = {
      encode({1, Hello{}}),
      encode({2, RoleRequestMsg{Role::kMaster, 0xDEADBEEF}}),
      encode({3, RoleReplyMsg{Role::kSlave, 7}}),
      encode({4, ResyncRequestMsg{true, {{0, 1, 0xA}, {1, 2, 0xB}}}}),
      encode({5, ResyncReplyMsg{true, 3, {{0, 9, 0xC}}}}),
      encode({6, make_mod(42)}),
  };
  std::vector<std::uint8_t> stream;
  for (const auto& f : frames) stream.insert(stream.end(), f.begin(), f.end());

  for (std::size_t split = 0; split <= stream.size(); ++split) {
    FrameAssembler assembler;
    ASSERT_EQ(assembler.push({stream.data(), split}), FrameAssembler::Status::kOk);
    ASSERT_EQ(assembler.push({stream.data() + split, stream.size() - split}),
              FrameAssembler::Status::kOk);
    std::vector<std::uint8_t> frame;
    std::size_t got = 0;
    while (assembler.next(frame)) {
      ASSERT_LT(got, frames.size());
      ASSERT_EQ(frame, frames[got]) << "split at byte " << split;
      got++;
    }
    ASSERT_EQ(got, frames.size()) << "split at byte " << split;
    ASSERT_EQ(assembler.buffered(), 0U);
  }
}

// --- chaos toolkit determinism ---

TEST(Chaos, SchedulerReplaysBitIdenticallyFromTheSeed) {
  ChaosProfile profile;
  profile.kill_every = 4;
  profile.stall_p = 0.3;
  profile.partition_p = 0.2;
  profile.clock_skew_p = 0.1;
  ChaosScheduler a(42, profile);
  ChaosScheduler b(42, profile);
  ChaosScheduler c(43, profile);
  bool diverged_from_c = false;
  for (int i = 0; i < 256; ++i) {
    const auto edge = static_cast<ChaosEdge>(i % 5);
    const auto da = a.decide(edge);
    const auto db = b.decide(edge);
    const auto dc = c.decide(edge);
    ASSERT_EQ(da.action, db.action);
    ASSERT_EQ(da.param_ms, db.param_ms);
    if (da.action != dc.action || da.param_ms != dc.param_ms) {
      diverged_from_c = true;
    }
  }
  EXPECT_TRUE(diverged_from_c);  // a different seed is a different schedule
  EXPECT_EQ(a.chunks_seen(), b.chunks_seen());
}

TEST(Chaos, KillEveryFiresOnChunkEdgesOnly) {
  ChaosProfile profile;
  profile.kill_every = 3;
  ChaosScheduler chaos(1, profile);
  int kills = 0;
  for (int i = 0; i < 9; ++i) {
    if (chaos.decide(ChaosEdge::kChunkSent).action == ChaosAction::kKill) {
      kills++;
    }
    // Non-chunk edges never trip the periodic kill counter.
    ASSERT_EQ(chaos.decide(ChaosEdge::kBarrier).action, ChaosAction::kNone);
  }
  EXPECT_EQ(kills, 3);
}

// --- live server: chaos-only paths ---

MultiTableLookup one_table() {
  MultiTableLookup tables;
  tables.add_table(LookupTable({FieldId::kEthDst}, {}));
  return tables;
}

TEST(OfpServerChaos, VirtualClockDrivesEchoTimeoutWithoutSleeps) {
  VirtualClock clock;
  ServerConfig config;
  config.session.echo_interval_ms = 5000;
  config.hooks.now_ms = clock.hook();
  runtime::SnapshotClassifier classifier(one_table());
  OfpServer server(make_classifier_sink(classifier), config);
  ASSERT_TRUE(server.start());

  ScriptedController controller;
  ASSERT_TRUE(controller.connect(server.port()));
  // Idle at frozen virtual time: the probe never fires, the session lives.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  EXPECT_EQ(server.stats().echo_timeouts, 0U);
  EXPECT_EQ(server.active_sessions(), 1U);

  // Jump past the echo interval; the loop's 200ms wake floor picks the new
  // time up and fires the probe (frame #2 after the HELLO).
  clock.advance(6000);
  EXPECT_TRUE(wait_until([&] { return server.stats().frames_tx >= 2; }, 2000));
  // The probe deadline is grace past the *advanced* clock: jump again. The
  // peer stays silent, so the session must die.
  clock.advance(3000);
  EXPECT_TRUE(wait_until(
      [&] { return server.stats().echo_timeouts == 1; }, 2000));
  EXPECT_TRUE(wait_until([&] { return server.active_sessions() == 0; }, 2000));
  server.stop();
}

TEST(OfpServerChaos, EmfileStormPausesAcceptThenRecovers) {
  SyscallFaultInjector faults(7);
  ServerConfig config;
  config.hooks = faults.hooks();
  runtime::SnapshotClassifier classifier(one_table());
  OfpServer server(make_classifier_sink(classifier), config);
  ASSERT_TRUE(server.start());

  faults.arm_accept_failures(2, EMFILE);
  ScriptedController first;
  // The first connect lands while accept is failing: TCP connects (queued)
  // but the server-side accept is deferred until the backoff elapses, so the
  // handshake simply takes one backoff longer.
  ASSERT_TRUE(first.connect(server.port()));
  EXPECT_TRUE(wait_until(
      [&] { return server.stats().accept_pauses >= 1; }, 2000));
  EXPECT_TRUE(wait_until([&] { return server.active_sessions() == 1; }, 2000));

  // Fully recovered: the next controller gets in without armed faults.
  ScriptedController second;
  ASSERT_TRUE(second.connect(server.port()));
  EXPECT_TRUE(wait_until([&] { return server.active_sessions() == 2; }, 2000));
  server.stop();
}

TEST(OfpServerChaos, ForcedPartialSyscallsStillConverge) {
  SyscallFaultInjector faults(11);
  faults.set_partial_p(0.5);  // every other read/send truncated to 1 byte
  ServerConfig config;
  config.hooks = faults.hooks();
  runtime::SnapshotClassifier classifier(one_table());
  OfpServer server(make_classifier_sink(classifier), config);
  ASSERT_TRUE(server.start());

  ScriptedController controller;
  ASSERT_TRUE(controller.connect(server.port()));
  for (std::uint32_t id = 1; id <= 32; ++id) {
    ASSERT_TRUE(controller.send(encode({controller.next_xid(), make_mod(id)})));
  }
  ASSERT_TRUE(controller.barrier().ok);
  {
    const auto guard = classifier.acquire();
    for (std::uint32_t id = 1; id <= 32; ++id) {
      EXPECT_TRUE(guard.tables().contains_entry(0, id));
    }
  }
  server.stop();
}

TEST(OfpServerChaos, RstPeerWithQueuedOutputDoesNotRaiseSigpipe) {
  // MSG_NOSIGNAL regression: queue replies at a peer that RSTs without
  // reading. A SIGPIPE would kill the whole test binary, so surviving to
  // the end of this test IS the assertion.
  runtime::SnapshotClassifier classifier(one_table());
  ServerConfig config;
  OfpServer server(make_classifier_sink(classifier), config);
  ASSERT_TRUE(server.start());

  for (int round = 0; round < 8; ++round) {
    ScriptedController controller;
    ASSERT_TRUE(controller.connect(server.port()));
    // Pile up replies (echo floods) without reading any of them...
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(controller.send(
          encode({controller.next_xid(), EchoRequest{{1, 2, 3}}})));
    }
    // ...then slam the door. The server's pending writes hit an RST'd fd.
    controller.socket().rst();
  }
  EXPECT_TRUE(wait_until([&] { return server.active_sessions() == 0; }, 3000));
  EXPECT_TRUE(server.running());
  server.stop();
}

TEST(OfpServerChaos, MasterKillPromotesResyncsAndConverges) {
  runtime::SnapshotClassifier classifier(one_table());
  ServerConfig config;
  OfpServer server(make_classifier_sink(classifier), config);
  ASSERT_TRUE(server.start());

  ScriptedController master, standby;
  ASSERT_TRUE(master.connect(server.port()));
  ASSERT_TRUE(standby.connect(server.port()));
  auto claimed = master.request_role(Role::kMaster, 1);
  ASSERT_TRUE(claimed.has_value());
  ASSERT_EQ(claimed->role, Role::kMaster);
  claimed = standby.request_role(Role::kSlave, 2);
  ASSERT_TRUE(claimed.has_value());
  ASSERT_EQ(claimed->role, Role::kSlave);

  // The master publishes ids 1..8 and confirms them with a barrier, then
  // ships 9..10 and dies before any barrier could confirm them.
  for (std::uint32_t id = 1; id <= 8; ++id) {
    ASSERT_TRUE(master.send(
        encode({master.next_xid(), make_mod(id, FlowModCommand::kAdd,
                                            0x5000 + id)})));
  }
  ASSERT_TRUE(master.barrier().ok);
  for (std::uint32_t id = 9; id <= 10; ++id) {
    ASSERT_TRUE(master.send(
        encode({master.next_xid(), make_mod(id, FlowModCommand::kAdd,
                                            0x5000 + id)})));
  }
  ASSERT_TRUE(master.barrier().ok);  // make them land, but do NOT checkpoint
  master.socket().rst();

  // Promotion notice reaches the standby without any election traffic.
  const auto notice = standby.await_promotion();
  ASSERT_TRUE(notice.has_value());
  EXPECT_EQ(notice->role, Role::kMaster);
  EXPECT_TRUE(wait_until([&] { return server.stats().promotions == 1; }, 2000));

  // Resync to the survivor's confirmed intent (1..8): 9..10 are GC'd as
  // stale, nothing is missing.
  std::vector<ResyncEntry> intent;
  for (std::uint32_t id = 1; id <= 8; ++id) intent.push_back({0, id, 0x5000 + id});
  const auto verdict = standby.resync(intent);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->deleted, 2U);
  EXPECT_TRUE(verdict->missing.empty());

  {
    const auto guard = classifier.acquire();
    for (std::uint32_t id = 1; id <= 8; ++id) {
      EXPECT_TRUE(guard.tables().contains_entry(0, id)) << id;
    }
    EXPECT_FALSE(guard.tables().contains_entry(0, 9));
    EXPECT_FALSE(guard.tables().contains_entry(0, 10));
  }

  // A fenced ex-master reconnecting with its stale generation stays out.
  ScriptedController ghost;
  ASSERT_TRUE(ghost.connect(server.port()));
  EXPECT_FALSE(ghost.request_role(Role::kMaster, 1).has_value());

  const auto stats = server.stats();
  EXPECT_EQ(stats.resyncs, 1U);
  EXPECT_GE(stats.role_changes, 3U);  // master, slave, promotion
  server.stop();
}

}  // namespace
}  // namespace ofmtl::ofp::server
