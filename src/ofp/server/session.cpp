#include "ofp/server/session.hpp"

#include <algorithm>

#include "net/packet.hpp"
#include "obs/tracer.hpp"

namespace ofmtl::ofp::server {

const char* to_string(CloseReason reason) {
  switch (reason) {
    case CloseReason::kNone: return "none";
    case CloseReason::kPeerClosed: return "peer-closed";
    case CloseReason::kHandshakeFailed: return "handshake-failed";
    case CloseReason::kProtocolError: return "protocol-error";
    case CloseReason::kReadOverflow: return "read-overflow";
    case CloseReason::kBackpressure: return "backpressure";
    case CloseReason::kEchoTimeout: return "echo-timeout";
    case CloseReason::kServerShutdown: return "server-shutdown";
    case CloseReason::kOverload: return "overload";
  }
  return "unknown";
}

namespace {

/// kOverload ERROR data payload: the big-endian u16 backoff hint in ms.
constexpr std::uint8_t kBackoffHint[] = {
    static_cast<std::uint8_t>(kBackoffHintMs >> 8),
    static_cast<std::uint8_t>(kBackoffHintMs)};

}  // namespace

Session::Session(std::uint64_t id, SessionConfig config, FlowModSink sink,
                 std::uint64_t now_ms)
    : Session(id, config, std::move(sink), std::make_unique<ControlPlane>(),
              nullptr, now_ms) {}

Session::Session(std::uint64_t id, SessionConfig config, FlowModSink sink,
                 ControlPlane& control, std::uint64_t now_ms)
    : Session(id, config, std::move(sink), nullptr, &control, now_ms) {}

Session::Session(std::uint64_t id, SessionConfig config, FlowModSink sink,
                 std::unique_ptr<ControlPlane> owned, ControlPlane* shared,
                 std::uint64_t now_ms)
    : id_(id),
      config_(config),
      sink_(std::move(sink)),
      owned_control_(std::move(owned)),
      control_(owned_control_ ? owned_control_.get() : shared),
      assembler_(kReadBufferCap),
      last_rx_ms_(now_ms) {
  control_->roles.on_session_open(id_);
  // Both sides open with HELLO; ours goes out immediately.
  queue_output(encode({next_xid_++, Hello{}}), now_ms);
}

void Session::on_bytes(std::span<const std::uint8_t> bytes,
                       std::uint64_t now_ms) {
  if (state_ == State::kDraining || state_ == State::kClosed) return;
  // Ingest slice: everything this read round triggered (framing, decode,
  // apply, replies) nests inside it on the timeline.
  OFMTL_OBS_EMIT(obs::TraceEvent::kOfpReadBegin, id_, bytes.size());
  // Any inbound byte proves the peer alive: clear an outstanding probe and
  // restart the idle clock.
  last_rx_ms_ = now_ms;
  probe_deadline_ms_.reset();

  // Feed the assembler no more than its cap has room for and drain the
  // frames that completed between pieces, so one span may carry any number
  // of frames: only a partial frame stays buffered.
  auto push_status = FrameAssembler::Status::kOk;
  auto rest = bytes;
  while (!rest.empty() && push_status == FrameAssembler::Status::kOk &&
         state_ != State::kDraining) {
    // A full buffer with no complete frame in it overflows on one more byte.
    const std::size_t room =
        std::max<std::size_t>(kReadBufferCap - assembler_.buffered(), 1);
    const auto piece = rest.first(std::min(rest.size(), room));
    rest = rest.subspan(piece.size());
    push_status = assembler_.push(piece);
    // Drain the frames that completed (even when the push poisoned the
    // stream: frames before the poison point are intact and must count).
    while (state_ != State::kDraining && assembler_.next(frame_)) {
      handle_frame(frame_, now_ms);
    }
  }
  if (state_ == State::kDraining || state_ == State::kClosed) {
    mods_.clear();
    OFMTL_OBS_EMIT(obs::TraceEvent::kOfpReadEnd, id_, bytes.size());
    return;
  }
  flush_mods(now_ms);
  if (push_status == FrameAssembler::Status::kOverflow ||
      assembler_.status() == FrameAssembler::Status::kOverflow) {
    begin_drain(CloseReason::kReadOverflow, now_ms);
  } else if (assembler_.status() == FrameAssembler::Status::kBadLength) {
    // Framing sync is unrecoverable: one best-effort ERROR, then close.
    counters_.malformed_frames++;
    queue_output(encode_error(0, ErrorType::kBadRequest, ErrorCode::kBadLength),
                 now_ms);
    begin_drain(CloseReason::kProtocolError, now_ms);
  }
  OFMTL_OBS_EMIT(obs::TraceEvent::kOfpReadEnd, id_, bytes.size());
}

void Session::handle_frame(const std::vector<std::uint8_t>& frame,
                           std::uint64_t now_ms) {
  counters_.frames_rx++;
  Envelope envelope;
  OFMTL_OBS_EMIT(obs::TraceEvent::kOfpDecodeBegin, id_, frame.size());
  const auto status = try_decode(frame, envelope);
  OFMTL_OBS_EMIT(obs::TraceEvent::kOfpDecodeEnd, id_,
                 (static_cast<std::uint64_t>(status) << 32) | frame.size());
  if (status != DecodeStatus::kOk) {
    counters_.malformed_frames++;
    if (state_ == State::kAwaitHello) {
      queue_output(encode_error(peek_xid(frame), ErrorType::kHelloFailed,
                                error_code_for(status), frame),
                   now_ms);
      begin_drain(CloseReason::kHandshakeFailed, now_ms);
      return;
    }
    // A malformed body still answers in frame order: flush pending mods so
    // the ERROR cannot overtake them. The session keeps serving.
    flush_mods(now_ms);
    queue_output(encode_error(peek_xid(frame), ErrorType::kBadRequest,
                              error_code_for(status), frame),
                 now_ms);
    return;
  }
  handle_message(envelope, frame, now_ms);
}

void Session::handle_message(const Envelope& envelope,
                             const std::vector<std::uint8_t>& frame,
                             std::uint64_t now_ms) {
  if (state_ == State::kAwaitHello) {
    if (!std::holds_alternative<Hello>(envelope.message)) {
      queue_output(encode_error(envelope.xid, ErrorType::kHelloFailed,
                                ErrorCode::kBadType, frame),
                   now_ms);
      begin_drain(CloseReason::kHandshakeFailed, now_ms);
      return;
    }
    state_ = State::kSteady;
    return;
  }

  if (const auto* mod = std::get_if<FlowModMsg>(&envelope.message)) {
    if (role() == Role::kSlave) {
      // Slaves are read-only (OF1.3): answer in frame order — flush the
      // batch so this ERROR cannot overtake earlier mods' replies.
      flush_mods(now_ms);
      counters_.flow_mods_failed++;
      queue_output(encode_error(envelope.xid, ErrorType::kFlowModFailed,
                                ErrorCode::kIsSlave, frame),
                   now_ms);
      return;
    }
    mods_.push_back({envelope.xid, *mod});
    if (mods_.size() >= kMaxModsPerBatch) flush_mods(now_ms);
    return;
  }
  // Every non-flow-mod message is a barrier: earlier mods must be applied
  // (and their errors queued) before this message's reply goes out.
  flush_mods(now_ms);

  if (std::holds_alternative<RoleRequestMsg>(envelope.message)) {
    handle_role_request(envelope, now_ms);
    return;
  }
  if (std::holds_alternative<ResyncRequestMsg>(envelope.message)) {
    handle_resync_request(envelope, now_ms);
    return;
  }

  if (const auto* echo = std::get_if<EchoRequest>(&envelope.message)) {
    // Barrier slice: the echo reply queues only after flush_mods above
    // published every earlier flow-mod, so this duration is the
    // controller-visible barrier turnaround inside the server.
    OFMTL_OBS_EMIT(obs::TraceEvent::kOfpBarrierBegin, id_,
                   echo->payload.size());
    queue_output(encode({envelope.xid, EchoReply{echo->payload}}), now_ms);
    OFMTL_OBS_EMIT(obs::TraceEvent::kOfpBarrierEnd, id_,
                   echo->payload.size());
    return;
  }
  if (std::holds_alternative<EchoReply>(envelope.message)) {
    return;  // liveness bookkeeping already done in on_bytes
  }
  if (std::holds_alternative<Hello>(envelope.message)) {
    return;  // redundant HELLO: harmless
  }
  if (const auto* out = std::get_if<PacketOut>(&envelope.message)) {
    PacketHeader header;
    if (!parse_packet_header(out->frame, out->in_port, header)) {
      queue_output(encode_error(envelope.xid, ErrorType::kBadRequest,
                                ErrorCode::kBadValue, frame),
                   now_ms);
    }
    return;
  }
  // Switch->controller types on the inbound path: protocol violation.
  queue_output(encode_error(envelope.xid, ErrorType::kBadRequest,
                            ErrorCode::kBadType, frame),
               now_ms);
}

void Session::handle_role_request(const Envelope& envelope,
                                  std::uint64_t now_ms) {
  const auto& request = std::get<RoleRequestMsg>(envelope.message);
  const auto decision = control_->roles.apply(id_, request);
  if (!decision.accepted) {
    queue_output(encode_error(envelope.xid, ErrorType::kRoleRequestFailed,
                              decision.error),
                 now_ms);
    return;
  }
  if (request.role != Role::kNoChange) counters_.role_changes++;
  queue_output(
      encode({envelope.xid, RoleReplyMsg{decision.role, decision.generation_id}}),
      now_ms);
}

void Session::handle_resync_request(const Envelope& envelope,
                                    std::uint64_t now_ms) {
  if (role() == Role::kSlave) {
    queue_output(encode_error(envelope.xid, ErrorType::kBadRequest,
                              ErrorCode::kIsSlave),
                 now_ms);
    return;
  }
  const auto& request = std::get<ResyncRequestMsg>(envelope.message);
  if (resync_digest_.size() + request.entries.size() > kMaxResyncDigest) {
    // A digest that cannot fit is a protocol violation, not a memory leak.
    resync_digest_.clear();
    queue_output(encode_error(envelope.xid, ErrorType::kBadRequest,
                              ErrorCode::kBufferOverflow),
                 now_ms);
    begin_drain(CloseReason::kProtocolError, now_ms);
    return;
  }
  resync_digest_.insert(resync_digest_.end(), request.entries.begin(),
                        request.entries.end());
  if (request.done) finish_resync(envelope.xid, now_ms);
}

void Session::finish_resync(std::uint32_t xid, std::uint64_t now_ms) {
  const auto outcome = compute_resync(control_->journal, resync_digest_);
  resync_digest_.clear();
  counters_.resyncs++;

  // GC stale entries through the ordinary sink path: one batch, one
  // left-right publish. kUnknownEntry from the sink means the table already
  // lacked the entry; erasing the journal record converges either way.
  if (!outcome.deletes.empty()) {
    std::vector<PendingFlowMod> deletes;
    deletes.reserve(outcome.deletes.size());
    for (const auto& del : outcome.deletes) deletes.push_back({xid, del});
    mod_results_.assign(deletes.size(), ErrorCode::kNone);
    sink_(deletes, mod_results_);
    for (const auto& del : outcome.deletes) control_->journal.record(del);
  }

  // Chunked reply under the 64 KiB frame cap; `deleted` rides the final
  // chunk (the one marked done).
  constexpr std::size_t kReplyChunk = 1024;
  std::size_t offset = 0;
  do {
    const auto take = std::min(kReplyChunk, outcome.missing.size() - offset);
    ResyncReplyMsg reply;
    reply.missing.assign(
        outcome.missing.begin() + static_cast<long>(offset),
        outcome.missing.begin() + static_cast<long>(offset + take));
    offset += take;
    reply.done = offset == outcome.missing.size();
    reply.deleted =
        reply.done ? static_cast<std::uint32_t>(outcome.deletes.size()) : 0;
    queue_output(encode({xid, std::move(reply)}), now_ms);
  } while (offset < outcome.missing.size() && state_ == State::kSteady);
}

void Session::flush_mods(std::uint64_t now_ms) {
  if (mods_.empty()) return;
  if (control_->admission.sheds(role() == Role::kMaster)) {
    // Shed the whole batch: every xid still gets an answer — an ERROR with
    // a backoff hint — so the controller can retry after the hint, and a
    // controller that never backs off exhausts its rejection budget and is
    // drained (bounded retry).
    counters_.flow_mods_shed += mods_.size();
    consecutive_rejects_ += mods_.size();
    for (const auto& mod : mods_) {
      queue_output(encode_error(mod.xid, ErrorType::kFlowModFailed,
                                ErrorCode::kOverload, kBackoffHint),
                   now_ms);
      if (state_ != State::kSteady) break;  // backpressure drain kicked in
    }
    mods_.clear();
    if (consecutive_rejects_ >= kMaxConsecutiveRejects) {
      begin_drain(CloseReason::kOverload, now_ms);
    }
    return;
  }
  consecutive_rejects_ = 0;
  mod_results_.assign(mods_.size(), ErrorCode::kNone);
  OFMTL_OBS_EMIT(obs::TraceEvent::kOfpApplyBegin, id_, mods_.size());
  sink_(mods_, mod_results_);
  OFMTL_OBS_EMIT(obs::TraceEvent::kOfpApplyEnd, id_, mods_.size());
  for (std::size_t i = 0; i < mods_.size(); ++i) {
    if (mod_results_[i] == ErrorCode::kNone) {
      counters_.flow_mods_ok++;
      control_->journal.record(mods_[i].mod);
      continue;
    }
    counters_.flow_mods_failed++;
    queue_output(encode_error(mods_[i].xid,
                              flow_mod_error_type(mod_results_[i]),
                              mod_results_[i]),
                 now_ms);
    if (state_ != State::kSteady) break;  // backpressure drain kicked in
  }
  mods_.clear();
}

void Session::queue_output(std::vector<std::uint8_t> frame,
                           std::uint64_t now_ms) {
  if (state_ == State::kDraining || state_ == State::kClosed) return;
  if (output_buffered() + frame.size() > kWriteBufferCap) {
    // Slow reader at the cap: stop queuing (this frame is dropped along
    // with everything after it) and drain what the peer already earned.
    begin_drain(CloseReason::kBackpressure, now_ms);
    return;
  }
  if (out_head_ > 0 && out_head_ >= out_.size() / 2) {
    out_.erase(out_.begin(), out_.begin() + static_cast<long>(out_head_));
    out_head_ = 0;
  }
  out_.insert(out_.end(), frame.begin(), frame.end());
  counters_.frames_tx++;
}

void Session::begin_drain(CloseReason reason, std::uint64_t now_ms) {
  if (state_ == State::kDraining || state_ == State::kClosed) return;
  state_ = State::kDraining;
  close_reason_ = reason;
  probe_deadline_ms_.reset();
  // Bound the drain: a peer that never reads its flushed output cannot park
  // the session (and its buffers) forever.
  drain_deadline_ms_ = now_ms + kDrainTimeoutMs;
  mods_.clear();
}

void Session::on_peer_closed(std::uint64_t now_ms) {
  flush_mods(now_ms);
  begin_drain(CloseReason::kPeerClosed, now_ms);
}

void Session::on_tick(std::uint64_t now_ms) {
  if (state_ == State::kDraining) {
    if (drain_deadline_ms_ && now_ms >= *drain_deadline_ms_) {
      state_ = State::kClosed;  // undelivered output is forfeit
    }
    return;
  }
  if (state_ != State::kSteady && state_ != State::kAwaitHello) return;
  if (config_.echo_interval_ms == 0) return;
  if (probe_deadline_ms_.has_value()) {
    if (now_ms >= *probe_deadline_ms_) {
      begin_drain(CloseReason::kEchoTimeout, now_ms);
    }
    return;
  }
  if (now_ms - last_rx_ms_ >= config_.echo_interval_ms) {
    counters_.echo_probes++;
    queue_output(encode({next_xid_++, EchoRequest{}}), now_ms);
    probe_deadline_ms_ = now_ms + kEchoTimeoutMs;
  }
}

std::optional<std::uint64_t> Session::next_deadline_ms() const {
  if (state_ == State::kDraining) return drain_deadline_ms_;
  if (state_ != State::kSteady && state_ != State::kAwaitHello) {
    return std::nullopt;
  }
  if (config_.echo_interval_ms == 0) return std::nullopt;
  if (probe_deadline_ms_.has_value()) return probe_deadline_ms_;
  return last_rx_ms_ + config_.echo_interval_ms;
}

void Session::send(std::span<const std::uint8_t> frame, std::uint64_t now_ms) {
  queue_output(std::vector<std::uint8_t>(frame.begin(), frame.end()), now_ms);
}

void Session::notify_role(Role new_role, std::uint64_t generation_id,
                          std::uint64_t now_ms) {
  if (state_ != State::kSteady) return;
  counters_.role_changes++;
  queue_output(encode({0, RoleReplyMsg{new_role, generation_id}}), now_ms);
}

std::span<const std::uint8_t> Session::pending_output() const {
  return std::span<const std::uint8_t>{out_}.subspan(out_head_);
}

void Session::consume_output(std::size_t n) {
  out_head_ += n;
  if (out_head_ >= out_.size()) {
    out_.clear();
    out_head_ = 0;
  }
}

bool Session::wants_close() const {
  return state_ == State::kClosed ||
         (state_ == State::kDraining && output_buffered() == 0);
}

}  // namespace ofmtl::ofp::server
