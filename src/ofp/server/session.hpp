// One controller session as a sans-io state machine: raw bytes in, raw
// bytes out, virtual milliseconds for every deadline. The epoll server owns
// the socket; this class owns the protocol — HELLO handshake, steady-state
// message handling, ECHO-probe liveness, bounded write buffering with
// backpressure, and a draining close that flushes queued replies before the
// transport hangs up. Keeping the state machine transport-free is what makes
// byte-level fault injection deterministic: unit tests feed arbitrary
// fragmentations and clock schedules without a socket in sight.
//
// Robustness contract (the tentpole property): no peer input — truncated,
// oversized, corrupt, or mis-sequenced — ever surfaces as an exception or
// crash. A malformed frame answers with OFP ERROR and the session keeps
// serving; unrecoverable streams (framing desync, buffer overflow, liveness
// loss) drain and close.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "ofp/messages.hpp"
#include "ofp/server/control_plane.hpp"
#include "ofp/server/frame_assembler.hpp"

namespace ofmtl::ofp::server {

struct SessionConfig {
  /// Inbound silence (ms) before the session probes with an ECHO request.
  /// 0 disables liveness probing.
  std::uint64_t echo_interval_ms = 5000;
};

/// Why a session ended (for stats and tests).
enum class CloseReason : std::uint8_t {
  kNone = 0,
  kPeerClosed,     ///< orderly EOF from the controller
  kHandshakeFailed,///< first frame was not a valid HELLO
  kProtocolError,  ///< framing desync / resync digest over its cap
  kReadOverflow,   ///< reassembly buffer cap exceeded
  kBackpressure,   ///< write buffer cap exceeded (slow reader)
  kEchoTimeout,    ///< liveness probe unanswered
  kServerShutdown,
  kOverload,       ///< kMaxConsecutiveRejects shed mods in a row
};

[[nodiscard]] const char* to_string(CloseReason reason);

/// One decoded flow-mod awaiting application, with the xid needed to address
/// an ERROR reply back at the requesting message.
struct PendingFlowMod {
  std::uint32_t xid = 0;
  FlowModMsg mod;
};

/// Applies one batch of flow-mods (ideally as ONE left-right publish) and
/// writes a per-mod result: ErrorCode::kNone on success, the failure code
/// otherwise. Called on the event-loop thread, in frame order: the session
/// flushes the batch before answering any later non-flow-mod message, so an
/// ECHO reply is a barrier — it proves every earlier mod was applied.
using FlowModSink =
    std::function<void(std::span<const PendingFlowMod>, std::span<ErrorCode>)>;

class Session {
 public:
  enum class State : std::uint8_t {
    kAwaitHello,  ///< our HELLO is queued; peer's must arrive first
    kSteady,
    kDraining,  ///< no new work; flush pending output, then close
    kClosed,
  };

  /// Counters the server aggregates (monotonic, single-threaded).
  struct Counters {
    std::uint64_t frames_rx = 0;
    std::uint64_t frames_tx = 0;
    std::uint64_t flow_mods_ok = 0;
    std::uint64_t flow_mods_failed = 0;
    std::uint64_t flow_mods_shed = 0;  ///< rejected by admission control
    std::uint64_t malformed_frames = 0;
    std::uint64_t echo_probes = 0;
    std::uint64_t role_changes = 0;  ///< accepted mutating role requests
    std::uint64_t resyncs = 0;       ///< completed resync diffs
  };

  /// Caps the unconsumed inbound bytes buffered for reassembly. on_bytes
  /// feeds a read in pieces that fit and drains complete frames between
  /// them, so only a partial frame (under 64 KiB) stays buffered and a
  /// legal stream never overflows it, whatever the size of one read.
  static constexpr std::size_t kReadBufferCap =
      FrameAssembler::kDefaultBufferCap;
  /// Caps the outbound bytes queued for a peer that reads slower than the
  /// server writes. At the cap the session stops queuing and drains to a
  /// graceful close: queued memory per session is bounded by construction.
  static constexpr std::size_t kWriteBufferCap = 256 * 1024;
  /// Grace (ms) for any inbound byte after a probe before the session is
  /// declared dead and closed.
  static constexpr std::uint64_t kEchoTimeoutMs = 2000;
  /// Flow-mods accumulated before the sink is forced mid-read: bounds the
  /// latency between a mod arriving and it being published.
  static constexpr std::size_t kMaxModsPerBatch = 256;
  /// Grace (ms) for a draining session to flush its queued output before it
  /// is closed regardless: a stalled peer cannot park a drain forever.
  static constexpr std::uint64_t kDrainTimeoutMs = 5000;
  /// Caps the resync digest entries accumulated across chunks: a controller
  /// streaming endless not-done chunks is a protocol error, not a memory
  /// leak.
  static constexpr std::size_t kMaxResyncDigest = std::size_t{1} << 20;

  /// Standalone session owning a private ControlPlane — the sans-io unit
  /// test shape, and correct for single-session embedders.
  Session(std::uint64_t id, SessionConfig config, FlowModSink sink,
          std::uint64_t now_ms);

  /// Session sharing a server-owned ControlPlane with its sibling sessions
  /// (role arbitration and the flow journal are per-switch, not
  /// per-session). `control` must outlive the session.
  Session(std::uint64_t id, SessionConfig config, FlowModSink sink,
          ControlPlane& control, std::uint64_t now_ms);

  /// Raw bytes off the wire. Decodes every complete frame, queues replies,
  /// funnels flow-mod batches through the sink. Never throws on input.
  void on_bytes(std::span<const std::uint8_t> bytes, std::uint64_t now_ms);

  /// Orderly EOF from the peer: flush whatever output is queued, then close.
  void on_peer_closed(std::uint64_t now_ms);

  /// Clock tick: fires ECHO probes and liveness deadlines. The server calls
  /// this when next_deadline_ms() elapses (and harmlessly any time).
  void on_tick(std::uint64_t now_ms);

  /// Earliest future instant at which on_tick has work, if any.
  [[nodiscard]] std::optional<std::uint64_t> next_deadline_ms() const;

  /// Queue one server-initiated frame (ECHO probe, notification fan-out).
  /// Applies the same backpressure cap as replies.
  void send(std::span<const std::uint8_t> frame, std::uint64_t now_ms);

  /// Queue an unsolicited ROLE_REPLY (xid 0) notifying the peer its role
  /// changed without a request — failover promotion.
  void notify_role(Role role, std::uint64_t generation_id,
                   std::uint64_t now_ms);

  /// This session's current controller role.
  [[nodiscard]] Role role() const { return control_->roles.role_of(id_); }

  /// --- transport side ---
  [[nodiscard]] std::span<const std::uint8_t> pending_output() const;
  void consume_output(std::size_t n);
  /// True once the transport should close the socket: the session is
  /// draining with nothing left to flush, or hard-closed.
  [[nodiscard]] bool wants_close() const;
  /// Transport confirms the socket is gone.
  void mark_closed() { state_ = State::kClosed; }

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] CloseReason close_reason() const { return close_reason_; }
  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] std::size_t output_buffered() const {
    return out_.size() - out_head_;
  }

 private:
  void handle_frame(const std::vector<std::uint8_t>& frame,
                    std::uint64_t now_ms);
  void handle_message(const Envelope& envelope,
                      const std::vector<std::uint8_t>& frame,
                      std::uint64_t now_ms);
  /// Push one batch through the sink and queue ERROR replies for failures,
  /// or shed it whole when admission control sheds this session.
  void flush_mods(std::uint64_t now_ms);
  void handle_role_request(const Envelope& envelope, std::uint64_t now_ms);
  void handle_resync_request(const Envelope& envelope, std::uint64_t now_ms);
  /// Finish an accumulated digest: diff, GC stale entries through the sink,
  /// queue the (chunked) RESYNC_REPLY.
  void finish_resync(std::uint32_t xid, std::uint64_t now_ms);
  /// Queue an encoded frame; on cap overflow switches to backpressure drain.
  void queue_output(std::vector<std::uint8_t> frame, std::uint64_t now_ms);
  void begin_drain(CloseReason reason, std::uint64_t now_ms);

  /// The one constructor body: `owned` is the standalone ControlPlane, or
  /// null when `shared` is the server's.
  Session(std::uint64_t id, SessionConfig config, FlowModSink sink,
          std::unique_ptr<ControlPlane> owned, ControlPlane* shared,
          std::uint64_t now_ms);

  std::uint64_t id_;
  SessionConfig config_;
  FlowModSink sink_;
  // Heap-owned (when standalone) so moving the Session keeps control_ valid.
  std::unique_ptr<ControlPlane> owned_control_;
  ControlPlane* control_;
  State state_ = State::kAwaitHello;
  CloseReason close_reason_ = CloseReason::kNone;

  FrameAssembler assembler_;
  std::vector<std::uint8_t> frame_;  // reused pop buffer

  std::vector<std::uint8_t> out_;  // queued output, consumed from out_head_
  std::size_t out_head_ = 0;

  std::vector<PendingFlowMod> mods_;     // batch awaiting the sink
  std::vector<ErrorCode> mod_results_;   // sink scratch, reused

  std::vector<ResyncEntry> resync_digest_;  // accumulated across chunks
  // Shed mods since this session's last admitted batch; draining at
  // kMaxConsecutiveRejects bounds a controller that ignores backoff.
  std::uint64_t consecutive_rejects_ = 0;

  std::uint64_t last_rx_ms_ = 0;
  std::optional<std::uint64_t> probe_deadline_ms_;  // set while a probe is out
  std::optional<std::uint64_t> drain_deadline_ms_;  // set while kDraining
  std::uint32_t next_xid_ = 1;

  Counters counters_;
};

}  // namespace ofmtl::ofp::server
