// Scripted fault injection for the OFP control-plane server: the hostile-
// controller toolkit behind the deterministic unit tests and the soak test
// (tools/ofp_soak.cpp). Two layers:
//
//  - FaultySocket: a loopback TCP client whose writes follow a script —
//    short writes, byte-at-a-time delivery, a mid-message cut followed by a
//    hard RST (SO_LINGER{1,0}), stalls (simply not reading) — plus a framed
//    reader built on the server's own FrameAssembler.
//  - SessionScript: a seeded, per-frame fault plan (how to fragment, where
//    to cut, when to reset) so every run of a test or soak with the same
//    seed injects byte-identical faults. ScriptedController glues the two
//    and adds the protocol helpers (handshake, echo barrier) controllers
//    need to make convergence assertions exact.
//
// Header-only test infrastructure: only the tests, bench_ofp_server and
// ofp_soak have tests/support/ on their include path (CMake target
// ofmtl_test_support), so the library cannot include it.
#pragma once

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "ofp/messages.hpp"
#include "ofp/server/frame_assembler.hpp"
#include "workload/rng.hpp"

namespace ofmtl::ofp::testing {

/// How one frame gets delivered to the server.
struct FrameFault {
  /// Fragment sizes the frame is written in (cycled); empty = whole frame.
  std::vector<std::size_t> chunks;
  /// When set, deliver only the first `cut` bytes, then hard-RST: the
  /// server sees a partial frame followed by a mid-message disconnect.
  std::optional<std::size_t> cut;
};

/// Severity knob for scripted fault generation.
enum class FaultLevel { kNone, kLight, kHeavy };

/// Deterministic per-frame fault plan: same seed, same faults, same bytes
/// on the wire.
inline FrameFault make_fault(workload::Rng& rng, std::size_t frame_size,
                             FaultLevel level) {
  FrameFault fault;
  if (level == FaultLevel::kNone || frame_size == 0) return fault;
  const double fragment_p = level == FaultLevel::kHeavy ? 0.6 : 0.25;
  const double rst_p = level == FaultLevel::kHeavy ? 0.08 : 0.02;
  if (rng.chance(fragment_p)) {
    if (rng.chance(0.3)) {
      fault.chunks = {1};  // byte-at-a-time
    } else {
      // A handful of uneven fragments, each 1..frame_size bytes.
      const std::size_t pieces = 2 + rng.below(4);
      for (std::size_t i = 0; i < pieces; ++i) {
        fault.chunks.push_back(1 + rng.below(frame_size));
      }
    }
  }
  if (rng.chance(rst_p)) {
    // Cut anywhere inside the frame, header included: cut==0 resets before
    // any byte, cut inside the body leaves a dangling partial frame.
    fault.cut = rng.below(frame_size);
  }
  return fault;
}

/// A loopback TCP controller endpoint with scripted delivery. Non-copyable,
/// movable; closes on destruction.
class FaultySocket {
 public:
  FaultySocket() = default;
  FaultySocket(FaultySocket&& other) noexcept : fd_(other.fd_) {
    other.fd_ = -1;
    assembler_ = std::move(other.assembler_);
  }
  FaultySocket& operator=(FaultySocket&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = other.fd_;
      other.fd_ = -1;
      assembler_ = std::move(other.assembler_);
    }
    return *this;
  }
  FaultySocket(const FaultySocket&) = delete;
  FaultySocket& operator=(const FaultySocket&) = delete;
  ~FaultySocket() { close(); }

  /// Blocking loopback connect with a receive deadline on the socket.
  [[nodiscard]] static std::optional<FaultySocket> connect(
      std::uint16_t port, int recv_timeout_ms = 5000) {
    FaultySocket sock;
    sock.fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (sock.fd_ < 0) return std::nullopt;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(sock.fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      return std::nullopt;
    }
    timeval tv{recv_timeout_ms / 1000, (recv_timeout_ms % 1000) * 1000};
    (void)::setsockopt(sock.fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    const int one = 1;
    (void)::setsockopt(sock.fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return sock;
  }

  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  /// Write every byte (looping over short writes). False on error.
  bool send_all(std::span<const std::uint8_t> bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Deliver one frame under a fault plan. Returns false when the plan (or
  /// the transport) killed the connection — the caller reconnects.
  bool send_frame(std::span<const std::uint8_t> frame, const FrameFault& fault) {
    auto payload = frame;
    const bool rst_after = fault.cut.has_value();
    if (rst_after) payload = payload.first(*fault.cut);
    if (fault.chunks.empty()) {
      if (!payload.empty() && !send_all(payload)) return false;
    } else {
      std::size_t off = 0, i = 0;
      while (off < payload.size()) {
        const auto chunk =
            std::min(fault.chunks[i++ % fault.chunks.size()],
                     payload.size() - off);
        if (!send_all(payload.subspan(off, chunk))) return false;
        off += chunk;
      }
    }
    if (rst_after) {
      rst();
      return false;
    }
    return true;
  }

  /// Hard reset: RST instead of FIN, so the server sees a mid-stream abort.
  void rst() {
    if (fd_ < 0) return;
    linger hard{1, 0};
    (void)::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &hard, sizeof hard);
    close();
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  /// Read one complete OFP frame (blocking up to the socket's receive
  /// timeout per read). nullopt on timeout, EOF, or framing error.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> read_frame() {
    std::vector<std::uint8_t> frame;
    while (true) {
      if (assembler_.next(frame)) return frame;
      if (assembler_.status() != server::FrameAssembler::Status::kOk) {
        return std::nullopt;
      }
      std::uint8_t buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return std::nullopt;
      }
      (void)assembler_.push({buf, static_cast<std::size_t>(n)});
    }
  }

 private:
  int fd_ = -1;
  server::FrameAssembler assembler_;
};

/// Outcome of one scripted controller operation.
struct BarrierResult {
  bool ok = false;             ///< echo reply observed
  std::size_t errors_seen = 0; ///< ERROR frames consumed on the way
};

/// Protocol-aware wrapper: a controller that speaks the handshake and can
/// erect echo barriers, delivering its frames through scripted faults.
class ScriptedController {
 public:
  /// Connect + HELLO exchange. False when the transport or handshake fails.
  [[nodiscard]] bool connect(std::uint16_t port, int recv_timeout_ms = 5000) {
    auto sock = FaultySocket::connect(port, recv_timeout_ms);
    if (!sock.has_value()) return false;
    sock_ = std::move(*sock);
    if (!sock_.send_all(encode({next_xid_++, Hello{}}))) return false;
    // The server's HELLO may arrive before or interleaved with ours;
    // consume frames until we see it.
    for (int i = 0; i < 4; ++i) {
      const auto frame = sock_.read_frame();
      if (!frame.has_value()) return false;
      Envelope envelope;
      if (try_decode(*frame, envelope) == DecodeStatus::kOk &&
          std::holds_alternative<Hello>(envelope.message)) {
        return true;
      }
    }
    return false;
  }

  /// Send one frame under `fault`. False = connection gone, reconnect.
  bool send(std::span<const std::uint8_t> frame, const FrameFault& fault = {}) {
    return sock_.send_frame(frame, fault);
  }

  /// Echo barrier: when this returns ok, every frame sent before it has
  /// been fully processed by the server (the session answers in frame
  /// order). ERROR frames encountered while waiting are counted, any other
  /// interleaved frame is discarded.
  [[nodiscard]] BarrierResult barrier(std::size_t max_frames = 4096) {
    BarrierResult result;
    const std::uint32_t xid = next_xid_++;
    if (!sock_.send_all(encode({xid, EchoRequest{{0xB, 0xA, 0x5}}}))) {
      return result;
    }
    for (std::size_t i = 0; i < max_frames; ++i) {
      const auto frame = sock_.read_frame();
      if (!frame.has_value()) return result;
      Envelope envelope;
      if (try_decode(*frame, envelope) != DecodeStatus::kOk) continue;
      if (std::holds_alternative<ErrorMsg>(envelope.message)) {
        result.errors_seen++;
        continue;
      }
      if (const auto* reply = std::get_if<EchoReply>(&envelope.message);
          reply != nullptr && envelope.xid == xid) {
        result.ok = true;
        return result;
      }
      if (std::get_if<EchoRequest>(&envelope.message) != nullptr) {
        // Server liveness probe while we were "thinking": answer it so a
        // stalled script doesn't get disconnected mid-assertion.
        (void)sock_.send_all(
            encode({envelope.xid,
                    EchoReply{std::get<EchoRequest>(envelope.message).payload}}));
      }
    }
    return result;
  }

  /// Claim a controller role. Returns the ROLE_REPLY on success, nullopt on
  /// transport loss or an ERROR reply (generation fencing). Interleaved
  /// frames are handled like barrier().
  [[nodiscard]] std::optional<RoleReplyMsg> request_role(
      Role role, std::uint64_t generation_id, std::size_t max_frames = 4096) {
    const std::uint32_t xid = next_xid_++;
    if (!sock_.send_all(encode({xid, RoleRequestMsg{role, generation_id}}))) {
      return std::nullopt;
    }
    for (std::size_t i = 0; i < max_frames; ++i) {
      const auto frame = sock_.read_frame();
      if (!frame.has_value()) return std::nullopt;
      Envelope envelope;
      if (try_decode(*frame, envelope) != DecodeStatus::kOk) continue;
      if (envelope.xid == xid) {
        if (const auto* reply = std::get_if<RoleReplyMsg>(&envelope.message)) {
          return *reply;
        }
        if (std::holds_alternative<ErrorMsg>(envelope.message)) {
          return std::nullopt;
        }
      }
      answer_probe(envelope);
    }
    return std::nullopt;
  }

  /// Block until an unsolicited ROLE_REPLY (xid 0) arrives — the server's
  /// failover promotion notice. nullopt on timeout/loss.
  [[nodiscard]] std::optional<RoleReplyMsg> await_promotion(
      std::size_t max_frames = 4096) {
    for (std::size_t i = 0; i < max_frames; ++i) {
      const auto frame = sock_.read_frame();
      if (!frame.has_value()) return std::nullopt;
      Envelope envelope;
      if (try_decode(*frame, envelope) != DecodeStatus::kOk) continue;
      if (const auto* reply = std::get_if<RoleReplyMsg>(&envelope.message);
          reply != nullptr && envelope.xid == 0) {
        return *reply;
      }
      answer_probe(envelope);
    }
    return std::nullopt;
  }

  /// Full resync round-trip: send `intent` as chunked RESYNC_REQUESTs, read
  /// the chunked replies, return the combined verdict (missing entries
  /// accumulated across chunks, deleted count from the final chunk).
  [[nodiscard]] std::optional<ResyncReplyMsg> resync(
      std::span<const ResyncEntry> intent, std::size_t chunk = 1024,
      std::size_t max_frames = 65536) {
    const std::uint32_t xid = next_xid_++;
    std::size_t offset = 0;
    do {
      const auto take = std::min(chunk, intent.size() - offset);
      ResyncRequestMsg request;
      request.entries.assign(
          intent.begin() + static_cast<long>(offset),
          intent.begin() + static_cast<long>(offset + take));
      offset += take;
      request.done = offset == intent.size();
      if (!sock_.send_all(encode({xid, std::move(request)}))) {
        return std::nullopt;
      }
    } while (offset < intent.size());

    ResyncReplyMsg combined;
    combined.done = false;
    for (std::size_t i = 0; i < max_frames; ++i) {
      const auto frame = sock_.read_frame();
      if (!frame.has_value()) return std::nullopt;
      Envelope envelope;
      if (try_decode(*frame, envelope) != DecodeStatus::kOk) continue;
      if (envelope.xid == xid) {
        if (const auto* reply = std::get_if<ResyncReplyMsg>(&envelope.message)) {
          combined.missing.insert(combined.missing.end(),
                                  reply->missing.begin(), reply->missing.end());
          if (reply->done) {
            combined.done = true;
            combined.deleted = reply->deleted;
            return combined;
          }
          continue;
        }
        if (std::holds_alternative<ErrorMsg>(envelope.message)) {
          return std::nullopt;
        }
      }
      answer_probe(envelope);
    }
    return std::nullopt;
  }

  [[nodiscard]] FaultySocket& socket() { return sock_; }
  [[nodiscard]] std::uint32_t next_xid() { return next_xid_++; }

 private:
  /// Keep the session alive while we wait on something else: answer the
  /// server's liveness probes, ignore anything that is not a probe.
  void answer_probe(const Envelope& envelope) {
    if (const auto* probe = std::get_if<EchoRequest>(&envelope.message)) {
      (void)sock_.send_all(encode({envelope.xid, EchoReply{probe->payload}}));
    }
  }

  FaultySocket sock_;
  std::uint32_t next_xid_ = 1;
};

/// Sans-io fragmentation driver for Session unit tests: feed `bytes` in
/// seeded random chunks (1..max_chunk each) at virtual time `now_ms`.
template <typename SessionT>
void feed_fragmented(SessionT& session, std::span<const std::uint8_t> bytes,
                     workload::Rng& rng, std::uint64_t now_ms,
                     std::size_t max_chunk = 7) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const auto chunk = std::min<std::size_t>(
        static_cast<std::size_t>(1 + rng.below(max_chunk)), bytes.size() - off);
    session.on_bytes(bytes.subspan(off, chunk), now_ms);
    off += chunk;
  }
}

}  // namespace ofmtl::ofp::testing
