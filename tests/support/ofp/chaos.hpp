// Deterministic chaos scheduling for the OFP control plane: the event-level
// generalization of fault_injection.hpp's byte-level faults. Three layers,
// all seeded so every scenario replays bit-identically from one integer:
//
//  - VirtualClock: an injectable monotonic clock (IoHooks::now_ms) the test
//    thread advances and skews explicitly — echo intervals, probe timeouts,
//    drain deadlines, and accept backoffs all fire on demand instead of on
//    wall-clock sleeps.
//  - SyscallFaultInjector: builds IoHooks whose accept/read/send fail or
//    truncate on a seeded schedule — EMFILE storms for the accept-backoff
//    path, forced partial syscalls for the reassembly/flush paths — while
//    delegating to the real syscalls otherwise.
//  - ChaosScheduler: a seeded decision source over session state-machine
//    edges (connect, role change, chunk sent, barrier, resync): at each edge
//    it may order a kill (hard RST), a stall, a partition, or a clock skew,
//    with magnitudes drawn from the same stream. The soak's failover
//    scenario and the unit tests consume these decisions; because every
//    choice flows from the seed, a failing scenario is a repro command, not
//    a flake.
//
// Header-only test infrastructure: only the tests, bench_ofp_server and
// ofp_soak have tests/support/ on their include path (CMake target
// ofmtl_test_support), so the library cannot include it.
#pragma once

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <functional>

#include "ofp/server/server.hpp"
#include "workload/rng.hpp"

namespace ofmtl::ofp::testing {

/// Injectable monotonic milliseconds. Thread-safe: the server loop reads
/// through the hook while the test thread advances.
class VirtualClock {
 public:
  explicit VirtualClock(std::uint64_t start_ms = 1) : now_ms_(start_ms) {}

  [[nodiscard]] std::uint64_t now() const {
    return now_ms_.load(std::memory_order_acquire);
  }
  void advance(std::uint64_t delta_ms) {
    now_ms_.fetch_add(delta_ms, std::memory_order_acq_rel);
  }
  /// IoHooks::now_ms adapter. The clock must outlive the server.
  [[nodiscard]] std::function<std::uint64_t()> hook() {
    return [this] { return now(); };
  }

 private:
  std::atomic<std::uint64_t> now_ms_;
};

/// Seeded syscall-level faults behind IoHooks. Arm-methods may be called
/// from the test thread; the hooks run on the server loop thread, so the
/// armed counters are atomics and the rng is only touched loop-side.
class SyscallFaultInjector {
 public:
  explicit SyscallFaultInjector(std::uint64_t seed) : rng_(seed) {}

  /// Fail the next `n` accepts with `err` (EMFILE by default) before
  /// delegating to the real accept4 again.
  void arm_accept_failures(std::uint32_t n, int err = EMFILE) {
    accept_errno_.store(err, std::memory_order_relaxed);
    accept_failures_.store(n, std::memory_order_release);
  }
  /// Probability that any read/send is truncated to one byte (forced
  /// partial syscall) — exercises reassembly and flush resumption.
  void set_partial_p(double p) { partial_p_ = p; }

  /// Hooks delegating to real syscalls except where armed. The injector
  /// must outlive the server.
  [[nodiscard]] server::IoHooks hooks() {
    server::IoHooks hooks;
    hooks.accept4 = [this](int listen_fd) -> int {
      auto armed = accept_failures_.load(std::memory_order_acquire);
      while (armed > 0) {
        if (accept_failures_.compare_exchange_weak(armed, armed - 1,
                                                   std::memory_order_acq_rel)) {
          errno = accept_errno_.load(std::memory_order_relaxed);
          return -1;
        }
      }
      return ::accept4(listen_fd, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    };
    hooks.read = [this](int fd, void* buf, std::size_t len) -> long {
      const auto n = partial(len);
      return ::read(fd, buf, n);
    };
    hooks.send = [this](int fd, const void* buf, std::size_t len) -> long {
      const auto n = partial(len);
      return ::send(fd, buf, n, MSG_NOSIGNAL);
    };
    return hooks;
  }

 private:
  [[nodiscard]] std::size_t partial(std::size_t len) {
    if (len > 1 && partial_p_ > 0 && rng_.chance(partial_p_)) return 1;
    return len;
  }

  workload::Rng rng_;  // loop-thread-only (hooks run on the loop)
  double partial_p_ = 0;
  std::atomic<std::uint32_t> accept_failures_{0};
  std::atomic<int> accept_errno_{EMFILE};
};

/// Where in a controller's lifecycle a chaos decision is taken.
enum class ChaosEdge : std::uint8_t {
  kConnect = 0,  ///< after connect+HELLO
  kRoleChange,   ///< after a role request round-trip
  kChunkSent,    ///< after one flow-mod chunk is on the wire
  kBarrier,      ///< after an echo barrier completes
  kResync,       ///< after a resync round-trip
};

/// What the scheduler ordered at an edge.
enum class ChaosAction : std::uint8_t {
  kNone = 0,
  kKill,       ///< hard-RST the session now
  kStall,      ///< go silent for `param_ms` (virtual or real)
  kPartition,  ///< stop reading (half-open peer) for `param_ms`
  kClockSkew,  ///< jump the virtual clock forward by `param_ms`
};

struct ChaosDecision {
  ChaosAction action = ChaosAction::kNone;
  std::uint64_t param_ms = 0;
};

/// Per-edge decision probabilities and magnitudes.
struct ChaosProfile {
  double kill_p = 0;
  double stall_p = 0;
  double partition_p = 0;
  double clock_skew_p = 0;
  std::uint64_t max_stall_ms = 50;
  std::uint64_t max_partition_ms = 100;
  std::uint64_t max_skew_ms = 1000;
  /// Additionally kill deterministically every `kill_every` kChunkSent
  /// edges (0 = never) — the soak's periodic master-kill cadence.
  std::uint64_t kill_every = 0;
};

/// Seeded decision source over state-machine edges. Single-threaded.
class ChaosScheduler {
 public:
  ChaosScheduler(std::uint64_t seed, ChaosProfile profile)
      : rng_(seed), profile_(profile) {}

  /// Decide what (if anything) happens at this edge. Exactly one rng draw
  /// path per call given the same edge sequence: replayable from the seed.
  [[nodiscard]] ChaosDecision decide(ChaosEdge edge) {
    ChaosDecision decision;
    if (edge == ChaosEdge::kChunkSent) {
      ++chunks_;
      if (profile_.kill_every > 0 && chunks_ % profile_.kill_every == 0) {
        decision.action = ChaosAction::kKill;
        return decision;
      }
    }
    if (profile_.kill_p > 0 && rng_.chance(profile_.kill_p)) {
      decision.action = ChaosAction::kKill;
      return decision;
    }
    if (profile_.stall_p > 0 && rng_.chance(profile_.stall_p)) {
      decision.action = ChaosAction::kStall;
      decision.param_ms = 1 + rng_.below(profile_.max_stall_ms);
      return decision;
    }
    if (profile_.partition_p > 0 && rng_.chance(profile_.partition_p)) {
      decision.action = ChaosAction::kPartition;
      decision.param_ms = 1 + rng_.below(profile_.max_partition_ms);
      return decision;
    }
    if (profile_.clock_skew_p > 0 && rng_.chance(profile_.clock_skew_p)) {
      decision.action = ChaosAction::kClockSkew;
      decision.param_ms = 1 + rng_.below(profile_.max_skew_ms);
      return decision;
    }
    return decision;
  }

  [[nodiscard]] std::uint64_t chunks_seen() const { return chunks_; }

 private:
  workload::Rng rng_;
  ChaosProfile profile_;
  std::uint64_t chunks_ = 0;
};

}  // namespace ofmtl::ofp::testing
