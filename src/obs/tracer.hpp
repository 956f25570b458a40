// Process-wide always-on tracing front end: every thread that executes an
// instrumented hot path gets its own TraceRing (created lazily on first
// emit, then cached in a thread-local pointer), and a collector snapshots
// all rings into a TraceDump for export (obs/export.hpp) or histogram
// derivation (obs/histogram.hpp). No plumbing through layer APIs: the
// runtime's workers, the snapshot writer and the OFP event loop all
// emit through the same two thread-local loads.
//
// Cost model (the instrumentation sites are always compiled in):
//   - tracing stopped: one relaxed atomic bool load and a
//     predicted-not-taken branch per site (~1 ns).
//   - tracing started: one steady-clock read plus three atomic stores per
//     event (~25 ns). Instrumentation sites are BATCH
//     granular (batch dequeue, table stage, publish, flow-mod batch), so
//     the amortized cost is a couple of nanoseconds per packet at worst —
//     gated <5% on bench_parallel via trace/overhead_percent in CI.
//
// Thread-safety: start/stop/collect serialize on an internal mutex; emit is
// lock-free after a thread's one-time ring registration (which takes the
// mutex and allocates the ring — warm up before allocation-counting).
// Rings outlive their producer threads (shared ownership), so a collect
// after ParallelRuntime::stop() still sees every worker's records.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace_event.hpp"
#include "obs/trace_ring.hpp"

namespace ofmtl::obs {

struct TraceOptions {
  /// Per-thread ring capacity in records (rounded up to a power of two).
  /// 32k records = 768 KiB of slots per traced thread.
  std::size_t ring_capacity = std::size_t{1} << 15;
};

/// Everything one thread recorded: raw records in emit order plus identity.
struct ThreadTrace {
  std::string name;          ///< set_thread_name(), or "thread" if unnamed
  std::uint64_t tid = 0;     ///< registration order (stable within a run)
  std::uint64_t dropped = 0;  ///< records lost to ring overwrite
  std::vector<TraceRecord> records;
};

struct TraceDump {
  /// Process identity, stamped by collect_tracing() and carried through the
  /// OFTRACE1 container so merged multi-process timelines label tracks
  /// correctly. pid 0 means "unknown" (e.g. a legacy dump).
  std::uint64_t pid = 0;
  std::string process_name;
  std::vector<ThreadTrace> threads;
};

/// Start a tracing session: clears rings of any previous session and makes
/// emit() live. Threads (re-)register lazily on their next emit.
void start_tracing(const TraceOptions& options = {});

/// Stop accepting new records. Already-recorded rings stay collectable
/// until the next start_tracing().
void stop_tracing();

/// Sticky display name for the calling thread's ring (current and future
/// sessions). Allocates; call at thread setup, not in steady state.
void set_thread_name(std::string_view name);

/// Snapshot every ring of the current (or just-stopped) session: drains
/// each ring from its cursor, so records appear exactly once across
/// repeated collects. Safe while producers are still emitting.
[[nodiscard]] TraceDump collect_tracing();

/// A shared-ownership view of one live ring, for consumers that must read
/// ring state WITHOUT the registry mutex — the flight recorder pre-registers
/// these at arm time so its crash-signal handler can TraceRing::peek() each
/// ring with nothing but atomic loads. `owner` keeps the ring alive even if
/// the producer thread exits or the session restarts.
struct RingRef {
  std::shared_ptr<void> owner;
  const TraceRing* ring = nullptr;
  std::string name;       ///< display name at snapshot time
  std::uint64_t tid = 0;  ///< registration order (stable within a run)
};

/// Shared references to every ring of the current session. Rings registered
/// AFTER the snapshot are not included — callers that need completeness
/// (the flight recorder) re-snapshot periodically from their poll loop.
[[nodiscard]] std::vector<RingRef> snapshot_rings();

/// The emit entry point behind OFMTL_OBS_EMIT. Noexcept and allocation-free
/// once the calling thread's ring exists; a thread's very first traced emit
/// registers its ring (mutex + allocation, once per thread per session).
void emit(TraceEvent event, std::uint16_t arg, std::uint64_t payload) noexcept;

}  // namespace ofmtl::obs

/// The hot-path instrumentation sites' spelling of emit(): narrows the
/// argument and widens the payload at the call site.
#define OFMTL_OBS_EMIT(event, arg, payload)                          \
  ::ofmtl::obs::emit((event), static_cast<std::uint16_t>(arg),       \
                     static_cast<std::uint64_t>(payload))
