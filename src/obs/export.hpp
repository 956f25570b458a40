// Export-time decoding of trace dumps — the deferred half of the Perfetto
// model: the rings store raw 16-byte records; everything human-facing
// happens here, offline, away from the hot paths.
//
//   - decode_thread(): delta → absolute-timestamp reconstruction. Records
//     before the first surviving kTimeSync anchor are undecodable (their
//     base was overwritten with the ring's oldest history) and are dropped;
//     the anchor cadence bounds that prefix to min(1024, capacity/2)
//     records. Decoded timestamps are monotone non-decreasing per thread by
//     construction (unsigned deltas accumulated from a monotonic clock).
//     kWallClockSync records (the realtime half of each anchor pair) are
//     consumed into DecodeStats::wall_minus_mono_ns — the per-process clock
//     offset the cross-process merge uses to align timelines.
//   - write_perfetto_json(): chrome://tracing "traceEvents" JSON. Begin/end
//     records pair into complete "X" slices (per-thread, per-slice-name
//     stack, so nested slices work); counters render as "C" tracks;
//     everything else as instants. Each dump carries its real pid and a
//     process_name metadata event, and every thread gets ring_dropped /
//     decode_skipped counter samples so overwrite loss is visible on the
//     timeline. The multi-dump overload renders several processes on ONE
//     timeline, shifting each by its wall−mono offset so a controller and
//     a switch recorded on different steady-clock origins line up. Loads
//     directly in ui.perfetto.dev and chrome://tracing.
//   - save/load_trace_dump(): a tiny self-describing binary container
//     ("OFTRACE1") holding the raw records plus process identity, so a run
//     can dump cheaply and tools/trace_export can decode later or
//     elsewhere. The loader is hardened against hostile bytes: it returns a
//     TraceLoadStatus — it never throws and never allocates beyond what the
//     actual file size can back, no matter what the headers claim.
//   - slice_latency_histogram(): begin→end durations folded into a
//     LogHistogram — the p99/p99.9 source the bench tail gates consume.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/tracer.hpp"

namespace ofmtl::obs {

/// One record with its absolute steady-clock timestamp reconstructed.
struct DecodedEvent {
  std::uint64_t ts_ns = 0;
  TraceEvent event = TraceEvent::kTimeSync;
  std::uint16_t arg = 0;
  std::uint64_t payload = 0;
};

/// Byproducts of decoding one thread's records.
struct DecodeStats {
  /// Records dropped because their kTimeSync base was overwritten (the
  /// undecodable prefix; bounded by the anchor cadence).
  std::uint64_t skipped_prefix = 0;
  /// realtime − monotonic at the last surviving anchor pair, when the dump
  /// contains kWallClockSync records (older dumps do not).
  bool has_wall_offset = false;
  std::int64_t wall_minus_mono_ns = 0;
};

/// Reconstruct absolute timestamps for one thread's records (kTimeSync /
/// kWallClockSync anchors consumed, not returned). Records before the first
/// anchor are dropped — see the header comment for the bound.
[[nodiscard]] std::vector<DecodedEvent> decode_thread(
    const ThreadTrace& thread, DecodeStats* stats = nullptr);

/// Render one dump as chrome://tracing / Perfetto JSON onto `out`.
void write_perfetto_json(std::ostream& out, const TraceDump& dump);

/// Render several dumps (typically one per PROCESS) on one timeline. When
/// every dump carries wall-clock anchors, each process's monotonic
/// timestamps are shifted by its wall−mono offset relative to the earliest
/// process, aligning controller and switch on real time; dumps without
/// anchors render unshifted.
void write_perfetto_json(std::ostream& out,
                         const std::vector<TraceDump>& dumps);

/// Why a load failed (kOk = it didn't). Every other value means the file
/// was rejected without throwing and without oversized allocation.
enum class TraceLoadStatus {
  kOk,
  kIoError,       ///< cannot open / read the file
  kBadMagic,      ///< missing or wrong OFTRACE1 magic
  kTruncated,     ///< a section claims more bytes than the file holds
  kCorruptHeader, ///< a count or length field fails its sanity cap
};

[[nodiscard]] const char* trace_load_status_name(TraceLoadStatus status);

/// Binary trace container ("OFTRACE1"). save throws std::runtime_error on
/// I/O failure (writer-side errors are programmer-visible); the status
/// overload of load NEVER throws — hostile bytes yield a status, and every
/// allocation is bounded by the real file size before it is made.
void save_trace_dump(const std::string& path, const TraceDump& dump);
[[nodiscard]] TraceLoadStatus load_trace_dump(const std::string& path,
                                              TraceDump& out);
/// Convenience wrapper: throws std::runtime_error naming the status.
[[nodiscard]] TraceDump load_trace_dump(const std::string& path);

/// What one begin→end slice contributes to slice_latency_histogram.
enum class SliceFold : std::uint8_t {
  kPerSlice,   ///< its duration, once
  kPerUnit,    ///< duration / BEGIN payload (e.g. the batch's packet count),
               ///< once: per-packet latency, one sample per batch
  kEveryUnit,  ///< duration / BEGIN payload, once per payload unit: every
               ///< unit (flow-mod, byte) weighs the same, however batched
};

/// Fold every begin→end pair of the given slice across all threads into a
/// duration histogram (nanoseconds), as `fold` says.
[[nodiscard]] LogHistogram slice_latency_histogram(const TraceDump& dump,
                                                   TraceEvent begin,
                                                   TraceEvent end,
                                                   SliceFold fold);

}  // namespace ofmtl::obs
