// Export-time decoding of trace dumps — the deferred half of the Perfetto
// model: the rings store raw 16-byte records; everything human-facing
// happens here, offline, away from the hot paths. Every consumer (the
// Perfetto writer, the slice histograms, trace_export, the live flight
// recorder) reads a ring stream one way, through two per-thread pieces:
//
//   - ThreadDecoder: delta → absolute-timestamp reconstruction, fed record
//     by record, so a stream cut into chunks decodes as the whole would.
//     Records before the first surviving kTimeSync anchor are undecodable
//     (their base was overwritten with the ring's oldest history) and are
//     dropped; the anchor cadence bounds that prefix to min(1024,
//     capacity/2) records. Timestamps are monotone non-decreasing per
//     thread by construction. kWallClockSync records (the realtime half of
//     each anchor pair) set the per-process wall−mono offset the
//     cross-process merge aligns timelines with. A kRingGap record (the
//     ring lapped there) is dated at the last decoded timestamp, and the
//     decoder then drops records again until the next anchor.
//   - SlicePairer: begin/end pairing, one stack per slice keyed by its end
//     id (slice_end() in trace_event.hpp), so nested and interleaved
//     slices pair, and a slice split across chunks too. A kRingGap closes
//     nothing and drops every open begin: no slice spans lost records.
//
// On top of them: write_perfetto_json() renders chrome://tracing JSON
// (paired slices as "X", unpaired ends as instants, counters as "C"
// tracks, per-thread ring_dropped / decode_skipped counters, one pid and
// process_name per dump; the multi-dump overload shifts each process by
// its wall−mono offset onto ONE timeline). save/load_trace_dump() is a
// tiny self-describing binary container ("OFTRACE1") of the raw records
// plus process identity; the loader is hardened against hostile bytes —
// it returns a TraceLoadStatus, never throws, and never allocates beyond
// what the actual file size can back. slice_latency_histogram() folds
// slice durations into a LogHistogram — the p99/p99.9 source the bench
// tail gates consume.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <optional>
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
  /// undecodable prefix, and the run after each kRingGap; each bounded by
  /// the anchor cadence).
  std::uint64_t skipped_prefix = 0;
  /// realtime − monotonic at the last surviving anchor pair, when the dump
  /// contains kWallClockSync records (older dumps do not).
  bool has_wall_offset = false;
  std::int64_t wall_minus_mono_ns = 0;
};

/// One thread's decoder; its state carries across chunks.
class ThreadDecoder {
 public:
  /// The record with its absolute timestamp (anchors included), or nothing
  /// for a record with no anchor before it (the first, or the first after
  /// a kRingGap).
  std::optional<DecodedEvent> decode(const TraceRecord& record);
  [[nodiscard]] const DecodeStats& stats() const { return stats_; }

 private:
  bool anchored_ = false;
  std::uint64_t ts_ns_ = 0;
  DecodeStats stats_;
};

/// One closed slice: its begin event, and when it ended.
struct Slice {
  DecodedEvent begin;
  std::uint64_t end_ns = 0;
  std::uint64_t duration_ns() const { return end_ns - begin.ts_ns; }
};

/// One thread's begin/end pairer; open slices persist between calls.
class SlicePairer {
 public:
  /// A begin opens a slice; its end closes the innermost open one and
  /// returns it. Any other event, or an end whose begin was never fed
  /// (overwritten, or before the first anchor), returns nothing; a
  /// kRingGap drops every open begin.
  std::optional<Slice> pair(const DecodedEvent& event);

 private:
  std::array<std::vector<DecodedEvent>,  // open begins, by end id
             static_cast<std::size_t>(TraceEvent::kEventCount)>
      open_;
};

/// Decode one thread's records in one go, anchor pairs consumed.
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

/// Fold every slice `begin` opens, across all threads, into a duration
/// histogram (nanoseconds), as `fold` says.
[[nodiscard]] LogHistogram slice_latency_histogram(const TraceDump& dump,
                                                   TraceEvent begin,
                                                   SliceFold fold);

}  // namespace ofmtl::obs
