// Trace-event vocabulary of the observability layer: fixed-size 16-byte
// records in the Perfetto syscall-tracing mold — the hot path records only
// an event id, a compact timestamp delta, and one packed payload word;
// every expensive step (absolute-timestamp reconstruction, event naming,
// begin/end pairing into slices, JSON encoding) is deferred to export time
// (obs/export.hpp), so emitting costs a clock read plus three stores.
//
// Timestamps are deltas, not absolutes: each record carries the nanoseconds
// since the previous record of the SAME ring (32-bit, so up to ~4.29 s of
// silence between records), and the producer interleaves kTimeSync records
// — absolute steady-clock nanoseconds in the payload — at a fixed cadence
// and whenever a delta would overflow. Decoding accumulates deltas from the
// latest sync, which makes the format self-synchronizing: after the ring
// overwrites its oldest records, the decoder simply drops the (bounded)
// prefix before the first surviving sync record. A lap between two drains
// is marked in the drained stream by one kRingGap record, from which the
// decoder again waits for the next sync record.
#pragma once

#include <cstdint>
#include <string_view>

namespace ofmtl::obs {

/// Every instrumented hot-path event. Values are part of the on-disk trace
/// format (tools/trace_export reads raw records), so append only; a removed
/// event's id is retired, never reused, and decodes as "unknown".
enum class TraceEvent : std::uint16_t {
  kTimeSync = 0,      ///< payload = absolute steady-clock ns (decoder anchor)
  kBatchBegin = 1,    ///< worker dequeued a batch; payload = packet count
  kBatchEnd = 2,      ///< batch classified; payload = packet count
  kStageBegin = 3,    ///< table stage walk; arg = table, payload = lanes
  kStageEnd = 4,      ///< table stage done; arg = table, payload = lanes
  kPublishBegin = 5,  ///< left-right publish entered; payload = epoch
  kPublishEnd = 6,    ///< left-right publish complete; payload = epoch
  kStealAttempt = 7,  ///< worker went dry and scanned siblings; arg = self
  kStealSuccess = 8,  ///< batch popped from a sibling; arg = victim queue
  kCacheHits = 9,     ///< flow-cache hits in one batch; payload = count
  kCacheMisses = 10,  ///< flow-cache misses in one batch; payload = count
  kCacheEpochInvalidations = 11,  ///< stale-epoch hits voided; payload = count
  // 12 through 15 are retired ids: never reuse them.
  kOfpApplyBegin = 16,  ///< flow-mod batch handed to the sink; payload = mods
  kOfpApplyEnd = 17,    ///< flow-mod batch published; payload = mods
  // 18 is a retired id: never reuse it.
  kWallClockSync = 19,  ///< payload = realtime (wall) ns; always emitted
                        ///< immediately after a kTimeSync anchor, so the
                        ///< (mono, wall) pair aligns rings from different
                        ///< PROCESSES on one timeline (trace_export --merge)
  kOfpReadBegin = 20,   ///< session ingest slice opened; payload = bytes
  kOfpReadEnd = 21,     ///< session ingest slice closed; payload = bytes
  kOfpDecodeBegin = 22,  ///< frame decode slice; arg = session
  kOfpDecodeEnd = 23,    ///< decode done; payload = (status << 32) | bytes
  kOfpBarrierBegin = 24,  ///< echo/barrier handling; arg = session
  kOfpBarrierEnd = 25,    ///< barrier reply queued; arg = session
  kRecorderBreach = 26,   ///< flight-recorder SLO breach; arg = SLO index,
                          ///< payload = observed p99 ns
  kRingGap = 27,  ///< written by TraceRing::drain, never emitted: the ring
                  ///< lapped here; payload = records lost
  kPublishCatchUpBegin = 28,  ///< inside a publish: wait for the lagging
                              ///< side's readers, then replay the previous
                              ///< publish onto it; payload = its epoch
  kPublishCatchUpEnd = 29,    ///< lagging side level; payload = its epoch
  kCacheRevalidations = 30,   ///< stale hits revalidated and served (a
                              ///< share of kCacheHits); payload = count
  kEventCount           ///< sentinel — not a real event
};

/// How an event renders in a chrome://tracing / Perfetto timeline.
enum class TraceEventKind : std::uint8_t {
  kInstant,  ///< a point marker (ph "i")
  kBegin,    ///< opens a duration slice (paired with its kEnd into ph "X")
  kEnd,      ///< closes the innermost open slice of the same pair
  kCounter,  ///< a sampled counter value (ph "C")
};

/// One trace record exactly as it sits in the ring: 16 bytes, trivially
/// copyable, decoded only at export time.
struct TraceRecord {
  std::uint16_t event = 0;     ///< TraceEvent
  std::uint16_t arg = 0;       ///< small event-specific argument
  std::uint32_t ts_delta = 0;  ///< ns since the previous record in this ring
  std::uint64_t payload = 0;   ///< event-specific payload word
};
static_assert(sizeof(TraceRecord) == 16, "records are fixed 16-byte");

/// The ring stores records as two 64-bit words (its slots are atomics, so a
/// concurrent drain never reads torn bytes under TSan); pack/unpack is the
/// bijection between the struct and that wire form. Field layout is fixed
/// little-endian-in-the-word, so a dump written on one machine decodes
/// identically on another.
[[nodiscard]] constexpr std::uint64_t pack_lo(const TraceRecord& r) {
  return static_cast<std::uint64_t>(r.event) |
         (static_cast<std::uint64_t>(r.arg) << 16) |
         (static_cast<std::uint64_t>(r.ts_delta) << 32);
}
[[nodiscard]] constexpr std::uint64_t pack_hi(const TraceRecord& r) {
  return r.payload;
}
[[nodiscard]] constexpr TraceRecord unpack_record(std::uint64_t lo,
                                                  std::uint64_t hi) {
  TraceRecord r;
  r.event = static_cast<std::uint16_t>(lo & 0xffff);
  r.arg = static_cast<std::uint16_t>((lo >> 16) & 0xffff);
  r.ts_delta = static_cast<std::uint32_t>(lo >> 32);
  r.payload = hi;
  return r;
}

/// Stable display name (also the slice name begin/end pairs share).
[[nodiscard]] constexpr const char* trace_event_name(TraceEvent event) {
  switch (event) {
    case TraceEvent::kTimeSync: return "time_sync";
    case TraceEvent::kBatchBegin:
    case TraceEvent::kBatchEnd: return "batch";
    case TraceEvent::kStageBegin:
    case TraceEvent::kStageEnd: return "stage_walk";
    case TraceEvent::kPublishBegin:
    case TraceEvent::kPublishEnd: return "publish";
    case TraceEvent::kStealAttempt: return "steal_attempt";
    case TraceEvent::kStealSuccess: return "steal_success";
    case TraceEvent::kCacheHits: return "cache_hits";
    case TraceEvent::kCacheMisses: return "cache_misses";
    case TraceEvent::kCacheEpochInvalidations: return "cache_epoch_inval";
    case TraceEvent::kCacheRevalidations: return "cache_revalidations";
    case TraceEvent::kOfpApplyBegin:
    case TraceEvent::kOfpApplyEnd: return "ofp_apply";
    case TraceEvent::kWallClockSync: return "wall_clock_sync";
    case TraceEvent::kOfpReadBegin:
    case TraceEvent::kOfpReadEnd: return "ofp_ingest";
    case TraceEvent::kOfpDecodeBegin:
    case TraceEvent::kOfpDecodeEnd: return "ofp_decode";
    case TraceEvent::kOfpBarrierBegin:
    case TraceEvent::kOfpBarrierEnd: return "ofp_barrier";
    case TraceEvent::kRecorderBreach: return "recorder_breach";
    case TraceEvent::kRingGap: return "ring_gap";
    case TraceEvent::kPublishCatchUpBegin:
    case TraceEvent::kPublishCatchUpEnd: return "publish_catchup";
    case TraceEvent::kEventCount: break;
  }
  return "unknown";
}

[[nodiscard]] constexpr TraceEventKind trace_event_kind(TraceEvent event) {
  switch (event) {
    case TraceEvent::kBatchBegin:
    case TraceEvent::kStageBegin:
    case TraceEvent::kPublishBegin:
    case TraceEvent::kPublishCatchUpBegin:
    case TraceEvent::kOfpApplyBegin:
    case TraceEvent::kOfpReadBegin:
    case TraceEvent::kOfpDecodeBegin:
    case TraceEvent::kOfpBarrierBegin: return TraceEventKind::kBegin;
    case TraceEvent::kBatchEnd:
    case TraceEvent::kStageEnd:
    case TraceEvent::kPublishEnd:
    case TraceEvent::kPublishCatchUpEnd:
    case TraceEvent::kOfpApplyEnd:
    case TraceEvent::kOfpReadEnd:
    case TraceEvent::kOfpDecodeEnd:
    case TraceEvent::kOfpBarrierEnd: return TraceEventKind::kEnd;
    case TraceEvent::kCacheHits:
    case TraceEvent::kCacheMisses:
    case TraceEvent::kCacheEpochInvalidations:
    case TraceEvent::kCacheRevalidations: return TraceEventKind::kCounter;
    default: return TraceEventKind::kInstant;
  }
}

/// A slice's end id is its begin id + 1, under the same name: pairing keys
/// on this, so a begin alone names its slice.
[[nodiscard]] constexpr TraceEvent slice_end(TraceEvent begin) {
  return static_cast<TraceEvent>(static_cast<std::uint16_t>(begin) + 1);
}
[[nodiscard]] constexpr bool slice_ends_follow_begins() {
  for (int id = 0; id < static_cast<int>(TraceEvent::kEventCount); ++id) {
    const auto event = static_cast<TraceEvent>(id);
    const bool opens = trace_event_kind(event) == TraceEventKind::kBegin;
    const bool closed_next =
        trace_event_kind(slice_end(event)) == TraceEventKind::kEnd;
    if (opens != closed_next ||
        (opens && std::string_view(trace_event_name(event)) !=
                      trace_event_name(slice_end(event)))) {
      return false;
    }
  }
  return true;
}
static_assert(slice_ends_follow_begins(), "a slice's end is its begin + 1");

}  // namespace ofmtl::obs
