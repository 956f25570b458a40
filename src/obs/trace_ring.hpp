// Lock-free single-producer trace ring: the flight recorder one thread
// emits into. Fixed power-of-two capacity laid out at construction, no
// allocation and no locks on the emit path, and overwrite-oldest semantics
// on wrap — the producer NEVER blocks or drops the newest record; a slow
// (or absent) drain simply loses the oldest history, which is the right
// trade for always-on tracing.
//
// Concurrency contract (single producer, single consumer):
//   - emit()/push() may be called by exactly one thread (the ring's owner);
//   - drain() may be called by exactly one other thread, concurrently with
//     the producer — each published record is either drained exactly once
//     (in emit order) or counted in dropped(), never duplicated;
//   - every slot is a miniature seqlock over two atomic payload words: the
//     producer marks the slot busy (odd sequence), stores the packed
//     record, then publishes the even sequence with release order. The
//     consumer validates the sequence after copying; a slot the producer
//     lapped mid-copy is discarded and counted dropped, so torn reads are
//     impossible and the scheme is clean under ThreadSanitizer (all shared
//     words are atomics — no byte races, no fences over plain memory).
//
// Memory ordering argument (the exactly-once claim):
//   - producer: lo/hi relaxed stores → seq release-store(2g+2) → head
//     release-store(g+1). A consumer that acquire-loads head > g therefore
//     observes slot g's stable sequence and payload.
//   - consumer: copies lo/hi (relaxed), then acquire-fences and re-reads
//     seq. If the producer began rewriting the slot (generation g+capacity)
//     during the copy, the first write it made was the odd busy sequence —
//     the re-read cannot miss it, so a torn copy never validates.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/trace_event.hpp"
#include "runtime/cache_line.hpp"

namespace ofmtl::obs {

class TraceRing {
 public:
  /// Records between the automatic kTimeSync anchors emit() interleaves.
  /// Bounded by capacity/2 so any full window of surviving records holds at
  /// least one anchor (decode drops at most one cadence worth of prefix).
  static constexpr std::uint64_t kSyncCadence = 1024;

  /// `capacity` is rounded up to a power of two (minimum 4). Slots are laid
  /// out up front — the ring never allocates again.
  explicit TraceRing(std::size_t capacity) {
    std::size_t cap = 4;
    while (cap < capacity) cap <<= 1;
    capacity_ = cap;
    mask_ = cap - 1;
    slots_ = std::make_unique<Slot[]>(cap);
    sync_cadence_ = kSyncCadence < cap / 2 ? kSyncCadence : cap / 2;
  }

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// Producer: append one raw record (no clock, no sync interleaving — the
  /// deterministic primitive the wrap/drain property tests drive directly).
  void push(const TraceRecord& record) noexcept {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    Slot& slot = slots_[h & mask_];
    slot.seq.store(2 * h + 1, std::memory_order_relaxed);  // busy (odd)
    std::atomic_thread_fence(std::memory_order_release);
    slot.lo.store(pack_lo(record), std::memory_order_relaxed);
    slot.hi.store(pack_hi(record), std::memory_order_relaxed);
    slot.seq.store(2 * h + 2, std::memory_order_release);  // stable (even)
    head_.store(h + 1, std::memory_order_release);
  }

  /// Producer: timestamp `event` now and append it, interleaving anchor
  /// pairs — kTimeSync (monotonic ns) immediately followed by
  /// kWallClockSync (realtime ns) — at the cadence and on 32-bit delta
  /// overflow. The wall half is what lets trace_export --merge align dumps
  /// from different PROCESSES (each with its own steady-clock origin) on
  /// one timeline. Allocation-free, lock-free, noexcept — the hot-path
  /// entry point.
  void emit(TraceEvent event, std::uint16_t arg,
            std::uint64_t payload) noexcept {
    const std::uint64_t now = now_ns();
    std::uint64_t delta = now - last_ts_;
    if (records_since_sync_ >= sync_cadence_ || delta > 0xffffffffull ||
        head_.load(std::memory_order_relaxed) == 0) {
      push(TraceRecord{static_cast<std::uint16_t>(TraceEvent::kTimeSync), 0, 0,
                       now});
      push(TraceRecord{static_cast<std::uint16_t>(TraceEvent::kWallClockSync),
                       0, 0, wall_now_ns()});
      records_since_sync_ = 0;
      last_ts_ = now;
      delta = 0;
    }
    push(TraceRecord{static_cast<std::uint16_t>(event), arg,
                     static_cast<std::uint32_t>(delta), payload});
    ++records_since_sync_;
    last_ts_ = now;
  }

  /// Consumer: append every record published since the last drain to `out`,
  /// oldest first; returns how many were appended. Records the producer
  /// overwrote before (or while) being copied are skipped and counted in
  /// dropped(), and each skipped window is marked in `out` by one kRingGap
  /// record (payload = records lost), so a decoder never carries deltas
  /// across it. Safe concurrently with emit()/push(); one consumer only.
  std::size_t drain(std::vector<TraceRecord>& out) {
    std::uint64_t t = tail_;
    std::uint64_t h = head_.load(std::memory_order_acquire);
    std::size_t appended = 0;
    while (t != h) {
      if (h - t > capacity_) {
        // Producer lapped the unread window: everything older than one
        // capacity behind head is gone.
        const std::uint64_t lost = h - capacity_ - t;
        dropped_.fetch_add(lost, std::memory_order_relaxed);
        constexpr auto kGap = static_cast<std::uint16_t>(TraceEvent::kRingGap);
        if (appended > 0 && out.back().event == kGap) {
          out.back().payload += lost;  // lapped again before a record landed
        } else {
          out.push_back(TraceRecord{kGap, 0, 0, lost});
          ++appended;
        }
        t = h - capacity_;
        continue;
      }
      Slot& slot = slots_[t & mask_];
      const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
      if (seq == 2 * t + 2) {
        const std::uint64_t lo = slot.lo.load(std::memory_order_relaxed);
        const std::uint64_t hi = slot.hi.load(std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_acquire);
        if (slot.seq.load(std::memory_order_relaxed) == seq) {
          out.push_back(unpack_record(lo, hi));
          ++appended;
          ++t;
          continue;
        }
      }
      // The slot holds (or is becoming) a later generation. Re-read head:
      // either the lap is published (skip the lost records above) or the
      // producer is mid-write on exactly this slot (retry; it finishes in
      // a bounded handful of stores).
      h = head_.load(std::memory_order_acquire);
    }
    tail_ = t;
    return appended;
  }

  /// Crash-path consumer: copy the newest published records (up to `max`,
  /// oldest-first) into `out` WITHOUT advancing the drain cursor or touching
  /// any non-atomic state. Async-signal-safe: only atomic loads into a
  /// caller-provided buffer — no allocation, no locks, no librt. Torn slots
  /// (producer mid-write when the signal landed) fail seqlock validation and
  /// are skipped, so the copy is always a consistent suffix sample. Safe to
  /// call from a signal handler running on ANY thread while producers keep
  /// emitting; may race an in-progress drain (it reads, never writes).
  std::size_t peek(TraceRecord* out, std::size_t max) const noexcept {
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    std::uint64_t window = h < capacity_ ? h : capacity_;
    if (window > max) window = max;
    std::size_t copied = 0;
    for (std::uint64_t t = h - window; t != h; ++t) {
      const Slot& slot = slots_[t & mask_];
      const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
      if (seq != 2 * t + 2) continue;  // overwritten or mid-write: skip
      const std::uint64_t lo = slot.lo.load(std::memory_order_relaxed);
      const std::uint64_t hi = slot.hi.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_relaxed) != seq) continue;
      out[copied++] = unpack_record(lo, hi);
    }
    return copied;
  }

  /// Total records emitted (producer-side, racy read from elsewhere).
  [[nodiscard]] std::uint64_t emitted() const {
    return head_.load(std::memory_order_relaxed);
  }
  /// Records overwritten before a drain could copy them.
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Steady-clock nanoseconds — the one clock every ring shares, so slices
  /// from different threads align on one timeline at export.
  [[nodiscard]] static std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  /// Realtime (wall) nanoseconds — the second half of each anchor pair.
  /// Wall time can step (NTP), which is exactly why it is only ever used to
  /// compute a per-process wall−mono offset at export, never for deltas.
  [[nodiscard]] static std::uint64_t wall_now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
  }

 private:
  /// 16-byte record + 8-byte seqlock word; atomics so the concurrent drain
  /// is race-free by construction (validated, never torn).
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> lo{0};
    std::atomic<std::uint64_t> hi{0};
  };

  std::unique_ptr<Slot[]> slots_;
  std::size_t capacity_ = 0;
  std::size_t mask_ = 0;
  std::uint64_t sync_cadence_ = kSyncCadence;
  // Producer-owned (single writer): cursor plus delta/sync bookkeeping.
  alignas(ofmtl::runtime::kCacheLine) std::atomic<std::uint64_t> head_{0};
  std::uint64_t last_ts_ = 0;
  std::uint64_t records_since_sync_ = 0;
  // Consumer-owned.
  alignas(ofmtl::runtime::kCacheLine) std::uint64_t tail_ = 0;
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace ofmtl::obs
