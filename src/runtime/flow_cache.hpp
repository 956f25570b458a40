// Per-worker exact-match flow cache: a fixed-capacity open-addressing table
// (flat_hash.hpp idioms — power-of-two capacity, splitmix64-spread hashes,
// short bounded probe windows) mapping a packet's full field tuple (its
// 152-byte PacketHeader) to the final ExecutionResult the pipeline produced
// for it, stamped with the left-right snapshot epoch that produced it.
//
// A publish does not void the cache; it makes entries *stale*. An entry
// stamped with an older epoch than the current batch's guard is handed to
// the pinned side's MultiTableLookup::still_valid, which probes that side's
// delta log, indexed by removed entry and by inserted rules' lead tests,
// for a mutation published since the stamp that could touch the cached
// walk: a few hash probes, however many mutations were published. If none
// could have changed the walk, the entry is restamped to the batch epoch
// and served (a revalidation); otherwise it is a miss (an epoch
// invalidation) and is refilled from the full pipeline.
// An entry older than the log's floor is always a miss, so voiding on every
// publish is the fallback, not a separate path. Nothing crosses threads:
// the log is part of the pinned side, frozen while the guard is held.
//
// Refills that would displace a live current-epoch entry pass a one-byte
// doorkeeper first (the TinyLFU doorkeeper): the first such refill of a flow
// only writes its tag at the flow's home slot, the second evicts. Empty and
// stale slots fill at once. Each probe window's {hash, epoch} words sit in
// one 64-byte line apart from the 384-byte key/result payloads, so a miss
// reads one line, not four payloads.
//
// Ownership rules (mirror the "Scratch contexts" rules in
// docs/ARCHITECTURE.md):
//   - one FlowCache per worker thread, never shared — per-worker caches
//     need no coherence because each is consulted and refilled only under
//     that worker's own pinned guard
//   - steady state is allocation-free: slots are laid out at construction;
//     refills copy-assign into slot ExecutionResults whose vectors keep
//     their high-water capacity
//   - counters are plain (single-writer); the runtime publishes per-batch
//     deltas through its atomic WorkerStats
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "flow/pipeline_ref.hpp"
#include "net/header.hpp"

namespace ofmtl {
class MultiTableLookup;
}  // namespace ofmtl

namespace ofmtl::runtime {

/// Monotonic counters of one cache (single-writer, read via WorkerStats).
struct FlowCacheStats {
  std::uint64_t hits = 0;           ///< includes revalidations
  std::uint64_t misses = 0;         ///< includes epoch_invalidations
  std::uint64_t evictions = 0;      ///< live current-epoch entries displaced
  std::uint64_t epoch_invalidations = 0;  ///< key matched, stale, not served
  std::uint64_t revalidations = 0;  ///< stale entries restamped and served
  std::uint64_t admissions_declined = 0;  ///< refills that only left a tag
};

/// Fixed-capacity open-addressing key→result cache with delta-log
/// revalidation. Not thread-safe by design — one instance per worker.
class FlowCache {
 public:
  /// Slots probed per lookup/insert (the associativity of one hash bucket).
  static constexpr std::size_t kProbeWindow = 4;

  /// `capacity` is rounded up to a power of two (minimum kProbeWindow).
  /// Every slot is laid out up front — the cache never grows.
  explicit FlowCache(std::size_t capacity);

  /// The result cached for `header` under `epoch`, or nullptr on a miss.
  /// `hash` must be flow_key_hash(header). A key match stamped with an
  /// older epoch is served only if `tables` — the side the batch is pinned
  /// to — revalidates it; it is then restamped to `epoch`. A stale miss is
  /// counted separately; the caller refills via store().
  [[nodiscard]] const ExecutionResult* find(const PacketHeader& header,
                                            std::uint64_t hash,
                                            std::uint64_t epoch,
                                            const MultiTableLookup& tables);

  /// Start loading `hash`'s probe window, ahead of a find() for it.
  void prefetch_window(std::uint64_t hash) const {
    __builtin_prefetch(&windows_[window_of(hash)]);
  }
  /// Start loading the key and result of each slot in `hash`'s window whose
  /// hash matches (call once the window itself has arrived).
  void prefetch_entries(std::uint64_t hash) const;

  /// Cache `result` for `header` under `epoch`, preferring (in order) the
  /// key's existing slot, an empty slot and a stale-epoch slot. With none
  /// of them, the refill would evict a live entry (round-robin victim): it
  /// does so only if the doorkeeper at the flow's home slot already holds
  /// the flow's tag, and otherwise records the tag and caches nothing.
  void store(const PacketHeader& header, std::uint64_t hash,
             std::uint64_t epoch, const ExecutionResult& result);

  [[nodiscard]] const FlowCacheStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t capacity() const { return entries_.size(); }

 private:
  /// Epoch of a slot that holds nothing.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  /// The probe-window metadata: one cache line per window.
  struct alignas(64) Window {
    std::array<std::uint64_t, kProbeWindow> hash{};
    std::array<std::uint64_t, kProbeWindow> epoch{};
  };
  static_assert(sizeof(Window) == 64, "one window, one cache line");

  struct Entry {
    PacketHeader key;
    ExecutionResult value;
  };

  [[nodiscard]] std::size_t window_of(std::uint64_t hash) const {
    return (hash & mask_) / kProbeWindow;
  }

  std::vector<Window> windows_;
  std::vector<Entry> entries_;       ///< slot w * kProbeWindow + p
  std::vector<std::uint8_t> doors_;  ///< doorkeeper tag per home slot
  std::size_t mask_ = 0;
  std::size_t victim_rotor_ = 0;
  FlowCacheStats stats_;
};

}  // namespace ofmtl::runtime
