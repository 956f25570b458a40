// Left-right snapshot handoff for the classification state: two long-lived
// MultiTableLookup replicas ("sides"); readers pin the active side through a
// wait-free epoch/refcount guard, the writer applies every flow-mod TWICE —
// once to the inactive side, swap, once to the now-inactive side — so
// publish cost is O(delta of the flow-mod), independent of table size. This
// replaces the PR-2 clone-per-publish RCU scheme, whose O(table) clone
// capped churn at tens of publishes/sec on large rule sets.
//
// The protocol is the left-right technique of Ramalhete & Correia: an
// `active side` index says which replica readers use, a separate `version
// index` says which of two read indicators arriving readers mark, and the
// writer drains both indicators (in versionIndex-toggle order) between the
// swap and the second apply, so it never mutates a side a reader still
// holds. Reads are wait-free (one fetch_add + one fetch_sub per guard, no
// locks, no allocation); writers block for at most the longest in-flight
// read section (one batch). The full memory-ordering argument lives in
// docs/ARCHITECTURE.md.
//
// Concurrency contract:
//   - any number of reader threads; writers are serialized internally
//   - a ReadGuard pins one side at one epoch; batches classified under one
//     guard are wholly pre- or wholly post- any concurrent flow-mod
//   - a thread holding a ReadGuard must NOT call the writer API (the writer
//     waits for that very guard to depart — self-deadlock)
//   - update() callables run once per side and must be deterministic
//   - each side's delta log (MultiTableLookup::still_valid) is written only
//     by that side's applies, stamped with the epoch being published, so a
//     pinned side's log is frozen with it
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <utility>

#include "core/pipeline.hpp"
#include "runtime/cache_line.hpp"

namespace ofmtl::runtime {

/// Two-replica left-right classification state with O(delta) publish.
class SnapshotClassifier {
 public:
  /// Builds the two sides: one by moving `initial` in, the other as its
  /// clone — the only O(table) cost in the classifier's lifetime.
  explicit SnapshotClassifier(MultiTableLookup initial);

  SnapshotClassifier(const SnapshotClassifier&) = delete;
  SnapshotClassifier& operator=(const SnapshotClassifier&) = delete;

  /// Reader-side pin on one side of the pair. Move-only; departs its read
  /// indicator on destruction. Holding a guard blocks writers (they wait for
  /// readers to drain before reusing the side), so keep read sections
  /// batch-sized, and never call the writer API while holding one.
  class ReadGuard {
   public:
    ReadGuard(ReadGuard&& other) noexcept
        : owner_(std::exchange(other.owner_, nullptr)),
          indicator_(other.indicator_),
          tables_(other.tables_),
          epoch_(other.epoch_) {}
    ReadGuard& operator=(ReadGuard&& other) noexcept {
      if (this != &other) {
        release();
        owner_ = std::exchange(other.owner_, nullptr);
        indicator_ = other.indicator_;
        tables_ = other.tables_;
        epoch_ = other.epoch_;
      }
      return *this;
    }
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;
    ~ReadGuard() { release(); }

    /// The pinned replica. Valid until the guard is destroyed/moved-from.
    [[nodiscard]] const MultiTableLookup& tables() const { return *tables_; }
    /// Publish epoch of the pinned replica (monotonic, one per flow-mod).
    [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

   private:
    friend class SnapshotClassifier;
    ReadGuard(const SnapshotClassifier* owner, std::size_t indicator,
              const MultiTableLookup* tables, std::uint64_t epoch)
        : owner_(owner), indicator_(indicator), tables_(tables), epoch_(epoch) {}
    void release() {
      if (owner_ == nullptr) return;
      owner_->readers_[indicator_].count.fetch_sub(1,
                                                   std::memory_order_release);
      owner_ = nullptr;
    }
    const SnapshotClassifier* owner_ = nullptr;
    std::size_t indicator_ = 0;
    const MultiTableLookup* tables_ = nullptr;
    std::uint64_t epoch_ = 0;
  };

  /// Reader side: pin the active side. Wait-free, allocation-free; one guard
  /// per batch (not per packet) tracks updates at batch boundaries.
  [[nodiscard]] ReadGuard acquire() const;

  /// Current publish epoch (the epoch acquire() would observe).
  [[nodiscard]] std::uint64_t epoch() const { return acquire().epoch(); }

  /// Writer side: validate one flow-mod through MultiTableLookup::apply,
  /// apply it to both sides and publish one epoch — only on kOk; a rejected
  /// mod leaves both sides and the epoch as they were. O(delta), not
  /// O(table): the sides are updated in place, never cloned.
  [[nodiscard]] FlowModStatus apply(FlowModCommand command, std::size_t table,
                                    const FlowEntry& entry);

  /// Writer side, coalesced: apply an arbitrary mutation and publish once.
  /// `mutate` is invoked once per side (twice total) on replicas with
  /// identical logical content — it must be deterministic and safe to call
  /// twice (no moved-from captures, no external side effects).
  void update(const std::function<void(MultiTableLookup&)>& mutate);

 private:
  struct alignas(kCacheLine) ReadIndicator {
    std::atomic<std::uint64_t> count{0};
  };

  /// Left-right write protocol around `op` (bool(MultiTableLookup&), returns
  /// whether it mutated). Caller holds write_mutex_. Returns whether a new
  /// epoch was published; when op reports no change on the first side, the
  /// pair is left untouched and nothing publishes.
  template <typename Op>
  bool publish(Op&& op);
  /// Spin until the given indicator has no registered readers.
  void wait_for_readers(std::size_t indicator) const;
  /// Exception recovery: rebuild side `side` from the other side's content
  /// so the pair cannot diverge. O(table), exceptional path only.
  void resync_side(std::size_t side);

  mutable std::mutex write_mutex_;  // serializes writers
  MultiTableLookup sides_[2];       // the replica pair (writer-owned halves)
  std::uint64_t side_epoch_[2] = {0, 0};  // written only while writer owns
  std::uint64_t next_epoch_ = 1;
  // seq_cst throughout: the drain-vs-late-arrival race is excluded by the
  // single total order (see docs/ARCHITECTURE.md); these are one load/RMW
  // per *batch* on the read side, so the fence cost is noise.
  std::atomic<std::size_t> active_side_{0};
  std::atomic<std::size_t> version_index_{0};
  mutable ReadIndicator readers_[2];
};

}  // namespace ofmtl::runtime
