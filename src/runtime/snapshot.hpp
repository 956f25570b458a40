// Left-right snapshot handoff for the classification state: two long-lived
// MultiTableLookup replicas ("sides"); readers pin the active side through a
// lock-free guard, and the writer runs each publish's mutation ONCE, on the
// inactive side, recording it into an op log, then swaps and returns. The
// other side catches up at the start of the next publish by replaying that
// log, so publish cost is O(delta of the flow-mods), independent of table
// size, and a publish never waits for readers of the side it just made
// active. This replaces the PR-2 clone-per-publish RCU scheme, whose
// O(table) clone capped churn at tens of publishes/sec on large rule sets.
//
// The protocol is the left-right technique of Ramalhete & Correia with one
// read indicator per side, and evmap's deferred op log: an `active side`
// index says which replica readers use; a reader arrives on that side's
// indicator and re-checks the index, so the writer, before it touches the
// lagging side, waits only for that side's readers, which normally left a
// data window earlier. Reads are lock-free (one fetch_add, two loads and
// one fetch_sub per guard, no locks, no allocation; a reader retries only
// when a swap lands between its two loads). The full memory-ordering
// argument lives in docs/ARCHITECTURE.md.
//
// Concurrency contract:
//   - any number of reader threads; writers are serialized internally
//   - a ReadGuard pins one side at one epoch; batches classified under one
//     guard are wholly pre- or wholly post- any concurrent flow-mod
//   - a publish returns without waiting for readers; the NEXT publish waits
//     until no guard pins the side it is about to catch up
//   - a thread holding a ReadGuard must NOT call the writer API (the next
//     publish may wait for that very guard to depart — self-deadlock)
//   - update() runs its callable once; a change the op log cannot describe
//     (add_table, a whole-side assignment) makes the lagging side catch up
//     by clone, the only O(table) publish
//   - each side's delta log (MultiTableLookup::still_valid) is written only
//     by that side's applies and replays, stamped with the epoch of the
//     publish that made them, so a pinned side's log is frozen with it
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
  /// clone — the only O(table) cost in the classifier's lifetime, unless a
  /// publish makes a change its op log cannot describe.
  explicit SnapshotClassifier(MultiTableLookup initial);

  SnapshotClassifier(const SnapshotClassifier&) = delete;
  SnapshotClassifier& operator=(const SnapshotClassifier&) = delete;

  /// Reader-side pin on one side of the pair. Move-only; departs its side's
  /// read indicator on destruction. Holding a guard on the side a later
  /// publish must catch up blocks that publish, so keep read sections
  /// batch-sized, and never call the writer API while holding one.
  class ReadGuard {
   public:
    ReadGuard(ReadGuard&& other) noexcept
        : owner_(std::exchange(other.owner_, nullptr)),
          side_(other.side_),
          tables_(other.tables_),
          epoch_(other.epoch_) {}
    ReadGuard& operator=(ReadGuard&& other) noexcept {
      if (this != &other) {
        release();
        owner_ = std::exchange(other.owner_, nullptr);
        side_ = other.side_;
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
    ReadGuard(const SnapshotClassifier* owner, std::size_t side,
              const MultiTableLookup* tables, std::uint64_t epoch)
        : owner_(owner), side_(side), tables_(tables), epoch_(epoch) {}
    void release() {
      if (owner_ == nullptr) return;
      owner_->readers_[side_].count.fetch_sub(1, std::memory_order_release);
      owner_ = nullptr;
    }
    const SnapshotClassifier* owner_ = nullptr;
    std::size_t side_ = 0;
    const MultiTableLookup* tables_ = nullptr;
    std::uint64_t epoch_ = 0;
  };

  /// Reader side: pin the active side. Lock-free, allocation-free; one guard
  /// per batch (not per packet) tracks updates at batch boundaries.
  [[nodiscard]] ReadGuard acquire() const;

  /// Current publish epoch (the epoch acquire() would observe).
  [[nodiscard]] std::uint64_t epoch() const { return acquire().epoch(); }

  /// Writer side: validate one flow-mod through MultiTableLookup::apply and
  /// publish one epoch — only on kOk; a rejected mod leaves the published
  /// content and the epoch as they were. O(delta), not O(table): the sides
  /// are updated in place, never cloned.
  [[nodiscard]] FlowModStatus apply(FlowModCommand command, std::size_t table,
                                    const FlowEntry& entry);

  /// Writer side, coalesced: run `mutate` once, on the inactive side, and
  /// publish one epoch. The other side replays what `mutate` recorded (its
  /// kOk applies and set_group_table calls) at the next publish; anything
  /// else it did makes that side catch up by clone.
  void update(const std::function<void(MultiTableLookup&)>& mutate);

 private:
  struct alignas(kCacheLine) ReadIndicator {
    std::atomic<std::uint64_t> count{0};
  };

  /// Left-right write protocol around `op` (bool(MultiTableLookup&), returns
  /// whether it mutated). Caller holds write_mutex_. Returns whether a new
  /// epoch was published; when op reports no change, nothing publishes.
  template <typename Op>
  bool publish(Op&& op);
  /// Bring the inactive side `side` level with the active one: wait for its
  /// readers, then replay op_log_ under the active side's epoch, or clone
  /// when the log cannot describe the last publish.
  void catch_up(std::size_t side);
  /// Spin until no reader pins side `side`.
  void wait_for_readers(std::size_t side) const;
  /// Rebuild side `side` from the other side's content, epoch and delta
  /// log. O(table); only for what the op log cannot replay.
  void resync_side(std::size_t side);

  mutable std::mutex write_mutex_;  // serializes writers
  // The replica pair (writer-owned halves). Each side's log_epoch() is the
  // epoch its content was published at, written only while the writer owns
  // the side.
  MultiTableLookup sides_[2];
  std::uint64_t next_epoch_ = 1;
  // The last publish's ops: applied to the active side, not yet to the
  // other (whose log_epoch() then lags). Writer-only.
  MultiTableLookup::OpLog op_log_;
  // seq_cst throughout: the stale-load race is excluded by the single total
  // order (see docs/ARCHITECTURE.md); these are one RMW and two loads per
  // *batch* on the read side, so the fence cost is noise.
  std::atomic<std::size_t> active_side_{0};
  mutable ReadIndicator readers_[2];  // readers pinning sides_[0] / [1]
};

}  // namespace ofmtl::runtime
