#include "runtime/snapshot.hpp"

#include <optional>
#include <thread>

#include "obs/tracer.hpp"

namespace ofmtl::runtime {

SnapshotClassifier::SnapshotClassifier(MultiTableLookup initial)
    : sides_{MultiTableLookup{}, MultiTableLookup{}} {
  sides_[0] = std::move(initial);
  // Side epochs start at 0; a log carried over from elsewhere would not
  // describe them.
  sides_[0].restart_log(0);
  // clone() replays entries in insertion order, so both sides tie-break
  // equal priorities identically; from here on the sides only ever receive
  // the same op sequence and stay behaviourally identical.
  sides_[1] = sides_[0].clone();
}

SnapshotClassifier::ReadGuard SnapshotClassifier::acquire() const {
  // Arrive on the current indicator BEFORE reading the active side: the
  // writer drains this indicator before touching the side the load below
  // can return, so the side stays frozen for the guard's lifetime.
  const std::size_t vi = version_index_.load(std::memory_order_seq_cst);
  readers_[vi].count.fetch_add(1, std::memory_order_seq_cst);
  const std::size_t side = active_side_.load(std::memory_order_seq_cst);
  return ReadGuard{this, vi, &sides_[side], side_epoch_[side]};
}

void SnapshotClassifier::wait_for_readers(std::size_t indicator) const {
  while (readers_[indicator].count.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }
}

void SnapshotClassifier::resync_side(std::size_t side) {
  sides_[side] = sides_[1 - side].clone();
  side_epoch_[side] = side_epoch_[1 - side];
}

template <typename Op>
bool SnapshotClassifier::publish(Op&& op) {
  const std::size_t active = active_side_.load(std::memory_order_relaxed);
  const std::size_t inactive = 1 - active;
  // Each side logs the mutations of this publish under the epoch it is
  // about to carry, on a side no reader holds, so a pinned side and its
  // delta log are frozen together.
  const auto apply = [&](MultiTableLookup& side) {
    side.set_log_epoch(next_epoch_);
    const bool changed = op(side);
    // A whole-side assignment inside update() brought a log that never saw
    // this publish: nothing cached before it revalidates.
    if (side.log_epoch() != next_epoch_) side.restart_log(next_epoch_);
    return changed;
  };
  OFMTL_OBS_EMIT(obs::TraceEvent::kPublishBegin, 0, next_epoch_);
  // 1. Apply to the inactive side — no reader can hold it (the previous
  // publish drained them). A throwing op may leave the side half-mutated;
  // resync it from the untouched active side so the pair cannot diverge.
  try {
    if (!apply(sides_[inactive])) {
      // No-op: close the slice so the trace shows the rejected publish too.
      OFMTL_OBS_EMIT(obs::TraceEvent::kPublishEnd, 0, next_epoch_);
      return false;
    }
  } catch (...) {
    resync_side(inactive);
    throw;
  }
  side_epoch_[inactive] = next_epoch_;
  // 2. Swap: new readers now pin the freshly updated side.
  active_side_.store(inactive, std::memory_order_seq_cst);
  // 3. Drain both indicators in version-index-toggle order. After the
  // second wait no reader can still hold the old side: readers arriving
  // once version_index_ flipped mark the other indicator and (by the
  // seq_cst total order) observe the new active_side_.
  const std::size_t vi = version_index_.load(std::memory_order_relaxed);
  wait_for_readers(1 - vi);
  version_index_.store(1 - vi, std::memory_order_seq_cst);
  wait_for_readers(vi);
  // 4. Apply to the old side (now reader-free), converging the pair. A
  // deterministic op cannot fail here having succeeded in step 1; if it
  // somehow does, repair the lagging replica — the publish itself stands.
  try {
    if (!apply(sides_[active])) {
      resync_side(active);
      ++next_epoch_;
      OFMTL_OBS_EMIT(obs::TraceEvent::kPublishEnd, 0, next_epoch_);
      return true;
    }
  } catch (...) {
    resync_side(active);
    ++next_epoch_;
    OFMTL_OBS_EMIT(obs::TraceEvent::kPublishEnd, 0, next_epoch_);
    return true;
  }
  side_epoch_[active] = next_epoch_;
  ++next_epoch_;
  OFMTL_OBS_EMIT(obs::TraceEvent::kPublishEnd, 0, next_epoch_);
  return true;
}

FlowModStatus SnapshotClassifier::apply(FlowModCommand command,
                                        std::size_t table,
                                        const FlowEntry& entry) {
  const std::lock_guard<std::mutex> lock(write_mutex_);
  // apply() checks before it mutates, so a rejection on the first side
  // leaves it untouched and publish() stops there. Both sides hold the same
  // content under the write lock, so the first side's status is the mod's.
  std::optional<FlowModStatus> status;
  (void)publish([&](MultiTableLookup& side) {
    const FlowModStatus side_status = side.apply(command, table, entry);
    if (!status) status = side_status;
    return side_status == FlowModStatus::kOk;
  });
  return *status;
}

void SnapshotClassifier::update(
    const std::function<void(MultiTableLookup&)>& mutate) {
  const std::lock_guard<std::mutex> lock(write_mutex_);
  (void)publish([&](MultiTableLookup& side) {
    mutate(side);
    return true;
  });
}

}  // namespace ofmtl::runtime
