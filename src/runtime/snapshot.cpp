#include "runtime/snapshot.hpp"

#include <thread>

#include "obs/tracer.hpp"

namespace ofmtl::runtime {

SnapshotClassifier::SnapshotClassifier(MultiTableLookup initial)
    : sides_{MultiTableLookup{}, MultiTableLookup{}} {
  sides_[0] = std::move(initial);
  // Side epochs start at 0; a log carried over from elsewhere would not
  // describe them.
  sides_[0].restart_log(0);
  // Only a publish attaches an op log to a side, and only its own.
  (void)sides_[0].record_into(nullptr);
  // clone() replays entries in insertion order, so both sides tie-break
  // equal priorities identically; from here on the sides only ever receive
  // the same op sequence and stay behaviourally identical.
  sides_[1] = sides_[0].clone();
}

SnapshotClassifier::ReadGuard SnapshotClassifier::acquire() const {
  // Arrive on the indicator of the side read, then check that the side is
  // still active. Once it is, the writer cannot touch it before swapping
  // away and then seeing this arrival in its wait (see docs/ARCHITECTURE.md);
  // if a swap landed in between, leave and pin the new side instead.
  for (;;) {
    const std::size_t side = active_side_.load(std::memory_order_seq_cst);
    readers_[side].count.fetch_add(1, std::memory_order_seq_cst);
    if (active_side_.load(std::memory_order_seq_cst) == side) {
      return ReadGuard{this, side, &sides_[side], sides_[side].log_epoch()};
    }
    readers_[side].count.fetch_sub(1, std::memory_order_release);
  }
}

void SnapshotClassifier::wait_for_readers(std::size_t side) const {
  while (readers_[side].count.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }
}

void SnapshotClassifier::resync_side(std::size_t side) {
  sides_[side] = sides_[1 - side].clone();
}

void SnapshotClassifier::catch_up(std::size_t side) {
  // (a) Readers pinned this side before the last swap, a data window ago;
  // normally they are long gone.
  wait_for_readers(side);
  const std::uint64_t ahead = sides_[1 - side].log_epoch();
  if (sides_[side].log_epoch() == ahead) return;
  // (b) Replay the last publish under its own epoch, so this side's delta
  // log gets the stamps the other side's got. A log that cannot describe
  // it, or a replay that fails part-way, falls back to the clone.
  sides_[side].set_log_epoch(ahead);
  bool replayed = false;
  if (op_log_.complete()) {
    try {
      replayed = sides_[side].replay(op_log_);
    } catch (...) {
      replayed = false;
    }
  }
  if (!replayed) {
    // Should the clone throw, the next publish must not replay onto a side
    // that ran part of the log.
    op_log_.mark_incomplete();
    resync_side(side);
  }
}

template <typename Op>
bool SnapshotClassifier::publish(Op&& op) {
  const std::size_t active = active_side_.load(std::memory_order_relaxed);
  const std::size_t inactive = 1 - active;
  OFMTL_OBS_EMIT(obs::TraceEvent::kPublishBegin, 0, next_epoch_);
  // (a) + (b): level the inactive side with the active one.
  const std::uint64_t published = sides_[active].log_epoch();
  OFMTL_OBS_EMIT(obs::TraceEvent::kPublishCatchUpBegin, 0, published);
  catch_up(inactive);
  OFMTL_OBS_EMIT(obs::TraceEvent::kPublishCatchUpEnd, 0, published);
  // (c) Run the op once, on the inactive side, logging it as data for the
  // next catch-up and stamping its delta-log records with the epoch about
  // to be published.
  MultiTableLookup& side = sides_[inactive];
  op_log_.clear();
  side.set_log_epoch(next_epoch_);
  (void)side.record_into(&op_log_);
  bool changed = false;
  try {
    changed = op(side);
  } catch (...) {
    // A throwing op may leave the side half-mutated: rebuild it from the
    // untouched active side so the pair cannot diverge.
    op_log_.clear();
    resync_side(inactive);
    throw;
  }
  // A whole-side assignment inside update() replaced the side, the op log
  // attachment with it, and brought a delta log that never saw this
  // publish: the log cannot replay it, and nothing cached before it
  // revalidates.
  if (side.record_into(nullptr) != &op_log_) op_log_.mark_incomplete();
  if (side.log_epoch() != next_epoch_) side.restart_log(next_epoch_);
  if (!changed) {
    // Nothing recorded, and the sides are level: nothing to publish. Close
    // the slice so the trace shows the rejected publish too.
    OFMTL_OBS_EMIT(obs::TraceEvent::kPublishEnd, 0, next_epoch_);
    return false;
  }
  // (d) Swap: new readers pin the freshly updated side. The old side's
  // readers are not waited for; the next publish catches that side up.
  active_side_.store(inactive, std::memory_order_seq_cst);
  ++next_epoch_;
  OFMTL_OBS_EMIT(obs::TraceEvent::kPublishEnd, 0, next_epoch_);
  return true;
}

FlowModStatus SnapshotClassifier::apply(FlowModCommand command,
                                        std::size_t table,
                                        const FlowEntry& entry) {
  const std::lock_guard<std::mutex> lock(write_mutex_);
  // apply() checks before it mutates, so a rejection leaves the side
  // untouched and publish() stops there.
  FlowModStatus status = FlowModStatus::kOk;
  (void)publish([&](MultiTableLookup& side) {
    status = side.apply(command, table, entry);
    return status == FlowModStatus::kOk;
  });
  return status;
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
