// The parallel multi-queue classification runtime: N worker threads, each
// owning one packet-batch queue plus its own flow cache and
// ExecBatchContext scratch, draining batches through the cache and
// MultiTableLookup::execute_batch against the current left-right snapshot
// side (SnapshotClassifier). The sharded-queue shape mirrors NIC RSS: a
// producer hashes flows onto queues, each queue is serviced by its worker —
// and, when that worker's ring runs dry, by any idle sibling stealing from
// it — so skewed submitters no longer leave workers idle. The only
// cross-thread synchronization on the data plane is one snapshot guard per
// batch, the queue cursors, and the completion ticket.
//
// Ownership rules (mirror the "Scratch contexts" rules in
// docs/ARCHITECTURE.md):
//   - one queue <-> one *producer* thread; batches may be DRAINED by any
//     worker (work stealing), so same-queue batches can complete out of
//     order — tickets, not queue position, signal completion
//   - headers/results of a submitted batch are caller-owned and must stay
//     alive until the ticket completes; results are rewritten in place
//   - worker loops are allocation-free in steady state (warmed contexts,
//     lock-free rings, lock-free snapshot guards, warmed flow-cache slots)
//   - a per-worker epoch-keyed flow cache (RuntimeConfig::
//     flow_cache_capacity slots) short-circuits repeat flows in front of
//     the full pipeline; cached results are bitwise-identical, and after a
//     publish an entry is served only if the pinned side's delta log
//     revalidates it
//   - flow-mods go through the runtime's writer API; workers pick the new
//     side up at their next batch boundary
//   - a GroupTable attached via set_group_table is externally owned and
//     pointer-shared by both snapshot sides (not snapshot-isolated): it
//     must stay immutable while the runtime is live
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/flow_cache.hpp"
#include "runtime/snapshot.hpp"
#include "runtime/steal_queue.hpp"

namespace ofmtl::runtime {

/// Tunables of the worker pool.
struct RuntimeConfig {
  std::size_t workers = 1;          ///< queues == workers
  std::size_t queue_capacity = 64;  ///< in-flight batches per queue
  /// Per-worker exact-match flow-cache slots (rounded up to a power of
  /// two, at least FlowCache::kProbeWindow; 0 throws
  /// std::invalid_argument, as the cache cannot be turned off). Cached results are
  /// bitwise-identical to pipeline results; a publish leaves them to be
  /// revalidated or voided lazily (see src/runtime/flow_cache.hpp).
  std::size_t flow_cache_capacity = 8192;
};

/// Completion token of one or more submitted batches. The submitter owns it
/// and must keep it alive until done(); reuse across submissions is fine
/// once drained.
class BatchTicket {
 public:
  /// True once every attached batch completed.
  [[nodiscard]] bool done() const {
    return pending_.load(std::memory_order_acquire) == 0;
  }
  /// Spin-yield until every attached batch completed. After wait() the
  /// batch results are visible to the caller.
  void wait() const {
    while (!done()) std::this_thread::yield();
  }
  /// Epoch of the snapshot side that served the last completing batch —
  /// lets concurrency tests pin a result to a pre-/post-update snapshot.
  [[nodiscard]] std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }
  /// True if any attached batch's lookup threw (its results are
  /// unspecified). Sticky until reset().
  [[nodiscard]] bool failed() const {
    return failed_.load(std::memory_order_acquire);
  }
  /// Clear the sticky failure flag before reusing a drained ticket.
  void reset() { failed_.store(false, std::memory_order_relaxed); }

 private:
  friend class ParallelRuntime;
  void attach() { pending_.fetch_add(1, std::memory_order_relaxed); }
  void detach() { pending_.fetch_sub(1, std::memory_order_release); }
  void fail() { failed_.store(true, std::memory_order_release); }
  void complete(std::uint64_t epoch) {
    epoch_.store(epoch, std::memory_order_relaxed);
    detach();
  }
  std::atomic<std::uint64_t> pending_{0};
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<bool> failed_{false};
};

/// Per-worker counters (monotonic; sampled racily by stats()).
struct WorkerStats {
  std::uint64_t batches = 0;  ///< drained batches, errored ones included
  std::uint64_t packets = 0;  ///< successfully classified packets
  std::uint64_t errors = 0;   ///< batches whose lookup threw (results in
                              ///< those batches are unspecified)
  std::uint64_t steals = 0;   ///< batches this worker popped from a sibling
                              ///< queue (subset of `batches`)
  /// Flow-cache counters.
  std::uint64_t cache_hits = 0;    ///< packets served from the cache
                                   ///< (includes revalidations)
  std::uint64_t cache_misses = 0;  ///< packets refilled from the pipeline
                                   ///< (includes epoch invalidations)
  std::uint64_t cache_evictions = 0;  ///< live entries displaced by refills
  std::uint64_t cache_epoch_invalidations = 0;  ///< key matched but stale and
                                                ///< not revalidated: not served
  std::uint64_t cache_revalidations = 0;  ///< stale entries the delta log
                                          ///< cleared, restamped and served
  std::uint64_t cache_admissions_declined = 0;  ///< refills that would have
                                                ///< evicted, left a tag only
};

/// Sharded multi-queue worker pool over a left-right SnapshotClassifier.
class ParallelRuntime {
 public:
  /// Spawns `config.workers` threads, each bound to one queue. `tables`
  /// seeds both snapshot sides.
  explicit ParallelRuntime(MultiTableLookup tables, RuntimeConfig config = {});
  ~ParallelRuntime();

  ParallelRuntime(const ParallelRuntime&) = delete;
  ParallelRuntime& operator=(const ParallelRuntime&) = delete;

  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }

  /// --- control plane (serialized writers, left-right publish) ---
  /// One validated flow-mod; publishes one epoch on kOk only.
  [[nodiscard]] FlowModStatus apply(FlowModCommand command, std::size_t table,
                                    const FlowEntry& entry) {
    return classifier_.apply(command, table, entry);
  }
  /// Coalesced mutation: `mutate` runs once and publishes one epoch (see
  /// SnapshotClassifier::update).
  void update(const std::function<void(MultiTableLookup&)>& mutate) {
    classifier_.update(mutate);
  }
  /// Current publish epoch.
  [[nodiscard]] std::uint64_t epoch() const { return classifier_.epoch(); }
  /// The underlying left-right classifier (e.g. for direct acquire()).
  [[nodiscard]] const SnapshotClassifier& classifier() const {
    return classifier_;
  }

  /// --- data plane (one producer per queue) ---
  /// Hand a caller-owned batch to `queue`; results[i] will be rewritten to
  /// execute(headers[i]) against one consistent snapshot side. Returns
  /// false when the queue is full (caller applies backpressure). `ticket`
  /// may be shared across submissions or null (fire-and-forget is only safe
  /// if the caller joins through stop()).
  bool try_submit(std::size_t queue, std::span<const PacketHeader> headers,
                  std::span<ExecutionResult> results, BatchTicket* ticket);

  /// Blocking submit: spins (yielding) until `queue` accepts the batch and
  /// returns how many spins backpressure cost (tools/trace_replay reports
  /// their sum). Same ownership rules as try_submit; completion
  /// still signals through `ticket`.
  std::uint64_t submit(std::size_t queue, std::span<const PacketHeader> headers,
                       std::span<ExecutionResult> results, BatchTicket* ticket);

  /// Convenience: submit (spinning while the queue is full) and wait.
  /// Throws std::runtime_error if the batch's lookup threw in the worker
  /// (mirroring what single-threaded execute() would have surfaced).
  void classify(std::size_t queue, std::span<const PacketHeader> headers,
                std::span<ExecutionResult> results);

  /// Drain every queue and join the workers. Idempotent; the destructor
  /// calls it. No submissions may race with or follow stop().
  void stop();

  /// Counters of one worker / aggregated over all workers (the aggregate is
  /// the monitoring surface: cache hit rates and steal counts only mean
  /// anything summed, since stealing moves batches between workers).
  [[nodiscard]] WorkerStats stats(std::size_t worker) const;
  [[nodiscard]] WorkerStats aggregate_stats() const;

  /// Export this runtime's live state (aggregated WorkerStats, flow-cache
  /// hit/miss counters, publish epoch, queue pressure) into `registry` as
  /// ofmtl_runtime_* / ofmtl_cache_* families. The provider reads only the
  /// per-worker atomics, so a scrape never touches a hot path; keep the
  /// returned handle alive no longer than the runtime.
  [[nodiscard]] obs::MetricsRegistry::ProviderHandle register_metrics(
      obs::MetricsRegistry& registry);

  /// Occupancy of the fullest queue as a fraction of its capacity, in
  /// [0, 1] — exported as the ofmtl_runtime_queue_pressure gauge (max, not
  /// mean: one saturated queue is already overload for the flows hashed
  /// onto it).
  [[nodiscard]] double queue_pressure() const {
    double pressure = 0;
    for (const auto& worker : workers_) {
      const auto depth = static_cast<double>(worker->queue.size());
      const auto cap = static_cast<double>(worker->queue.capacity());
      if (cap > 0) pressure = std::max(pressure, depth / cap);
    }
    return pressure;
  }

 private:
  struct WorkItem {
    const PacketHeader* headers = nullptr;
    ExecutionResult* results = nullptr;
    std::size_t count = 0;
    BatchTicket* ticket = nullptr;
  };

  /// One worker shard: queue + scratch + flow cache + stats, cache-line
  /// aligned so neighbouring shards never false-share.
  struct alignas(kCacheLine) Worker {
    Worker(std::size_t queue_capacity, std::size_t flow_cache_capacity)
        : queue(queue_capacity), cache(flow_cache_capacity) {}
    StealQueue<WorkItem> queue;
    ExecBatchContext ctx;
    /// Per-worker flow cache plus the scratch of the batch pre-pass: every
    /// lane's flow hash, and the lanes that must walk the pipeline. Both
    /// only grow, so the drain loop stays allocation-free in steady state.
    FlowCache cache;
    std::vector<std::uint64_t> hashes;
    std::vector<std::uint32_t> miss_lanes;
    std::atomic<std::uint64_t> batches{0};
    std::atomic<std::uint64_t> packets{0};
    std::atomic<std::uint64_t> errors{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> cache_hits{0};
    std::atomic<std::uint64_t> cache_misses{0};
    std::atomic<std::uint64_t> cache_evictions{0};
    std::atomic<std::uint64_t> cache_epoch_invalidations{0};
    std::atomic<std::uint64_t> cache_revalidations{0};
    std::atomic<std::uint64_t> cache_admissions_declined{0};
    std::thread thread;
  };

  void worker_loop(std::size_t self);
  void run_item(Worker& worker, const WorkItem& item);
  /// Cache pre-pass + one in-place pipeline walk of the missed lanes + refill
  /// for one batch.
  void classify_batch(Worker& worker, const WorkItem& item,
                      const SnapshotClassifier::ReadGuard& guard);

  SnapshotClassifier classifier_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> running_{true};
};

}  // namespace ofmtl::runtime
