#include "runtime/runtime.hpp"

#include <stdexcept>
#include <string>

#include "core/flow_key.hpp"
#include "obs/tracer.hpp"

namespace ofmtl::runtime {

ParallelRuntime::ParallelRuntime(MultiTableLookup tables, RuntimeConfig config)
    : classifier_(std::move(tables)) {
  if (config.flow_cache_capacity == 0) {
    throw std::invalid_argument(
        "ParallelRuntime: flow_cache_capacity must be nonzero");
  }
  const std::size_t workers = config.workers == 0 ? 1 : config.workers;
  workers_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    workers_.push_back(std::make_unique<Worker>(config.queue_capacity,
                                                config.flow_cache_capacity));
  }
  // Threads start only after the shard array is fully built (worker_loop
  // reads the whole shard array when stealing). If a launch fails partway,
  // stop and join the threads already running before rethrowing — destroying
  // a joinable std::thread would terminate.
  try {
    for (std::size_t w = 0; w < workers; ++w) {
      workers_[w]->thread = std::thread([this, w] { worker_loop(w); });
    }
  } catch (...) {
    stop();
    throw;
  }
}

ParallelRuntime::~ParallelRuntime() { stop(); }

void ParallelRuntime::stop() {
  bool expected = true;
  if (!running_.compare_exchange_strong(expected, false)) return;
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

bool ParallelRuntime::try_submit(std::size_t queue,
                                 std::span<const PacketHeader> headers,
                                 std::span<ExecutionResult> results,
                                 BatchTicket* ticket) {
  if (queue >= workers_.size()) {
    throw std::out_of_range("try_submit: no such queue");
  }
  if (results.size() < headers.size()) {
    throw std::invalid_argument("try_submit: results span too small");
  }
  if (ticket != nullptr) ticket->attach();
  const WorkItem item{headers.data(), results.data(), headers.size(), ticket};
  if (workers_[queue]->queue.try_push(item)) return true;
  if (ticket != nullptr) ticket->detach();  // undo the attach
  return false;
}

std::uint64_t ParallelRuntime::submit(std::size_t queue,
                                      std::span<const PacketHeader> headers,
                                      std::span<ExecutionResult> results,
                                      BatchTicket* ticket) {
  std::uint64_t spins = 0;
  while (!try_submit(queue, headers, results, ticket)) {
    ++spins;
    std::this_thread::yield();
  }
  return spins;
}

void ParallelRuntime::classify(std::size_t queue,
                               std::span<const PacketHeader> headers,
                               std::span<ExecutionResult> results) {
  BatchTicket ticket;
  (void)submit(queue, headers, results, &ticket);
  ticket.wait();
  if (ticket.failed()) {
    throw std::runtime_error("classify: batch lookup failed in worker");
  }
}

void ParallelRuntime::run_item(Worker& worker, const WorkItem& item) {
  // One snapshot guard per batch: every packet of the batch classifies
  // against the same side/epoch, and flow-mods published mid-batch apply
  // from the worker's next batch on. Holding the guard across the batch is
  // what blocks the writer from reusing this side; it departs when this
  // function returns. The flow cache keys on the guard's epoch: entries from
  // before a publish are stale for this batch and are served only if the
  // guard's side revalidates them.
  OFMTL_OBS_EMIT(obs::TraceEvent::kBatchBegin, 0, item.count);
  const auto guard = classifier_.acquire();
  const FlowCacheStats before = worker.cache.stats();
  try {
    classify_batch(worker, item, guard);
    worker.packets.fetch_add(item.count, std::memory_order_relaxed);
  } catch (...) {
    // A malformed packet (e.g. out-of-range field value) throws from the
    // lookup path. The single-threaded API surfaces that to the caller;
    // here the failure is flagged on the ticket (classify() rethrows) and
    // counted — letting it escape would terminate the process and strand
    // the ticket's waiter.
    worker.errors.fetch_add(1, std::memory_order_relaxed);
    if (item.ticket != nullptr) item.ticket->fail();
  }
  // Publish the batch's cache-counter deltas (errored batches included —
  // their lookups happened) through the atomics stats() samples. The same
  // deltas feed the trace as batch-granular counter events — per-packet
  // cache events would swamp the ring and the overhead budget.
  const FlowCacheStats& after = worker.cache.stats();
  const std::uint64_t hits = after.hits - before.hits;
  const std::uint64_t misses = after.misses - before.misses;
  const std::uint64_t invalidations =
      after.epoch_invalidations - before.epoch_invalidations;
  const std::uint64_t revalidations = after.revalidations - before.revalidations;
  worker.cache_hits.fetch_add(hits, std::memory_order_relaxed);
  worker.cache_misses.fetch_add(misses, std::memory_order_relaxed);
  worker.cache_evictions.fetch_add(after.evictions - before.evictions,
                                   std::memory_order_relaxed);
  worker.cache_epoch_invalidations.fetch_add(invalidations,
                                             std::memory_order_relaxed);
  worker.cache_revalidations.fetch_add(revalidations,
                                       std::memory_order_relaxed);
  worker.cache_admissions_declined.fetch_add(
      after.admissions_declined - before.admissions_declined,
      std::memory_order_relaxed);
  if (hits != 0) OFMTL_OBS_EMIT(obs::TraceEvent::kCacheHits, 0, hits);
  if (misses != 0) OFMTL_OBS_EMIT(obs::TraceEvent::kCacheMisses, 0, misses);
  if (invalidations != 0) {
    OFMTL_OBS_EMIT(obs::TraceEvent::kCacheEpochInvalidations, 0,
                   invalidations);
  }
  if (revalidations != 0) {
    OFMTL_OBS_EMIT(obs::TraceEvent::kCacheRevalidations, 0, revalidations);
  }
  worker.batches.fetch_add(1, std::memory_order_relaxed);
  OFMTL_OBS_EMIT(obs::TraceEvent::kBatchEnd, 0, item.count);
  if (item.ticket != nullptr) item.ticket->complete(guard.epoch());
}

void ParallelRuntime::classify_batch(
    Worker& worker, const WorkItem& item,
    const SnapshotClassifier::ReadGuard& guard) {
  FlowCache& cache = worker.cache;
  const std::uint64_t epoch = guard.epoch();
  const MultiTableLookup& tables = guard.tables();
  // Pre-pass: serve hits straight from the cache (stale entries
  // revalidated against the pinned side's delta log) and list the misses.
  // Windows, then the payloads they point at, are prefetched one sweep
  // ahead, so the probes of a batch overlap their cache misses.
  if (worker.hashes.size() < item.count) worker.hashes.resize(item.count);
  for (std::size_t i = 0; i < item.count; ++i) {
    worker.hashes[i] = flow_key_hash(item.headers[i]);
    cache.prefetch_window(worker.hashes[i]);
  }
  for (std::size_t i = 0; i < item.count; ++i) {
    cache.prefetch_entries(worker.hashes[i]);
  }
  worker.miss_lanes.clear();
  for (std::size_t i = 0; i < item.count; ++i) {
    if (const ExecutionResult* hit =
            cache.find(item.headers[i], worker.hashes[i], epoch, tables)) {
      item.results[i] = *hit;
    } else {
      worker.miss_lanes.push_back(static_cast<std::uint32_t>(i));
    }
  }
  if (worker.miss_lanes.empty()) return;
  // One batched pipeline walk over the missed lanes, in place, then refill.
  // Duplicate flows within one batch both take the miss path (the second
  // store refreshes the same slot) — correct, just one hit short.
  tables.execute_batch({item.headers, item.count}, {item.results, item.count},
                       worker.miss_lanes, worker.ctx);
  for (const std::uint32_t lane : worker.miss_lanes) {
    cache.store(item.headers[lane], worker.hashes[lane], epoch,
                item.results[lane]);
  }
}

void ParallelRuntime::worker_loop(std::size_t self) {
  Worker& worker = *workers_[self];
  obs::set_thread_name("worker" + std::to_string(self));
  const std::size_t siblings = workers_.size();
  WorkItem item;
  // Steal-attempt events fire once per transition into the steal scan, not
  // per idle spin — an idle worker yielding in a loop would otherwise flood
  // its ring with millions of identical records.
  bool was_working = true;
  while (true) {
    if (worker.queue.try_pop(item)) {
      was_working = true;
      run_item(worker, item);
      continue;
    }
    // Own ring dry: steal one batch from the next non-empty sibling (scan
    // starts at self+1 so victims rotate with the worker index instead of
    // every thief hammering queue 0).
    if (siblings > 1) {
      if (was_working) {
        OFMTL_OBS_EMIT(obs::TraceEvent::kStealAttempt, self, 0);
      }
      bool stole = false;
      std::size_t victim_index = 0;
      for (std::size_t i = 1; i < siblings && !stole; ++i) {
        victim_index = (self + i) % siblings;
        Worker& victim = *workers_[victim_index];
        stole = victim.queue.try_pop(item);
      }
      if (stole) {
        worker.steals.fetch_add(1, std::memory_order_relaxed);
        OFMTL_OBS_EMIT(obs::TraceEvent::kStealSuccess, victim_index, 1);
        was_working = true;
        run_item(worker, item);
        continue;
      }
    }
    was_working = false;
    if (!running_.load(std::memory_order_acquire)) {
      // Drain-then-exit: stop() flips running_ before joining, and no
      // submission races with stop(), so a final empty check after
      // observing !running_ cannot miss items pushed before stop(). Items
      // a sibling steals during shutdown are processed by that sibling
      // before it performs its own exit check.
      if (!worker.queue.try_pop(item)) break;
      run_item(worker, item);
    } else {
      std::this_thread::yield();
    }
  }
}

WorkerStats ParallelRuntime::stats(std::size_t worker) const {
  const Worker& w = *workers_.at(worker);
  return {w.batches.load(std::memory_order_relaxed),
          w.packets.load(std::memory_order_relaxed),
          w.errors.load(std::memory_order_relaxed),
          w.steals.load(std::memory_order_relaxed),
          w.cache_hits.load(std::memory_order_relaxed),
          w.cache_misses.load(std::memory_order_relaxed),
          w.cache_evictions.load(std::memory_order_relaxed),
          w.cache_epoch_invalidations.load(std::memory_order_relaxed),
          w.cache_revalidations.load(std::memory_order_relaxed),
          w.cache_admissions_declined.load(std::memory_order_relaxed)};
}

WorkerStats ParallelRuntime::aggregate_stats() const {
  WorkerStats total;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    const WorkerStats s = stats(w);
    total.batches += s.batches;
    total.packets += s.packets;
    total.errors += s.errors;
    total.steals += s.steals;
    total.cache_hits += s.cache_hits;
    total.cache_misses += s.cache_misses;
    total.cache_evictions += s.cache_evictions;
    total.cache_epoch_invalidations += s.cache_epoch_invalidations;
    total.cache_revalidations += s.cache_revalidations;
    total.cache_admissions_declined += s.cache_admissions_declined;
  }
  return total;
}

obs::MetricsRegistry::ProviderHandle ParallelRuntime::register_metrics(
    obs::MetricsRegistry& registry) {
  return registry.register_provider([this](obs::MetricsBuilder& b) {
    const WorkerStats total = aggregate_stats();
    b.counter("ofmtl_runtime_batches_total", "batches drained by workers",
              static_cast<double>(total.batches));
    b.counter("ofmtl_runtime_packets_total", "packets classified",
              static_cast<double>(total.packets));
    b.counter("ofmtl_runtime_errors_total", "batches whose lookup threw",
              static_cast<double>(total.errors));
    b.counter("ofmtl_runtime_steals_total", "batches stolen from siblings",
              static_cast<double>(total.steals));
    b.counter("ofmtl_cache_hits_total", "flow-cache hits",
              static_cast<double>(total.cache_hits));
    b.counter("ofmtl_cache_misses_total", "flow-cache misses",
              static_cast<double>(total.cache_misses));
    b.counter("ofmtl_cache_evictions_total", "flow-cache evictions",
              static_cast<double>(total.cache_evictions));
    b.counter("ofmtl_cache_epoch_invalidations_total",
              "stale cache entries a publish voided",
              static_cast<double>(total.cache_epoch_invalidations));
    b.counter("ofmtl_cache_revalidations_total",
              "stale cache entries revalidated and served",
              static_cast<double>(total.cache_revalidations));
    b.counter("ofmtl_cache_admissions_declined_total",
              "refills that only wrote a doorkeeper tag",
              static_cast<double>(total.cache_admissions_declined));
    b.gauge("ofmtl_runtime_workers", "worker threads",
            static_cast<double>(workers_.size()));
    b.gauge("ofmtl_runtime_publish_epoch", "current left-right epoch",
            static_cast<double>(epoch()));
    b.gauge("ofmtl_runtime_queue_pressure",
            "fullest queue occupancy fraction", queue_pressure());
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      b.counter("ofmtl_runtime_worker_packets_total",
                "packets classified per worker",
                static_cast<double>(stats(w).packets),
                "worker=\"" + std::to_string(w) + "\"");
    }
  });
}

}  // namespace ofmtl::runtime
