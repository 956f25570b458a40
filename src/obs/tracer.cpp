#include "obs/tracer.hpp"

#include <unistd.h>

#include <atomic>
#include <fstream>
#include <memory>
#include <mutex>

namespace ofmtl::obs {

namespace {

/// One registered producer thread: its ring plus identity. Shared-owned by
/// the registry and the thread's TLS slot, so whichever dies last frees it
/// — collects after thread exit and thread exits after stop both work.
struct RingEntry {
  explicit RingEntry(std::size_t capacity) : ring(capacity) {}
  TraceRing ring;
  std::string name;     // guarded by the registry mutex
  std::uint64_t tid = 0;
};

struct Registry {
  std::mutex mutex;
  std::vector<std::shared_ptr<RingEntry>> entries;
  TraceOptions options;
  std::uint64_t next_tid = 0;
};

/// Kernel-reported executable name — the process label on dumps.
std::string default_process_name() {
  std::ifstream comm("/proc/self/comm");
  std::string name;
  if (comm && std::getline(comm, name) && !name.empty()) return name;
  return "process";
}

Registry& registry() {
  static Registry instance;
  return instance;
}

// The emit fast path reads these two and nothing else. The generation
// invalidates thread-local ring pointers across sessions: start_tracing
// bumps it, and a thread whose cached generation mismatches re-registers.
std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_generation{0};

thread_local std::shared_ptr<RingEntry> tls_entry;
thread_local std::uint64_t tls_generation = 0;
thread_local std::string tls_name;

/// Slow path of emit(): register this thread's ring for the live session.
/// Returns nullptr when the session raced to a stop (the event is dropped).
RingEntry* attach_current_thread(std::uint64_t generation) noexcept {
  try {
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    if (!g_enabled.load(std::memory_order_relaxed) ||
        g_generation.load(std::memory_order_relaxed) != generation) {
      return nullptr;
    }
    auto entry = std::make_shared<RingEntry>(reg.options.ring_capacity);
    entry->name = tls_name.empty() ? "thread" : tls_name;
    entry->tid = reg.next_tid++;
    reg.entries.push_back(entry);
    tls_entry = std::move(entry);
    tls_generation = generation;
    return tls_entry.get();
  } catch (...) {
    return nullptr;  // allocation failure: drop the event, never throw
  }
}

}  // namespace

void start_tracing(const TraceOptions& options) {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  reg.entries.clear();
  reg.options = options;
  reg.next_tid = 0;
  // Bump the generation BEFORE enabling: a concurrent emit either sees the
  // old generation (and bails at the registration re-check) or the new one.
  g_generation.fetch_add(1, std::memory_order_release);
  g_enabled.store(true, std::memory_order_release);
}

void stop_tracing() { g_enabled.store(false, std::memory_order_release); }

void set_thread_name(std::string_view name) {
  tls_name.assign(name);
  if (tls_entry != nullptr &&
      tls_generation == g_generation.load(std::memory_order_acquire)) {
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    tls_entry->name = tls_name;
  }
}

TraceDump collect_tracing() {
  // Snapshot the entry list under the lock, drain outside it: drain is
  // lock-free against producers, and holding the registry mutex across it
  // would stall late thread registrations for no reason.
  std::vector<std::shared_ptr<RingEntry>> entries;
  {
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    entries = reg.entries;
  }
  TraceDump dump;
  dump.pid = static_cast<std::uint64_t>(::getpid());
  dump.process_name = default_process_name();
  dump.threads.reserve(entries.size());
  for (const auto& entry : entries) {
    ThreadTrace thread;
    {
      const std::lock_guard<std::mutex> lock(registry().mutex);
      thread.name = entry->name;
    }
    thread.tid = entry->tid;
    (void)entry->ring.drain(thread.records);
    thread.dropped = entry->ring.dropped();
    dump.threads.push_back(std::move(thread));
  }
  return dump;
}

std::vector<RingRef> snapshot_rings() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::vector<RingRef> refs;
  refs.reserve(reg.entries.size());
  for (const auto& entry : reg.entries) {
    RingRef ref;
    ref.owner = entry;  // shared_ptr<RingEntry> → shared_ptr<void>
    ref.ring = &entry->ring;
    ref.name = entry->name;
    ref.tid = entry->tid;
    refs.push_back(std::move(ref));
  }
  return refs;
}

void emit(TraceEvent event, std::uint16_t arg, std::uint64_t payload) noexcept {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  const std::uint64_t generation =
      g_generation.load(std::memory_order_acquire);
  RingEntry* entry = tls_entry.get();
  if (entry == nullptr || tls_generation != generation) {
    entry = attach_current_thread(generation);
    if (entry == nullptr) return;
  }
  entry->ring.emit(event, arg, payload);
}

}  // namespace ofmtl::obs
