#include "obs/flight_recorder.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace ofmtl::obs {

namespace {

// ---------------------------------------------------------------------------
// Crash path. Everything the signal handler touches lives here, fixed-size
// or preallocated at arm() time: the handler itself performs only atomic
// loads (TraceRing::peek), memcpy into the preallocated image, and
// open/write/close — the async-signal-safe subset — then re-raises with the
// default disposition so the process still dies with the right signal.
// ---------------------------------------------------------------------------

constexpr std::size_t kMaxCrashRings = 64;
constexpr std::size_t kMaxCrashName = 63;

struct CrashRingSlot {
  const TraceRing* ring = nullptr;
  std::uint64_t tid = 0;
  std::size_t name_len = 0;
  char name[kMaxCrashName + 1] = {};
};

struct CrashPlan {
  std::atomic<bool> armed{false};
  char path[512] = {};
  unsigned char* buffer = nullptr;  // full OFTRACE1 file image
  std::size_t buffer_cap = 0;
  TraceRecord* scratch = nullptr;  // peek() destination, max ring capacity
  std::size_t scratch_cap = 0;
  std::size_t ring_count = 0;
  CrashRingSlot rings[kMaxCrashRings];
  std::uint64_t pid = 0;
  std::size_t pname_len = 0;
  char pname[kMaxCrashName + 1] = {};
  // Keeps the peeked rings alive even if their threads exited. Never
  // touched from the handler.
  std::vector<std::shared_ptr<void>> owners;
  struct sigaction old_segv, old_abrt, old_bus;
  bool handlers_installed = false;
};

CrashPlan g_crash;

// OFTRACE1 extended-header constants, mirrored from export.cpp (the writer
// there is iostream-based and unusable in a handler).
constexpr std::uint64_t kProcessHeaderSentinel = ~std::uint64_t{0};
constexpr std::uint64_t kContainerVersion = 2;

std::size_t put_u64_at(unsigned char* buf, std::size_t pos,
                       std::uint64_t value) {
  for (std::size_t i = 0; i < 8; ++i) {
    buf[pos + i] = static_cast<unsigned char>(value >> (8 * i));
  }
  return pos + 8;
}

/// The handler body: pack every pre-registered ring into the preallocated
/// image and write it with raw syscalls. Returns the image length.
std::size_t build_crash_image() {
  unsigned char* buf = g_crash.buffer;
  std::size_t pos = 0;
  std::memcpy(buf + pos, "OFTRACE1", 8);
  pos += 8;
  pos = put_u64_at(buf, pos, kProcessHeaderSentinel);
  pos = put_u64_at(buf, pos, kContainerVersion);
  pos = put_u64_at(buf, pos, g_crash.pid);
  pos = put_u64_at(buf, pos, g_crash.pname_len);
  std::memcpy(buf + pos, g_crash.pname, g_crash.pname_len);
  pos += g_crash.pname_len;
  pos = put_u64_at(buf, pos, g_crash.ring_count);
  for (std::size_t i = 0; i < g_crash.ring_count; ++i) {
    const CrashRingSlot& slot = g_crash.rings[i];
    pos = put_u64_at(buf, pos, slot.name_len);
    std::memcpy(buf + pos, slot.name, slot.name_len);
    pos += slot.name_len;
    pos = put_u64_at(buf, pos, slot.tid);
    pos = put_u64_at(buf, pos, slot.ring->dropped());
    const std::size_t n = slot.ring->peek(g_crash.scratch,
                                          g_crash.scratch_cap);
    pos = put_u64_at(buf, pos, n);
    for (std::size_t r = 0; r < n; ++r) {
      pos = put_u64_at(buf, pos, pack_lo(g_crash.scratch[r]));
      pos = put_u64_at(buf, pos, pack_hi(g_crash.scratch[r]));
    }
  }
  return pos;
}

void crash_handler(int sig) {
  // One shot: a second fault inside the handler falls straight through to
  // the default disposition instead of recursing.
  if (g_crash.armed.exchange(false)) {
    const std::size_t len = build_crash_image();
    const int fd = ::open(g_crash.path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      std::size_t written = 0;
      while (written < len) {
        const ssize_t n =
            ::write(fd, g_crash.buffer + written, len - written);
        if (n <= 0) break;
        written += static_cast<std::size_t>(n);
      }
      ::close(fd);
    }
  }
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

void install_handlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = crash_handler;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGSEGV, &sa, &g_crash.old_segv);
  ::sigaction(SIGABRT, &sa, &g_crash.old_abrt);
  ::sigaction(SIGBUS, &sa, &g_crash.old_bus);
  g_crash.handlers_installed = true;
}

void uninstall_handlers() {
  if (!g_crash.handlers_installed) return;
  ::sigaction(SIGSEGV, &g_crash.old_segv, nullptr);
  ::sigaction(SIGABRT, &g_crash.old_abrt, nullptr);
  ::sigaction(SIGBUS, &g_crash.old_bus, nullptr);
  g_crash.handlers_installed = false;
}

void copy_bounded(char* dst, std::size_t cap, const std::string& src,
                  std::size_t& out_len) {
  out_len = src.size() < cap ? src.size() : cap;
  std::memcpy(dst, src.data(), out_len);
  dst[out_len] = '\0';
}

}  // namespace

FlightRecorder::FlightRecorder(FlightRecorderConfig config)
    : config_(std::move(config)) {
  if (!config_.now_ns) config_.now_ns = &TraceRing::now_ns;
  if (!config_.collect) config_.collect = &collect_tracing;
  slo_windows_.resize(config_.slos.size());
}

FlightRecorder::~FlightRecorder() {
  if (armed_) disarm();
}

void FlightRecorder::arm() {
  if (armed_) return;
  if (g_crash.armed.load(std::memory_order_relaxed)) {
    throw std::runtime_error("flight recorder: another recorder is armed");
  }
  refresh_crash_snapshot();
  if (config_.install_crash_handler) install_handlers();
  g_crash.armed.store(true, std::memory_order_release);
  armed_ = true;
}

void FlightRecorder::disarm() {
  if (!armed_) return;
  g_crash.armed.store(false, std::memory_order_release);
  uninstall_handlers();
  delete[] g_crash.buffer;
  g_crash.buffer = nullptr;
  g_crash.buffer_cap = 0;
  delete[] g_crash.scratch;
  g_crash.scratch = nullptr;
  g_crash.scratch_cap = 0;
  g_crash.ring_count = 0;
  g_crash.owners.clear();
  armed_ = false;
}

void FlightRecorder::refresh_crash_snapshot() {
  // Quiesce the handler during the rebuild: a signal landing mid-rebuild
  // skips the dump rather than reading half-updated plan state.
  const bool was_armed =
      g_crash.armed.exchange(false, std::memory_order_acq_rel);

  auto refs = snapshot_rings();
  if (refs.size() > kMaxCrashRings) refs.resize(kMaxCrashRings);

  std::size_t max_capacity = 0;
  std::size_t image_cap = 8 + 5 * 8 + kMaxCrashName;  // magic + ext header
  for (const auto& ref : refs) {
    image_cap += 4 * 8 + kMaxCrashName + ref.ring->capacity() * 16;
    if (ref.ring->capacity() > max_capacity) {
      max_capacity = ref.ring->capacity();
    }
  }

  if (image_cap > g_crash.buffer_cap) {
    delete[] g_crash.buffer;
    g_crash.buffer = new unsigned char[image_cap];
    g_crash.buffer_cap = image_cap;
  }
  if (max_capacity > g_crash.scratch_cap) {
    delete[] g_crash.scratch;
    g_crash.scratch = new TraceRecord[max_capacity];
    g_crash.scratch_cap = max_capacity;
  }

  g_crash.owners.clear();
  g_crash.ring_count = refs.size();
  for (std::size_t i = 0; i < refs.size(); ++i) {
    CrashRingSlot& slot = g_crash.rings[i];
    slot.ring = refs[i].ring;
    slot.tid = refs[i].tid;
    copy_bounded(slot.name, kMaxCrashName, refs[i].name, slot.name_len);
    g_crash.owners.push_back(refs[i].owner);
  }

  g_crash.pid = static_cast<std::uint64_t>(::getpid());
  copy_bounded(g_crash.pname, kMaxCrashName,
               config_.dump_prefix.empty() ? std::string("flight")
                                           : config_.dump_prefix,
               g_crash.pname_len);

  const std::string crash_path =
      config_.dump_dir + "/" + config_.dump_prefix + "_crash.oftrace";
  std::size_t path_len = 0;
  copy_bounded(g_crash.path, sizeof(g_crash.path) - 1, crash_path, path_len);

  if (was_armed) g_crash.armed.store(true, std::memory_order_release);
}

void FlightRecorder::ingest(const TraceDump& dump) {
  for (const auto& thread : dump.threads) {
    ThreadHistory* history = nullptr;
    for (auto& h : threads_) {
      if (h.tid == thread.tid) {
        history = &h;
        break;
      }
    }
    if (history == nullptr) {
      threads_.push_back(ThreadHistory{});
      history = &threads_.back();
      history->tid = thread.tid;
    }
    history->name = thread.name;
    history->dropped = thread.dropped;

    for (const auto& record : thread.records) {
      const auto event = history->decoder.decode(record);
      if (!event) continue;  // bounded undecodable prefix
      history->records.push_back(RetainedRecord{record, event->ts_ns});
      // Fold closed slices into each SLO's rolling window as they stream
      // past; the pairer's open slices persist across polls, so a slice
      // spanning a poll boundary still pairs.
      const auto slice = history->pairer.pair(*event);
      if (!slice) continue;
      for (std::size_t s = 0; s < config_.slos.size(); ++s) {
        if (config_.slos[s].begin == slice->begin.event) {
          slo_windows_[s].record(slice->duration_ns());
        }
      }
    }
  }
}

void FlightRecorder::trim(std::uint64_t now) {
  const std::uint64_t retain_ns = config_.retain_ms * 1'000'000ull;
  if (now <= retain_ns) return;
  const std::uint64_t cutoff = now - retain_ns;
  for (auto& history : threads_) {
    auto& records = history.records;
    std::size_t keep = 0;
    while (keep < records.size() && records[keep].ts_ns < cutoff) ++keep;
    if (keep > 0) records.erase(records.begin(), records.begin() + keep);
  }
}

std::vector<BreachInfo> FlightRecorder::poll() {
  const TraceDump dump = config_.collect();
  ingest(dump);
  trim(config_.now_ns());

  std::vector<BreachInfo> breaches;
  for (std::size_t s = 0; s < config_.slos.size(); ++s) {
    const SloSpec& slo = config_.slos[s];
    LogHistogram& window = slo_windows_[s];
    if (window.total() < slo.min_samples) continue;
    const std::uint64_t p50 = window.quantile(0.50);
    const std::uint64_t p99 = window.quantile(0.99);
    const std::uint64_t samples = window.total();
    window = LogHistogram{};  // window evaluated: start the next one

    const char* reason = nullptr;
    if (slo.max_p99_over_p50 > 0 &&
        static_cast<double>(p99) >
            slo.max_p99_over_p50 * static_cast<double>(p50 > 0 ? p50 : 1)) {
      reason = "p99_over_p50";
    } else if (slo.max_p99_ns > 0 && p99 > slo.max_p99_ns) {
      reason = "p99_ceiling";
    }
    if (reason == nullptr) continue;

    ++breach_count_;
    emit(TraceEvent::kRecorderBreach, static_cast<std::uint16_t>(s), p99);
    breaches.push_back(write_breach(slo, reason, p50, p99, samples));
  }

  // New worker threads may have registered since arm(); keep the crash
  // snapshot current so a late fault still captures every ring.
  if (armed_ && g_crash.ring_count != snapshot_rings().size()) {
    refresh_crash_snapshot();
  }
  return breaches;
}

TraceDump FlightRecorder::dump_retained() const {
  TraceDump dump;
  dump.pid = static_cast<std::uint64_t>(::getpid());
  dump.process_name = config_.dump_prefix;
  for (const auto& history : threads_) {
    ThreadTrace thread;
    thread.name = history.name;
    thread.tid = history.tid;
    thread.dropped = history.dropped;
    if (history.records.empty()) {
      dump.threads.push_back(std::move(thread));
      continue;
    }
    // The retained records are a contiguous run of the drained stream, so
    // their own deltas still hold; only the first one's base may have been
    // trimmed. One leading anchor pair at its timestamp re-bases it.
    const std::uint64_t first_ts = history.records.front().ts_ns;
    thread.records.push_back(TraceRecord{
        static_cast<std::uint16_t>(TraceEvent::kTimeSync), 0, 0, first_ts});
    const DecodeStats& stats = history.decoder.stats();
    if (stats.has_wall_offset) {
      thread.records.push_back(TraceRecord{
          static_cast<std::uint16_t>(TraceEvent::kWallClockSync), 0, 0,
          static_cast<std::uint64_t>(static_cast<std::int64_t>(first_ts) +
                                     stats.wall_minus_mono_ns)});
    }
    const std::size_t first = thread.records.size();
    for (const auto& retained : history.records) {
      thread.records.push_back(retained.record);
    }
    thread.records[first].ts_delta = 0;  // it sits on the leading anchor
    dump.threads.push_back(std::move(thread));
  }
  return dump;
}

BreachInfo FlightRecorder::write_breach(const SloSpec& slo,
                                        const std::string& reason,
                                        std::uint64_t p50, std::uint64_t p99,
                                        std::uint64_t samples) {
  BreachInfo info;
  info.slo = slo.name;
  info.reason = reason;
  info.p50_ns = p50;
  info.p99_ns = p99;
  info.samples = samples;
  const std::string base = config_.dump_dir + "/" + config_.dump_prefix +
                           "_breach_" + std::to_string(breach_count_);
  info.dump_path = base + ".oftrace";
  info.report_path = base + ".json";

  save_trace_dump(info.dump_path, dump_retained());
  ++dump_count_;

  std::ofstream report(info.report_path);
  report << "{\n"
         << "  \"slo\": \"" << slo.name << "\",\n"
         << "  \"reason\": \"" << reason << "\",\n"
         << "  \"p50_ns\": " << p50 << ",\n"
         << "  \"p99_ns\": " << p99 << ",\n"
         << "  \"samples\": " << samples << ",\n"
         << "  \"max_p99_over_p50\": " << slo.max_p99_over_p50 << ",\n"
         << "  \"max_p99_ns\": " << slo.max_p99_ns << ",\n"
         << "  \"ts_ns\": " << config_.now_ns() << ",\n"
         << "  \"dump\": \"" << info.dump_path << "\"\n"
         << "}\n";
  return info;
}

BreachInfo FlightRecorder::force_dump(const std::string& reason) {
  ++breach_count_;
  SloSpec pseudo;
  pseudo.name = reason;
  return write_breach(pseudo, reason, 0, 0, 0);
}

MetricsRegistry::ProviderHandle FlightRecorder::register_metrics(
    MetricsRegistry& registry) {
  return registry.register_provider([this](MetricsBuilder& builder) {
    builder.counter("ofmtl_recorder_breaches_total",
                    "SLO breaches the flight recorder detected",
                    static_cast<double>(breach_count_));
    builder.counter("ofmtl_recorder_dumps_total",
                    "OFTRACE1 dumps the flight recorder wrote",
                    static_cast<double>(dump_count_));
    std::uint64_t retained = 0;
    for (const auto& history : threads_) retained += history.records.size();
    builder.gauge("ofmtl_recorder_retained_records",
                  "trace records currently held in the rolling history",
                  static_cast<double>(retained));
  });
}

}  // namespace ofmtl::obs
