// End-to-end benchmark of libofmtl: pcap bytes -> verdict on the data path,
// FLOW_MOD bytes -> published tables on the control path, and the paper's
// memory-cost model of the installed tables.
//
//   ofmtl_perfbench --workload <route_zipf|acl_uniform|route_churn>
//                   --seed <n> --seconds <s> --trace <0|1> [--span-file <path>]
//
// One producer thread parses frames with trace::parse_batch and submits
// 256-packet batches (4 in flight, closed loop) to a 2-worker
// runtime::ParallelRuntime with an 8192-slot flow cache per worker. Every
// verdict is checked against MultiTableLookup::execute on an untouched
// compile of the same rules. Timings are scaled to a reference host speed
// that a fixed kernel measures between windows (host_speed.hpp); the
// unscaled figures are printed beside them. --trace 0 prints the
// end-to-end metrics; --trace 1 prints the per-layer metrics, times each
// layer's public call from this file, and writes the spans to --span-file.
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}.
#include <linux/perf_event.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/timing.hpp"
#include "core_probe.hpp"
#include "host_speed.hpp"
#include "inputs.hpp"
#include "ofp/server/flow_mod_sink.hpp"
#include "ofp/server/session.hpp"
#include "runtime/runtime.hpp"
#include "spans.hpp"
#include "trace/wire_parse.hpp"

namespace perfbench {
namespace {

using namespace ofmtl;

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kInFlight = 4;
constexpr std::size_t kCacheSlots = 8192;
constexpr std::size_t kSetups = 5;
/// route_churn feeds one FLOW_MOD batch after every kChurnEvery data batches.
constexpr std::size_t kChurnEvery = 4;
/// Throughput windows: sized from the warm-up rate so that about
/// kTargetWindows fit the run; the run extends until kMinWindows are done.
constexpr std::size_t kTargetWindows = 128;
constexpr std::size_t kMinWindows = 50;
constexpr double kWarmupSeconds = 1.0;
/// Latency quantiles are medians over blocks of this many samples.
constexpr std::size_t kBatchBlock = 1000;
constexpr std::size_t kFlowModBlock = 100;
/// Lanes of oracle comparison between two completion polls.
constexpr std::size_t kVerifyChunk = 64;
constexpr std::size_t kSpanCapacity = std::size_t{1} << 18;
/// Single-thread classifier split: packets per pass and time budget.
constexpr std::size_t kCoreProbePackets = 16384;
constexpr std::int64_t kCoreProbeBudgetNs = 1'500'000'000;
constexpr double kReconTolerancePct = 10.0;

struct Options {
  Workload workload = Workload::kRouteZipf;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string span_file;
};

bool parse_options(int argc, char** argv, Options& out) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        have_workload = parse_workload(value, out.workload);
      } else if (key == "--seed") {
        out.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        out.seconds = std::stod(value);
        have_seconds = out.seconds > 0;
      } else if (key == "--trace") {
        have_trace = value == "0" || value == "1";
        out.trace = value == "1";
      } else if (key == "--span-file") {
        out.span_file = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds && have_trace;
}

std::uint64_t now_ms() { return static_cast<std::uint64_t>(now_ns() / 1'000'000); }

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Resident set size now, from /proc/self/statm; 0 when unreadable.
double current_rss_mib() {
  std::ifstream in("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  if (!(in >> size >> resident)) return 0.0;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

/// Whole-host CPU time from /proc/stat, for the steal share of a run.
struct CpuTimes {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
  bool ok = false;
};

CpuTimes read_cpu_times() {
  std::ifstream in("/proc/stat");
  std::string label;
  CpuTimes times;
  if (!(in >> label) || label != "cpu") return times;
  for (int column = 0; column < 8; ++column) {
    std::uint64_t value = 0;
    if (!(in >> value)) return times;
    times.total += value;
    if (column == 7) times.steal = value;
  }
  times.ok = true;
  return times;
}

double steal_pct(const CpuTimes& before, const CpuTimes& after) {
  if (!before.ok || !after.ok || after.total <= before.total) return 0.0;
  return 100.0 * static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

/// Hardware counters are reported as available or not, never as a count.
std::string probe_hw_counters() {
  perf_event_attr attr{};
  attr.type = PERF_TYPE_HARDWARE;
  attr.size = sizeof attr;
  attr.config = PERF_COUNT_HW_INSTRUCTIONS;
  attr.disabled = 1;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  const long fd = syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0);
  if (fd < 0) {
    return std::string("unavailable (perf_event_open: ") + std::strerror(errno) + ")";
  }
  close(static_cast<int>(fd));
  return "available, not sampled";
}

/// Nearest-rank quantile; 0 for an empty sample.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

/// Median over consecutive blocks of `block` samples of each block's
/// q-quantile; an incomplete last block is left out. A burst of host
/// noise then moves a few blocks, not the result.
double blocked_quantile(const std::vector<double>& samples, double q, std::size_t block) {
  if (samples.size() < block) return quantile(samples, q);
  std::vector<double> per_block;
  for (std::size_t base = 0; base + block <= samples.size(); base += block) {
    per_block.push_back(quantile({samples.begin() + static_cast<std::ptrdiff_t>(base),
                                  samples.begin() + static_cast<std::ptrdiff_t>(base + block)},
                                 q));
  }
  return quantile(per_block, 0.5);
}

/// Operations attempted and failed over the whole run.
struct Tally {
  std::uint64_t packets = 0;
  std::uint64_t malformed = 0;      ///< frames parse_batch rejected
  std::uint64_t mismatched = 0;     ///< verdicts differing from the oracle
  std::uint64_t ticket_failed = 0;  ///< packets in failed tickets
  std::uint64_t mods = 0;
  std::uint64_t mods_failed = 0;    ///< FLOW_MODs the sink did not apply
  std::uint64_t self_checks_failed = 0;

  [[nodiscard]] std::uint64_t attempted() const { return packets + mods; }
  [[nodiscard]] std::uint64_t failed() const {
    return malformed + mismatched + ticket_failed + mods_failed + self_checks_failed;
  }
};

/// Time spent in each layer's public call, accumulated in traced phases.
struct LayerTimes {
  std::int64_t parse_ns = 0;
  std::uint64_t parsed = 0;
  std::int64_t submit_ns = 0;
  std::uint64_t submits = 0;
  std::int64_t wait_ns = 0;
  std::uint64_t waits = 0;
  std::int64_t on_bytes_ns = 0;
  std::int64_t publish_ns = 0;
  std::uint64_t mod_batches = 0;
};

/// The control path: a sans-io OFP session whose sink publishes each
/// FLOW_MOD batch with one ParallelRuntime::update over apply_mods.
class ControlPath {
 public:
  ControlPath(runtime::ParallelRuntime& rt, const Inputs& inputs, Tally& tally)
      : inputs_(inputs),
        tally_(tally),
        session_(1, session_config(),
                 [this, &rt](std::span<const ofp::server::PendingFlowMod> mods,
                             std::span<ofp::ErrorCode> results) {
                   publish_start_ns_ = now_ns();
                   rt.update([mods, results](MultiTableLookup& tables) {
                     ofp::server::apply_mods(tables, mods, results);
                   });
                   publish_end_ns_ = now_ns();
                 },
                 now_ms()) {
    session_.on_bytes(inputs.hello, now_ms());
    session_.on_bytes(inputs.prime_mods, now_ms());
    session_.consume_output(session_.pending_output().size());
    if (session_.state() != ofp::server::Session::State::kSteady ||
        session_.counters().flow_mods_ok != kModsPerBatch / 2) {
      throw std::runtime_error("OFP session did not install the primed rules");
    }
  }
  ControlPath(const ControlPath&) = delete;
  ControlPath& operator=(const ControlPath&) = delete;

  /// One fed batch: on_bytes and, inside it, the publish.
  struct Feed {
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t publish_start_ns;
    std::int64_t publish_end_ns;
  };

  /// Feeds the next FLOW_MOD batch and returns when on_bytes returns, the
  /// batch published.
  Feed feed() {
    const auto& bytes = inputs_.mod_batches[next_ % 2];
    ++next_;
    const auto ok_before = session_.counters().flow_mods_ok;
    publish_start_ns_ = publish_end_ns_ = 0;
    const auto start = now_ns();
    session_.on_bytes(bytes, now_ms());
    const auto end = now_ns();
    const auto applied = session_.counters().flow_mods_ok - ok_before;
    tally_.mods += kModsPerBatch;
    tally_.mods_failed += kModsPerBatch - std::min<std::uint64_t>(applied, kModsPerBatch);
    session_.consume_output(session_.pending_output().size());
    return {start, end, publish_start_ns_, publish_end_ns_};
  }

 private:
  static ofp::server::SessionConfig session_config() {
    ofp::server::SessionConfig config;
    config.echo_interval_ms = 0;  // no liveness probes: the peer is in-process
    return config;
  }

  const Inputs& inputs_;
  Tally& tally_;
  std::int64_t publish_start_ns_ = 0;
  std::int64_t publish_end_ns_ = 0;
  std::uint64_t next_ = 0;
  ofp::server::Session session_;
};

/// The closed-loop producer: parse, submit, reap, verify.
class ClosedLoop {
 public:
  ClosedLoop(const Inputs& inputs, runtime::ParallelRuntime& rt,
             const std::vector<ExecutionResult>& expected, Tally& tally,
             ControlPath& control)
      : inputs_(inputs), rt_(rt), expected_(expected), tally_(tally),
        control_(control), churn_(inputs.workload == Workload::kRouteChurn) {
    for (auto& slot : slots_) {
      slot.headers.resize(kBatch);
      slot.results.resize(kBatch);
    }
  }
  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  /// Starts a phase: clears the observations, and times layers into
  /// `spans` when it is non-null.
  void begin_phase(SpanLog* spans) {
    spans_ = spans;
    batch_us_.clear();
    flowmod_us_.clear();
    layers_ = {};
  }

  /// One producer step: reap the oldest slot, parse the next batch into it
  /// and submit it; on route_churn every kChurnEvery-th step also feeds one
  /// FLOW_MOD batch.
  void step() {
    Slot& slot = slots_[next_slot_];
    next_slot_ = (next_slot_ + 1) % kInFlight;
    if (slot.in_flight) reap(slot);

    const std::size_t pos = cursor_;
    cursor_ = (cursor_ + kBatch) % inputs_.frames.size();
    slot.frame_pos = pos;
    const auto parse_start = now_ns();
    trace::parse_batch(std::span(inputs_.frames).subspan(pos, kBatch),
                       inputs_.in_port, slot.headers, parse_ctx_);
    slot.bad_lanes.assign(parse_ctx_.bad_lanes.begin(), parse_ctx_.bad_lanes.end());
    std::uint32_t batch_span = 0;
    if (spans_) {
      const auto end = now_ns();
      layers_.parse_ns += end - parse_start;
      layers_.parsed += kBatch;
      batch_span = spans_->record("batch", 0, parse_start, parse_start);
      spans_->record("trace.parse_batch", batch_span, parse_start, end);
    }
    poll();

    slot.span = batch_span;
    slot.done_ns = 0;
    slot.submit_ns = now_ns();
    rt_.submit(queue_, slot.headers, slot.results, &slot.ticket);
    slot.in_flight = true;
    queue_ = (queue_ + 1) % kWorkers;
    tally_.packets += kBatch;
    if (spans_) {
      const auto end = now_ns();
      layers_.submit_ns += end - slot.submit_ns;
      ++layers_.submits;
      spans_->record("runtime.submit", batch_span, slot.submit_ns, end);
    }
    poll();

    if (churn_ && ++steps_ % kChurnEvery == 0) feed_control();
  }

  /// Reaps every in-flight batch.
  void drain() {
    for (std::size_t i = 0; i < kInFlight; ++i) {
      Slot& slot = slots_[next_slot_];
      next_slot_ = (next_slot_ + 1) % kInFlight;
      if (slot.in_flight) reap(slot);
    }
  }

  /// Feeds one FLOW_MOD batch and records its latency, and in a traced
  /// phase its layer times.
  void feed_control() {
    const auto feed = control_.feed();
    flowmod_us_.push_back(static_cast<double>(feed.end_ns - feed.start_ns) / 1e3);
    if (spans_) {
      layers_.on_bytes_ns += feed.end_ns - feed.start_ns;
      layers_.publish_ns += feed.publish_end_ns - feed.publish_start_ns;
      ++layers_.mod_batches;
      const auto id = spans_->record("ofp.session.on_bytes", 0, feed.start_ns, feed.end_ns);
      spans_->record("runtime.update", id, feed.publish_start_ns, feed.publish_end_ns);
    }
  }

  [[nodiscard]] const std::vector<double>& batch_us() const { return batch_us_; }
  [[nodiscard]] const std::vector<double>& flowmod_us() const { return flowmod_us_; }
  [[nodiscard]] const LayerTimes& layers() const { return layers_; }
  [[nodiscard]] std::uint64_t reaped_packets() const { return reaped_packets_; }
  /// Time the producer spent blocked on the workers, in BatchTicket::wait.
  [[nodiscard]] std::int64_t blocked_ns() const { return blocked_ns_; }

 private:
  struct Slot {
    std::vector<PacketHeader> headers;
    std::vector<ExecutionResult> results;
    runtime::BatchTicket ticket;
    std::vector<std::uint32_t> bad_lanes;
    std::size_t frame_pos = 0;
    std::int64_t submit_ns = 0;
    std::int64_t done_ns = 0;  ///< first time the producer saw it complete
    std::uint32_t span = 0;
    bool in_flight = false;
  };

  /// Stamps the completion time of in-flight batches that have finished.
  /// The producer looks after each parse, each submit and each chunk of
  /// oracle comparison, so a stamp is late by at most one parse_batch call.
  void poll() {
    for (auto& slot : slots_) {
      if (slot.in_flight && slot.done_ns == 0 && slot.ticket.done()) {
        slot.done_ns = now_ns();
      }
    }
  }

  void reap(Slot& slot) {
    if (slot.done_ns == 0) {
      const auto start = now_ns();
      slot.ticket.wait();
      slot.done_ns = now_ns();
      blocked_ns_ += slot.done_ns - start;
      if (spans_) {
        layers_.wait_ns += slot.done_ns - start;
        spans_->record("runtime.ticket_wait", slot.span, start, slot.done_ns);
      }
    }
    if (spans_) {
      ++layers_.waits;
      spans_->finish(slot.span, slot.done_ns);
    }
    slot.in_flight = false;

    if (slot.ticket.failed()) {
      tally_.ticket_failed += kBatch;
      slot.ticket.reset();
    } else {
      // The oracle comparison is the harness's own work: the other slots'
      // completions are stamped before it and between its chunks, so it
      // does not count as their latency.
      std::size_t bad = 0;
      for (std::size_t lane = 0; lane < kBatch; ++lane) {
        if (lane % kVerifyChunk == 0) poll();
        if (bad < slot.bad_lanes.size() && slot.bad_lanes[bad] == lane) {
          ++bad;
          continue;
        }
        const auto flow = inputs_.frame_flow[slot.frame_pos + lane];
        if (!slot.results[lane].same_forwarding(expected_[flow])) {
          ++tally_.mismatched;
        }
      }
      tally_.malformed += slot.bad_lanes.size();
    }
    batch_us_.push_back(static_cast<double>(slot.done_ns - slot.submit_ns) / 1e3);
    reaped_packets_ += kBatch;
  }

  const Inputs& inputs_;
  runtime::ParallelRuntime& rt_;
  const std::vector<ExecutionResult>& expected_;
  Tally& tally_;
  ControlPath& control_;
  const bool churn_;

  std::array<Slot, kInFlight> slots_;
  trace::ParseContext parse_ctx_;
  std::size_t next_slot_ = 0;
  std::size_t cursor_ = 0;
  std::size_t queue_ = 0;
  std::uint64_t steps_ = 0;
  std::uint64_t reaped_packets_ = 0;
  std::int64_t blocked_ns_ = 0;

  std::vector<double> batch_us_;
  std::vector<double> flowmod_us_;
  LayerTimes layers_;
  SpanLog* spans_ = nullptr;
};

/// What one measured phase observed.
struct Phase {
  /// Packets over the windows' reference time (see measure()).
  double throughput_mpps = 0;
  double raw_throughput_mpps = 0;  ///< packets over the windows' wall time
  double slowdown = 0;             ///< wall time over reference time
  std::size_t windows = 0;
  std::vector<double> batch_us;
  std::vector<double> flowmod_us;
  LayerTimes layers;
  runtime::WorkerStats stats;  ///< runtime counters over the phase
  double host_steal_pct = 0;
};

runtime::WorkerStats stats_delta(const runtime::WorkerStats& a,
                                 const runtime::WorkerStats& b) {
  runtime::WorkerStats d;
  d.batches = b.batches - a.batches;
  d.packets = b.packets - a.packets;
  d.errors = b.errors - a.errors;
  d.steals = b.steals - a.steals;
  d.cache_hits = b.cache_hits - a.cache_hits;
  d.cache_misses = b.cache_misses - a.cache_misses;
  d.cache_evictions = b.cache_evictions - a.cache_evictions;
  d.cache_epoch_invalidations = b.cache_epoch_invalidations - a.cache_epoch_invalidations;
  return d;
}

/// Runs the loop in windows of `window_batches` batches for `seconds`
/// (longer if fewer than kMinWindows windows completed by then, up to three
/// times `seconds`). A window submits its batches and reaps them all. The
/// host speed probe then runs outside the window, on the producer's CPU and
/// on the idle workers' CPUs, and converts the window's wall time into
/// reference time: the producer's own time divided by its CPU's slowdown,
/// plus its time blocked on the workers divided by theirs.
Phase measure(ClosedLoop& loop, const runtime::ParallelRuntime& rt,
              const std::vector<int>& worker_cpus, std::size_t window_batches,
              double seconds, SpanLog* spans) {
  Phase phase;
  const auto stats_before = rt.aggregate_stats();
  const auto cpu_before = read_cpu_times();
  loop.begin_phase(spans);
  const auto start = now_ns();
  const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  const auto hard_stop = start + static_cast<std::int64_t>(3 * seconds * 1e9);
  double wall_ns = 0, reference_ns = 0;
  for (;;) {
    const auto blocked_before = loop.blocked_ns();
    const auto window_start = now_ns();
    for (std::size_t b = 0; b < window_batches; ++b) loop.step();
    loop.drain();
    const auto wall = static_cast<double>(now_ns() - window_start);
    const auto blocked = static_cast<double>(loop.blocked_ns() - blocked_before);
    const double producer_slowdown = probe_slowdown();
    const double worker_slowdown = probe_slowdown_on(worker_cpus);
    wall_ns += wall;
    reference_ns += (wall - blocked) / producer_slowdown + blocked / worker_slowdown;
    ++phase.windows;
    const auto now = now_ns();
    if ((now >= deadline && phase.windows >= kMinWindows) || now >= hard_stop) break;
  }
  phase.host_steal_pct = steal_pct(cpu_before, read_cpu_times());
  phase.stats = stats_delta(stats_before, rt.aggregate_stats());
  const auto packets = static_cast<double>(phase.windows * window_batches * kBatch);
  phase.throughput_mpps = packets * 1e3 / reference_ns;
  phase.raw_throughput_mpps = packets * 1e3 / wall_ns;
  phase.slowdown = wall_ns / reference_ns;
  phase.batch_us = loop.batch_us();
  phase.flowmod_us = loop.flowmod_us();
  phase.layers = loop.layers();
  return phase;
}

/// Memory-model components grouped by structure kind.
struct MemorySplit {
  double lut = 0, trie = 0, range = 0, index = 0, action = 0, other = 0;
};

MemorySplit split_memory(const mem::MemoryReport& report) {
  MemorySplit split;
  for (const auto& component : report.components()) {
    const double kbits = mem::to_kbits(component.bits());
    const auto& name = component.name;
    const auto has = [&](const char* part) { return name.find(part) != std::string::npos; };
    if (has(".range_index")) {
      split.range += kbits;
    } else if (has(".lut")) {
      split.lut += kbits;
    } else if (has(".trie.")) {
      split.trie += kbits;
    } else if (has(".index.")) {
      split.index += kbits;
    } else if (has(".actions")) {
      split.action += kbits;
    } else {
      split.other += kbits;
    }
  }
  return split;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const std::vector<Metric>& metrics, const Tally& tally) {
  std::cout << "\n";
  for (const auto& m : metrics) {
    std::cout << "  " << std::left << std::setw(40) << m.name << std::right
              << std::setw(16) << std::setprecision(6) << m.value << " " << m.unit << "\n";
  }
  std::cout << std::setprecision(17) << "{\"correct\": "
            << (tally.failed() == 0 ? "true" : "false")
            << ", \"attempted\": " << tally.attempted()
            << ", \"failed\": " << tally.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
              << metrics[i].value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

/// Pins the producer to one CPU and the runtime's workers to two others,
/// so that the three busy threads never trade places during a run. Workers
/// inherit the mask current when the runtime starts them. Without three
/// usable CPUs nothing is pinned.
class Pinning {
 public:
  Pinning() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
    std::vector<int> cpus;
    for (int cpu = 0; cpu < CPU_SETSIZE && cpus.size() < 1 + kWorkers; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
    }
    if (cpus.size() < 1 + kWorkers) return;
    CPU_ZERO(&producer_);
    CPU_ZERO(&workers_);
    CPU_SET(cpus[0], &producer_);
    for (std::size_t w = 1; w < cpus.size(); ++w) CPU_SET(cpus[w], &workers_);
    worker_cpus_.assign(cpus.begin() + 1, cpus.end());
    enabled_ = true;
  }
  void workers() { apply(workers_); }
  void producer() { apply(producer_); }
  /// The workers' CPUs; empty when nothing is pinned.
  [[nodiscard]] const std::vector<int>& worker_cpus() const { return worker_cpus_; }

 private:
  void apply(const cpu_set_t& set) {
    if (enabled_) (void)sched_setaffinity(0, sizeof set, &set);
  }
  cpu_set_t producer_{};
  cpu_set_t workers_{};
  std::vector<int> worker_cpus_;
  bool enabled_ = false;
};

/// The measured runtime and what the set-ups that built it observed.
struct SetUp {
  std::unique_ptr<runtime::ParallelRuntime> rt;
  std::vector<double> seconds;  ///< one per set-up
  /// Per set-up, the host slowdown probed before and after its compile.
  std::vector<double> slowdowns;
  double model_kbits = 0;
  mem::MemoryReport memory;
  unsigned model_stages = 0;
  std::vector<unsigned> table_stages;
  double rss_mib = 0;  ///< peak RSS once set up, over the inputs' baseline
};

/// Set-up: compile the rules, start the runtime, serve the first batch.
/// Repeated kSetups times from the same inputs; the last runtime is kept.
/// The memory and timing models are read off each compile untimed.
SetUp set_up(const Inputs& inputs, const std::vector<ExecutionResult>& expected,
             Pinning& pin, double baseline_rss_mib, Tally& tally) {
  SetUp result;
  std::vector<double> model_kbits;
  std::vector<PacketHeader> headers(kBatch);
  std::vector<ExecutionResult> results(kBatch);
  trace::ParseContext parse_ctx;
  pin.producer();
  for (std::size_t s = 0; s < kSetups; ++s) {
    result.rt.reset();
    const double slowdown_before = probe_slowdown();
    const auto start = now_ns();
    auto tables = compile_rules(inputs);
    const auto compiled = now_ns();
    // The compile is most of a set-up: probed on either side of it.
    result.slowdowns.push_back((slowdown_before + probe_slowdown()) / 2);
    result.memory = tables.memory_report(std::string(to_string(inputs.workload)));
    model_kbits.push_back(result.memory.total_kbits());
    const TimingModel timing;
    result.model_stages = timing.pipeline_latency(tables);
    result.table_stages.clear();
    for (std::size_t t = 0; t < tables.table_count(); ++t) {
      result.table_stages.push_back(timing.table_stages(tables.table(t)).total());
    }
    const auto resumed = now_ns();
    pin.workers();
    result.rt = std::make_unique<runtime::ParallelRuntime>(
        std::move(tables), runtime::RuntimeConfig{.workers = kWorkers,
                                                  .queue_capacity = 2 * kInFlight,
                                                  .flow_cache_capacity = kCacheSlots});
    pin.producer();
    trace::parse_batch(std::span(inputs.frames).first(kBatch), inputs.in_port, headers,
                       parse_ctx);
    result.rt->classify(0, headers, results);
    const auto served = now_ns();
    result.seconds.push_back(static_cast<double>((compiled - start) + (served - resumed)) / 1e9);

    tally.packets += kBatch;
    tally.malformed += parse_ctx.bad_lanes.size();
    for (std::size_t lane = 0; lane < kBatch; ++lane) {
      if (!results[lane].same_forwarding(expected[inputs.frame_flow[lane]])) {
        ++tally.mismatched;
      }
    }
  }
  result.rss_mib = peak_rss_mib() - baseline_rss_mib;
  result.model_kbits = model_kbits.front();
  if (std::adjacent_find(model_kbits.begin(), model_kbits.end(),
                         std::not_equal_to<>()) != model_kbits.end()) {
    std::cout << "determinism: model_kbits differs between set-ups\n";
    ++tally.self_checks_failed;
  }
  return result;
}

/// The mem.* groups must cover every component of the memory report: a
/// component no group claims, or a sum off model_kbits, fails the run.
void check_memory_split(const SetUp& setup, Tally& tally) {
  const auto split = split_memory(setup.memory);
  const double grouped = split.lut + split.trie + split.range + split.index + split.action;
  if (split.other != 0 || std::abs(grouped - setup.model_kbits) > 1e-6) {
    std::cout << "reconciliation: memory groups sum to " << grouped << " kbits ("
              << split.other << " kbits ungrouped) vs model_kbits " << setup.model_kbits
              << ": FAILED\n";
    ++tally.self_checks_failed;
  }
}

/// The same seed must regenerate the same capture and model cost, and
/// another seed another capture.
void check_determinism(const Inputs& inputs, double model_kbits, Tally& tally) {
  const Inputs again = make_inputs(inputs.workload, inputs.seed);
  const double again_kbits =
      compile_rules(again).memory_report(std::string(to_string(inputs.workload))).total_kbits();
  const Inputs other = make_inputs(inputs.workload, inputs.seed + 1);
  const bool same = again.capture_hash == inputs.capture_hash && again_kbits == model_kbits;
  const bool differs = other.capture_hash != inputs.capture_hash;
  std::cout << "determinism: same seed " << (same ? "reproduces" : "DOES NOT reproduce")
            << " capture hash and model_kbits; seed+1 capture "
            << (differs ? "differs" : "DOES NOT differ") << "\n";
  if (!same || !differs) ++tally.self_checks_failed;
}

/// Everything a run observed, for the report.
struct Observed {
  SetUp setup;
  Phase phase;     ///< the measured data phase (traced in a traced run)
  Phase untraced;  ///< traced runs only: the untraced half
  std::size_t window_batches = 0;
  /// Peak RSS over the run, less the RSS of the inputs and the oracle.
  double rss_mib = 0;
};

double per(std::int64_t ns, std::uint64_t n) {
  return n ? static_cast<double>(ns) / static_cast<double>(n) : 0.0;
}

void print_context(const Options& opt, const Inputs& inputs, const Observed& seen,
                   const Tally& tally) {
  const auto& phase = seen.phase;
  std::cout << std::fixed << std::setprecision(3) << "workload " << to_string(opt.workload)
            << " seed " << opt.seed << " trace " << opt.trace << "\n"
            << "context: hardware_threads " << std::thread::hardware_concurrency()
            << ", producer threads 1, workers " << kWorkers << ", batch " << kBatch
            << ", in_flight " << kInFlight << ", flow cache " << kCacheSlots
            << " slots/worker, windows " << phase.windows << " x "
            << seen.window_batches * kBatch << " packets, host.steal_pct "
            << phase.host_steal_pct << "\n"
            << "context: hardware counters " << probe_hw_counters() << "\n"
            << "context: rules " << inputs.rules.entries.size() << ", pool flows "
            << inputs.pool_headers.size() << ", capture frames " << inputs.frames.size()
            << ", capture hash " << std::hex << inputs.capture_hash << std::dec << "\n"
            << "samples: batch latency n=" << phase.batch_us.size() << " (blocks of "
            << kBatchBlock << "), flow-mod latency n=" << seen.phase.flowmod_us.size()
            << " under traffic"
            << " (blocks of " << kFlowModBlock << "), set-ups n=" << seen.setup.seconds.size()
            << "\n"
            << "failures: " << tally.failed() << " of " << tally.attempted() << " (fail_pct "
            << std::setprecision(6)
            << 100.0 * static_cast<double>(tally.failed()) / static_cast<double>(tally.attempted())
            << "): malformed " << tally.malformed << ", mismatched " << tally.mismatched
            << ", failed tickets " << tally.ticket_failed << ", rejected mods "
            << tally.mods_failed << ", self-checks " << tally.self_checks_failed << "\n"
            << "diagnostic: batch_p50_us "
            << blocked_quantile(phase.batch_us, 0.5, kBatchBlock) << ", batch_p90_us "
            << blocked_quantile(phase.batch_us, 0.9, kBatchBlock) << ", batch_p99_us "
            << quantile(phase.batch_us, 0.99) << ", flowmod_p50_us "
            << blocked_quantile(seen.phase.flowmod_us, 0.5, kFlowModBlock) << ", flowmod_p90_us "
            << blocked_quantile(seen.phase.flowmod_us, 0.9, kFlowModBlock) << ", flowmod_p99_us "
            << quantile(seen.phase.flowmod_us, 0.99) << "\n"
            << "unscaled: host slowdown " << phase.slowdown << " in the windows, "
            << quantile(seen.setup.slowdowns, 0.5) << " in set-up; throughput_mpps "
            << phase.raw_throughput_mpps << ", setup_s "
            << quantile(seen.setup.seconds, 0.5) << "\n";
  std::cout.unsetf(std::ios::floatfield);
}

/// Set-up time at the reference host speed: the median over the set-ups
/// of each one's time divided by the slowdown probed around its compile.
double scaled_setup_s(const SetUp& setup) {
  std::vector<double> scaled;
  for (std::size_t s = 0; s < setup.seconds.size(); ++s) {
    scaled.push_back(setup.seconds[s] / setup.slowdowns[s]);
  }
  return quantile(scaled, 0.5);
}

std::vector<Metric> end_to_end_metrics(const Observed& seen) {
  return {
      {"throughput_mpps", seen.phase.throughput_mpps, "Mpps"},
      {"setup_s", scaled_setup_s(seen.setup), "s"},
      {"rss_mib", seen.rss_mib, "MiB"},
      {"model_kbits", seen.setup.model_kbits, "kbits"},
  };
}

/// Per-layer metrics of a traced run, plus the single-thread classifier
/// split on `tables`. Prints the reconciliation and the bottleneck the
/// layer numbers predict; `reconciled` reports whether the split held.
std::vector<Metric> per_layer_metrics(const Inputs& inputs, const MultiTableLookup& tables,
                                      const Observed& seen, Tally& tally, bool& reconciled) {
  std::vector<PacketHeader> probe_headers;
  for (std::size_t i = 0; i < kCoreProbePackets; ++i) {
    probe_headers.push_back(inputs.pool_headers[inputs.frame_flow[i]]);
  }
  const auto core = measure_core(tables, probe_headers, kCoreProbeBudgetNs);
  tally.mismatched += core.mismatches;

  const auto& layers = seen.phase.layers;
  const auto& stats = seen.phase.stats;
  const double probes = static_cast<double>(stats.cache_hits + stats.cache_misses);
  const double hit_pct =
      probes > 0 ? 100.0 * static_cast<double>(stats.cache_hits) / probes : 0.0;
  const double kpkts = static_cast<double>(stats.packets) / 1e3;
  const auto per_kpkt = [&](std::uint64_t count) {
    return kpkts > 0 ? static_cast<double>(count) / kpkts : 0.0;
  };
  // The producer's own cost per packet: parse, submit, and on route_churn
  // the FLOW_MOD batches it feeds between data batches.
  const double producer_ns =
      per(layers.parse_ns + layers.submit_ns + layers.on_bytes_ns, layers.parsed);
  const double worker_ns = (1.0 - hit_pct / 100.0) * core.execute_ns / kWorkers;
  const double predicted_mpps = 1e3 / std::max(producer_ns, worker_ns);
  const double split_error_pct = 100.0 * (core.decorated_ratio - 1.0);
  const double untraced_mpps = seen.untraced.throughput_mpps;
  const auto mem_split = split_memory(seen.setup.memory);

  std::vector<Metric> metrics = {
      {"trace.parse_ns_per_pkt", per(layers.parse_ns, layers.parsed), "ns/pkt"},
      {"runtime.submit_wait_us", per(layers.submit_ns, layers.submits) / 1e3, "us"},
      {"runtime.ticket_wait_us", per(layers.wait_ns, layers.waits) / 1e3, "us"},
      {"runtime.cache_hit_pct", hit_pct, "%"},
      {"runtime.cache_invalidations_per_kpkt", per_kpkt(stats.cache_epoch_invalidations),
       "1/kpkt"},
      {"runtime.cache_evictions_per_kpkt", per_kpkt(stats.cache_evictions), "1/kpkt"},
      {"runtime.steal_pct", 100.0 * per(static_cast<std::int64_t>(stats.steals), stats.batches),
       "%"},
      {"runtime.publish_us", per(layers.publish_ns, layers.mod_batches) / 1e3, "us"},
      {"ofp.decode_us", per(layers.on_bytes_ns - layers.publish_ns, layers.mod_batches) / 1e3,
       "us"},
      {"core.execute_ns_per_pkt", core.execute_ns, "ns/pkt"},
  };
  // Fixed metric names across workloads: a table or field a workload does
  // not have reads 0.
  for (std::size_t t = 0; t < 2; ++t) {
    metrics.push_back({"core.table" + std::to_string(t) + ".lookup_ns_per_pkt",
                       t < core.table_ns.size() ? core.table_ns[t] : 0.0, "ns/pkt"});
  }
  metrics.push_back({"core.apply_ns_per_pkt", core.apply_ns, "ns/pkt"});
  for (const char* field :
       {"in_port", "metadata", "ipv4_src", "ipv4_dst", "src_port", "dst_port", "ip_proto"}) {
    double ns = 0;
    for (const auto& [slug, value] : core.field_ns) {
      if (slug == field) ns = value;
    }
    metrics.push_back({std::string("core.field.") + field + ".search_ns_per_pkt", ns, "ns/pkt"});
  }
  metrics.insert(metrics.end(),
                 {
                     {"core.model_stages", static_cast<double>(seen.setup.model_stages), "stages"},
                     {"mem.lut_kbits", mem_split.lut, "kbits"},
                     {"mem.trie_kbits", mem_split.trie, "kbits"},
                     {"mem.range_kbits", mem_split.range, "kbits"},
                     {"mem.index_kbits", mem_split.index, "kbits"},
                     {"mem.action_kbits", mem_split.action, "kbits"},
                     {"mem.setup_rss_mib", seen.setup.rss_mib, "MiB"},
                     {"recon.split_error_pct", split_error_pct, "%"},
                     {"recon.producer_ns_per_pkt", producer_ns, "ns/pkt"},
                     {"recon.worker_ns_per_pkt", worker_ns, "ns/pkt"},
                     {"recon.predicted_mpps", predicted_mpps, "Mpps"},
                     {"host.steal_pct", seen.phase.host_steal_pct, "%"},
                     {"host.slowdown", seen.phase.slowdown, "ratio"},
                     {"host.unscaled_throughput_mpps", seen.phase.raw_throughput_mpps, "Mpps"},
                     {"trace_overhead_pct",
                      100.0 * (untraced_mpps - seen.phase.throughput_mpps) / untraced_mpps, "%"},
                 });

  const TimingModel timing;
  std::cout << std::fixed << std::setprecision(2);
  for (std::size_t t = 0; t < core.table_ns.size(); ++t) {
    std::cout << "core: table" << t << " lookup " << core.table_ns[t] << " ns/pkt measured, "
              << seen.setup.table_stages[t] << " stages in the timing model\n";
  }
  std::cout << "core: pipeline " << seen.setup.model_stages << " stages ("
            << seen.setup.model_stages / timing.clock_mhz * 1e3 << " ns at " << timing.clock_mhz
            << " MHz) vs " << core.execute_ns << " ns/pkt measured single-thread, "
            << core.rounds << " rounds x " << core.packets << " packets\n";
  reconciled = std::abs(split_error_pct) <= kReconTolerancePct;
  std::cout << "reconciliation: decorated executor " << core.decorated_ns << " ns/pkt vs plain "
            << core.execute_ns << " ns/pkt (median round ratio " << split_error_pct << "%, limit +-"
            << kReconTolerancePct << "%) " << (reconciled ? "ok" : "FAILED") << "\n";
  std::cout << "bottleneck: producer " << producer_ns
            << " ns/pkt (parse + submit + flow-mod feed) vs workers " << worker_ns
            << " ns/pkt (miss share x execute / " << kWorkers << ") predicts "
            << (producer_ns >= worker_ns ? "producer" : "workers") << "-bound at <= "
            << predicted_mpps << " Mpps; measured (unscaled, like the layer times) "
            << seen.phase.raw_throughput_mpps << " Mpps traced, "
            << seen.untraced.raw_throughput_mpps << " Mpps untraced\n";
  std::cout.unsetf(std::ios::floatfield);
  return metrics;
}

int run(const Options& opt) {
  Tally tally;
  const Inputs inputs = make_inputs(opt.workload, opt.seed);

  // The oracle: an untouched compile of the same rules. Churn rules never
  // match the traffic, so its verdicts stay valid through every publish.
  const MultiTableLookup oracle = compile_rules(inputs);
  std::vector<ExecutionResult> expected;
  expected.reserve(inputs.pool_headers.size());
  for (const auto& header : inputs.pool_headers) expected.push_back(oracle.execute(header));

  Observed seen;
  // What the benchmark itself holds: RSS metrics count from here.
  const double baseline_rss_mib = current_rss_mib();
  Pinning pin;
  seen.setup = set_up(inputs, expected, pin, baseline_rss_mib, tally);
  check_memory_split(seen.setup, tally);
  auto& rt = *seen.setup.rt;
  std::unique_ptr<SpanLog> spans;
  if (opt.trace) spans = std::make_unique<SpanLog>(kSpanCapacity);
  ControlPath control(rt, inputs, tally);
  ClosedLoop loop(inputs, rt, expected, tally, control);

  // Warm-up: fill the flow caches, then size the windows from the rate
  // seen in the second half of the warm-up.
  const double warmup_s = std::min(kWarmupSeconds, opt.seconds / 2);
  loop.begin_phase(nullptr);
  const auto warm_start = now_ns();
  const auto warm_half = warm_start + static_cast<std::int64_t>(warmup_s * 0.5e9);
  const auto warm_end = warm_start + static_cast<std::int64_t>(warmup_s * 1e9);
  while (now_ns() < warm_half) loop.step();
  const auto half_packets = loop.reaped_packets();
  while (now_ns() < warm_end) loop.step();
  const double warm_rate = static_cast<double>(loop.reaped_packets() - half_packets) /
                           (static_cast<double>(now_ns() - warm_half) / 1e9);
  loop.drain();
  // A traced run measures two phases (untraced, traced) of half the time.
  const double phase_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const double window_packets = warm_rate * phase_s / kTargetWindows;
  seen.window_batches = std::max<std::size_t>(
      kChurnEvery,
      static_cast<std::size_t>(window_packets / kBatch / kChurnEvery) * kChurnEvery);

  if (opt.trace) {
    seen.untraced = measure(loop, rt, pin.worker_cpus(), seen.window_batches, phase_s, nullptr);
  }
  seen.phase = measure(loop, rt, pin.worker_cpus(), seen.window_batches, phase_s, spans.get());
  seen.rss_mib = peak_rss_mib() - baseline_rss_mib;
  seen.setup.rt.reset();

  check_determinism(inputs, seen.setup.model_kbits, tally);
  print_context(opt, inputs, seen, tally);
  if (!opt.trace) {
    print_result(end_to_end_metrics(seen), tally);
    return tally.failed() == 0 ? 0 : 1;
  }

  bool reconciled = false;
  const auto metrics = per_layer_metrics(inputs, oracle.clone(), seen, tally, reconciled);
  int exit_code = reconciled ? 0 : 4;
  if (!opt.span_file.empty()) {
    if (spans->write_json(opt.span_file)) {
      std::cout << "spans: " << spans->size() << " written to " << opt.span_file << " ("
                << spans->dropped() << " dropped past the cap)\n";
    } else {
      std::cout << "spans: could not write " << opt.span_file << "\n";
      exit_code = 4;
    }
  }
  if (tally.failed() != 0) exit_code = 1;
  print_result(metrics, tally);
  return exit_code;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::parse_options(argc, argv, options)) {
    std::cerr << "usage: ofmtl_perfbench --workload <route_zipf|acl_uniform|route_churn> "
                 "--seed <n> --seconds <s> --trace <0|1> [--span-file <path>]\n";
    return 2;
  }
  try {
    return perfbench::run(options);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 3;
  }
}
