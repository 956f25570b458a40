// Flight recorder: tracing stays always-on, and the ring history that
// explains an anomaly is persisted AT the anomaly instead of being
// overwritten before anyone looks. Two triggers:
//
//   - SLO breach (poll path): each poll() drains the trace rings into a
//     bounded retained history (the last retain_ms per thread) and folds
//     the window's slice durations into per-SLO LogHistograms, read
//     through the same ThreadDecoder and SlicePairer as the export side.
//     When a window has enough samples, its watermarks are checked against
//     the configured bounds (p99 ≤ ratio × p50 and/or an absolute p99
//     ceiling); a violation dumps the retained history as OFTRACE1 plus a
//     JSON breach report, then the window restarts.
//   - Crash (signal path): arm() pre-registers shared-ownership references
//     to every live ring plus a preallocated file-image buffer, and
//     installs SIGSEGV/SIGABRT/SIGBUS handlers. The handler is
//     async-signal-safe by construction: it reads ring slots via
//     TraceRing::peek() (atomic loads only), packs records into the
//     preallocated buffer, and open()/write()/close()s the dump — no
//     allocation, no locks, no iostreams — then restores the default
//     disposition and re-raises. The emitted file is a normal OFTRACE1
//     (records carry their own kTimeSync/kWallClockSync anchors), so the
//     standard loader and trace_export work on post-mortem dumps.
//
// The recorder is the session's sole ring CONSUMER while armed (drain is
// single-consumer); callers that want a final TraceDump for themselves use
// the retained history via dump_retained(). poll() is caller-driven — no
// background thread — which keeps breach evaluation deterministic under
// the injected now_ns/collect hooks the tests use.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace ofmtl::obs {

/// One tail-latency objective over the durations of the slices `begin`
/// opens (each slice folds once, as SliceFold::kPerSlice).
struct SloSpec {
  std::string name;                ///< report key, e.g. "batch"
  TraceEvent begin = TraceEvent::kBatchBegin;
  double max_p99_over_p50 = 0;     ///< 0 = no ratio bound (e.g. 100.0)
  std::uint64_t max_p99_ns = 0;    ///< 0 = no absolute p99 ceiling
  std::uint64_t min_samples = 64;  ///< window must hold this many slices
};

struct FlightRecorderConfig {
  std::vector<SloSpec> slos;
  /// How much per-thread history survives to a dump.
  std::uint64_t retain_ms = 250;
  /// Breach artifacts land here as <prefix>_breach_<n>.oftrace/.json and
  /// the crash dump as <prefix>_crash.oftrace.
  std::string dump_dir = ".";
  std::string dump_prefix = "flight";
  bool install_crash_handler = true;
  /// Test seams: monotonic clock and ring-collection sources. Defaults are
  /// TraceRing::now_ns and collect_tracing; tests substitute a VirtualClock
  /// hook and synthetic dumps for deterministic breach windows.
  std::function<std::uint64_t()> now_ns;
  std::function<TraceDump()> collect;
};

/// What one breach produced (the artifacts are already on disk).
struct BreachInfo {
  std::string slo;
  std::string reason;       ///< "p99_over_p50" or "p99_ceiling"
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
  std::uint64_t samples = 0;
  std::string dump_path;
  std::string report_path;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderConfig config = {});
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Snapshot the live rings for the crash path and install the signal
  /// handlers. Only one recorder may be armed per process at a time.
  void arm();
  /// Uninstall handlers and release the crash snapshot.
  void disarm();
  [[nodiscard]] bool armed() const { return armed_; }

  /// Drain new records into the retained history, evaluate every SLO whose
  /// window is full, write dump+report for each breach. Returns the
  /// breaches this poll triggered (usually empty).
  std::vector<BreachInfo> poll();

  /// The retained history as a TraceDump (what a breach dump contains).
  [[nodiscard]] TraceDump dump_retained() const;

  /// Force a dump+report now, as if an SLO named `reason` breached —
  /// the operator "snapshot now" button, also used by tests.
  BreachInfo force_dump(const std::string& reason);

  [[nodiscard]] std::uint64_t breaches() const { return breach_count_; }
  [[nodiscard]] std::uint64_t dumps_written() const { return dump_count_; }

  /// Export recorder health (breach/dump counters, retained record count)
  /// into a metrics registry.
  [[nodiscard]] MetricsRegistry::ProviderHandle register_metrics(
      MetricsRegistry& registry);

 private:
  struct RetainedRecord {
    TraceRecord record;       ///< as drained: its delta is still valid
    std::uint64_t ts_ns = 0;  ///< decoded absolute timestamp
  };
  /// Per-producer-thread rolling history; the decoder and the pairer carry
  /// the stream's state from one poll to the next.
  struct ThreadHistory {
    std::string name;
    std::uint64_t tid = 0;
    std::uint64_t dropped = 0;
    ThreadDecoder decoder;
    SlicePairer pairer;
    std::vector<RetainedRecord> records;
  };
  void ingest(const TraceDump& dump);
  void trim(std::uint64_t now);
  BreachInfo write_breach(const SloSpec& slo, const std::string& reason,
                          std::uint64_t p50, std::uint64_t p99,
                          std::uint64_t samples);
  void refresh_crash_snapshot();

  FlightRecorderConfig config_;
  std::vector<ThreadHistory> threads_;
  std::vector<LogHistogram> slo_windows_;  ///< per SLO, the open window
  bool armed_ = false;
  std::uint64_t breach_count_ = 0;
  std::uint64_t dump_count_ = 0;
};

}  // namespace ofmtl::obs
