// Offline trace decoder: OFTRACE1 binary dump -> Perfetto JSON + tail stats.
//
//   trace_export FILE.oftrace [-o FILE.json] [--summary]
//     Decode a raw trace written by `trace_replay run --trace-raw` (or any
//     obs::save_trace_dump caller) and render chrome://tracing JSON to -o
//     (stdout when omitted). --summary instead prints per-slice latency
//     distributions (count, p50/p99/p99.9, mean) derived through
//     obs::LogHistogram — with -o, both are produced. The summary also
//     surfaces per-ring overwrite loss (`dropped`) and the decode-skipped
//     prefix, so silent history truncation is never invisible. When the
//     trace holds publishes, it also splits their mean into the catch-up
//     of the lagging side and the apply of the publish's own mods; when it
//     holds flow-cache counters, it prints the share of hits that were
//     stale entries revalidated after a publish.
//
//   trace_export --merge A.oftrace B.oftrace [...] [-o FILE.json]
//     Render several dumps — typically a controller process and a switch
//     process — on ONE timeline. Each process's monotonic clock is aligned
//     through the wall-clock half of its kTimeSync anchor pairs, and each
//     gets its own pid + process_name track in the output.
//
// Splitting record+decode keeps the recording side allocation-light: a run
// dumps 16-byte records and exits; everything human-facing happens here.
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/histogram.hpp"
#include "obs/tracer.hpp"

namespace {

using namespace ofmtl;

[[noreturn]] void usage(const std::string& error = {}) {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr << "usage:\n"
               "  trace_export FILE.oftrace [-o FILE.json] [--summary]\n"
               "  trace_export --merge A.oftrace B.oftrace [...] [-o FILE]\n"
               "decodes OFTRACE1 dumps into chrome://tracing / Perfetto\n"
               "JSON (stdout unless -o); --summary prints per-slice latency\n"
               "histograms (p50/p99/p99.9) plus per-ring dropped/skipped\n"
               "counts; --merge aligns multiple processes on one timeline\n"
               "via their wall-clock anchors.\n";
  std::exit(2);
}

void print_summary(std::ostream& out, const obs::TraceDump& dump) {
  std::uint64_t records = 0, dropped = 0, skipped = 0;
  std::uint64_t cache_hits = 0, cache_revalidations = 0;
  std::vector<obs::DecodeStats> stats(dump.threads.size());
  for (std::size_t t = 0; t < dump.threads.size(); ++t) {
    for (const auto& event : obs::decode_thread(dump.threads[t], &stats[t])) {
      if (event.event == obs::TraceEvent::kCacheHits) {
        cache_hits += event.payload;
      } else if (event.event == obs::TraceEvent::kCacheRevalidations) {
        cache_revalidations += event.payload;
      }
    }
    records += dump.threads[t].records.size();
    dropped += dump.threads[t].dropped;
    skipped += stats[t].skipped_prefix;
  }
  out << "process " << (dump.process_name.empty() ? "?" : dump.process_name)
      << " (pid " << dump.pid << "): " << dump.threads.size()
      << " thread(s), " << records << " records, " << dropped
      << " overwritten, " << skipped << " decode-skipped\n";
  for (std::size_t t = 0; t < dump.threads.size(); ++t) {
    const auto& thread = dump.threads[t];
    out << "  tid " << thread.tid << " (" << thread.name << "): "
        << thread.records.size() << " records, " << thread.dropped
        << " overwritten, " << stats[t].skipped_prefix << " decode-skipped";
    if (stats[t].has_wall_offset) {
      out << ", wall-mono offset " << stats[t].wall_minus_mono_ns << " ns";
    }
    out << "\n";
  }
  out << "slice latencies (ns):\n";
  for (std::uint16_t id = 0;
       id < static_cast<std::uint16_t>(obs::TraceEvent::kEventCount); ++id) {
    const auto begin = static_cast<obs::TraceEvent>(id);
    if (obs::trace_event_kind(begin) != obs::TraceEventKind::kBegin) continue;
    const auto histogram = obs::slice_latency_histogram(
        dump, begin, obs::SliceFold::kPerSlice);
    if (histogram.total() == 0) continue;
    out << "  " << std::setw(12) << obs::trace_event_name(begin)
        << ": n=" << histogram.total()
        << " p50=" << histogram.quantile(0.50)
        << " p99=" << histogram.quantile(0.99)
        << " p99.9=" << histogram.quantile(0.999)
        << " mean=" << histogram.mean() << "\n";
  }
  // A publish nests its catch-up (waiting for the lagging side's readers
  // and replaying the previous publish) in its slice; the rest is the
  // apply of its own mods and the swap.
  const auto publish = obs::slice_latency_histogram(
      dump, obs::TraceEvent::kPublishBegin, obs::SliceFold::kPerSlice);
  const auto catch_up = obs::slice_latency_histogram(
      dump, obs::TraceEvent::kPublishCatchUpBegin, obs::SliceFold::kPerSlice);
  if (publish.total() != 0 && catch_up.total() == publish.total()) {
    out << "publish split (mean ns): catch-up=" << catch_up.mean()
        << " apply=" << publish.mean() - catch_up.mean() << "\n";
  }
  // Hits include stale entries the delta log revalidated after a publish.
  if (cache_hits != 0) {
    out << "flow cache: " << cache_hits << " hits, " << cache_revalidations
        << " revalidated ("
        << 100.0 * static_cast<double>(cache_revalidations) /
               static_cast<double>(cache_hits)
        << "% of hits)\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  std::vector<std::string> inputs;
  std::string output;
  bool summary = false;
  bool merge = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const auto& arg = args[i];
    if (arg == "-o" || arg == "--out") {
      if (++i >= args.size()) usage(arg + " needs a value");
      output = args[i];
    } else if (arg == "--summary") {
      summary = true;
    } else if (arg == "--merge") {
      merge = true;
    } else if (!arg.empty() && arg[0] != '-') {
      inputs.push_back(arg);
    } else {
      usage("unknown flag '" + arg + "'");
    }
  }
  if (inputs.empty()) usage("missing FILE.oftrace input");
  if (!merge && inputs.size() > 1) usage("multiple inputs need --merge");
  if (merge && inputs.size() < 2) usage("--merge needs at least two inputs");

  std::vector<obs::TraceDump> dumps;
  for (const auto& input : inputs) {
    obs::TraceDump dump;
    const auto status = obs::load_trace_dump(input, dump);
    if (status != obs::TraceLoadStatus::kOk) {
      std::cerr << "error: " << input << ": "
                << obs::trace_load_status_name(status) << "\n";
      return 1;
    }
    dumps.push_back(std::move(dump));
  }

  const auto render = [&](std::ostream& out) {
    if (merge) {
      obs::write_perfetto_json(out, dumps);
    } else {
      obs::write_perfetto_json(out, dumps.front());
    }
  };
  if (!output.empty()) {
    std::ofstream out(output);
    if (!out) {
      std::cerr << "error: cannot open " << output << "\n";
      return 1;
    }
    render(out);
    if (out.flush(); !out) {
      std::cerr << "error: write failed: " << output << "\n";
      return 1;
    }
    std::cerr << "wrote " << output << "\n";
  } else if (!summary) {
    render(std::cout);
  }
  if (summary) {
    for (const auto& dump : dumps) print_summary(std::cout, dump);
  }
  return 0;
}
