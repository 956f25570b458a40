// Trace replay CLI: the bytes-on-disk → classified-actions loop as a tool.
//
//   trace_replay synth --app mac_gozb --out trace.pcap [--flows 4096]
//       [--packets 65536] [--zipf 1.1] [--seed 99] [--nsec] [--swapped]
//     Generate a filter-set-driven packet stream (Zipf-skewed flow reuse
//     over a synthetic flow pool), wire-canonicalize it, and write a
//     classic pcap capture.
//
//   trace_replay run trace.pcap --app mac_gozb [--in-port auto|N]
//       [--workers 1] [--cache 8192] [--loops 1] [--batch 256] [--verify]
//       [--trace FILE.json] [--trace-raw FILE.oftrace]
//     Build the app's tables, parse the capture (trace::parse_capture),
//     submit it --loops times in --batch slices to the parallel runtime on
//     one ticket per pass, and report ns/packet, throughput, verdict mix,
//     and the flow-cache hit rate. --cache sizes each worker's flow cache
//     in slots (nonzero: the cache cannot be turned off). --verify
//     re-classifies every parsed header through the sequential pipeline
//     oracle and demands bitwise-identical results (exit 1 on mismatch).
//     --trace records the run through the per-worker trace rings and writes
//     chrome://tracing / Perfetto JSON (open in ui.perfetto.dev);
//     --trace-raw writes the compact OFTRACE1 binary for tools/trace_export
//     to decode later.
//
// Apps are named <app>_<router> over the calibrated Stanford sets, e.g.
// routing_yoza or mac_gozb. --in-port auto (the default) picks the first
// ingress port the filter set matches on, so routing traces walk the full
// two-table pipeline instead of missing at table 0.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/builder.hpp"
#include "net/packet.hpp"
#include "obs/export.hpp"
#include "obs/tracer.hpp"
#include "runtime/runtime.hpp"
#include "trace/pcap.hpp"
#include "trace/wire_parse.hpp"
#include "workload/stanford_synth.hpp"
#include "workload/trace_export.hpp"
#include "workload/trace_gen.hpp"
#include "workload/zipf.hpp"

namespace {

using namespace ofmtl;

[[noreturn]] void usage(const std::string& error = {}) {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      "usage:\n"
      "  trace_replay synth --app <app>_<router> --out FILE.pcap\n"
      "      [--flows N] [--packets N] [--zipf S] [--seed N] [--nsec]"
      " [--swapped]\n"
      "  trace_replay run FILE.pcap --app <app>_<router> [--in-port auto|N]\n"
      "      [--workers N] [--cache SLOTS] [--loops N] [--batch N] [--verify]\n"
      "      [--trace FILE.json] [--trace-raw FILE.oftrace]\n"
      "apps: routing_<router> | mac_<router>  (router: bbra ... yozb)\n";
  std::exit(2);
}

struct App {
  std::string tag;
  FilterSet set;
  MultiTableLookup tables;
};

App make_app(const std::string& tag) {
  const auto underscore = tag.find('_');
  if (underscore == std::string::npos) usage("bad --app '" + tag + "'");
  const std::string_view kind{tag.data(), underscore};
  const std::string_view router{tag.data() + underscore + 1};
  workload::FilterApp app;
  if (kind == "routing") {
    app = workload::FilterApp::kRouting;
  } else if (kind == "mac") {
    app = workload::FilterApp::kMacLearning;
  } else {
    usage("unknown app kind '" + std::string(kind) + "'");
  }
  try {
    auto set = workload::generate_filterset(app, router);
    auto tables = compile_app(build_app(set, TableLayout::kPerFieldTables));
    return App{tag, std::move(set), std::move(tables)};
  } catch (const std::exception& e) {
    usage(std::string("cannot build app: ") + e.what());
  }
}

std::uint64_t parse_u64(const std::string& text, const char* flag) {
  try {
    return std::stoull(text);
  } catch (const std::exception&) {
    usage(std::string("bad value for ") + flag + ": '" + text + "'");
  }
}

double parse_double(const std::string& text, const char* flag) {
  try {
    return std::stod(text);
  } catch (const std::exception&) {
    usage(std::string("bad value for ") + flag + ": '" + text + "'");
  }
}

int cmd_synth(const std::vector<std::string>& args) {
  std::string app_tag, out_path;
  std::size_t flows = 4096, packets = 65536;
  double zipf_s = 1.1;
  std::uint64_t seed = 99;
  workload::TraceExportConfig config;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const auto& arg = args[i];
    const auto value = [&]() -> const std::string& {
      if (++i >= args.size()) usage(arg + " needs a value");
      return args[i];
    };
    if (arg == "--app") app_tag = value();
    else if (arg == "--out") out_path = value();
    else if (arg == "--flows") flows = parse_u64(value(), "--flows");
    else if (arg == "--packets") packets = parse_u64(value(), "--packets");
    else if (arg == "--zipf") zipf_s = parse_double(value(), "--zipf");
    else if (arg == "--seed") seed = parse_u64(value(), "--seed");
    else if (arg == "--nsec") config.pcap.nanosecond = true;
    else if (arg == "--swapped") config.pcap.byte_swapped = true;
    else usage("unknown synth flag '" + arg + "'");
  }
  if (app_tag.empty() || out_path.empty()) usage("synth needs --app and --out");
  if (flows == 0 || packets == 0) usage("--flows/--packets must be nonzero");

  const App app = make_app(app_tag);
  const auto pool = workload::generate_trace(
      app.set, {.packets = flows, .hit_ratio = 0.9, .seed = 123});
  workload::ZipfSampler sampler(pool.size(), zipf_s, seed);
  std::vector<PacketHeader> stream;
  stream.reserve(packets);
  for (std::size_t i = 0; i < packets; ++i) stream.push_back(pool[sampler.next()]);

  const auto writer = workload::export_trace(stream, config);
  writer.save(out_path);
  std::cout << "wrote " << out_path << ": " << writer.record_count()
            << " records, " << writer.buffer().size() << " bytes ("
            << app.tag << ", " << flows << " flows, zipf s=" << zipf_s
            << ")\n";
  return 0;
}

int cmd_run(const std::vector<std::string>& args) {
  std::string pcap_path, app_tag, in_port_text = "auto";
  std::string trace_json_path, trace_raw_path;
  runtime::RuntimeConfig rt_config;
  std::size_t loops = 1, batch = 256;
  bool verify = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const auto& arg = args[i];
    const auto value = [&]() -> const std::string& {
      if (++i >= args.size()) usage(arg + " needs a value");
      return args[i];
    };
    if (arg == "--app") app_tag = value();
    else if (arg == "--in-port") in_port_text = value();
    else if (arg == "--workers") rt_config.workers = parse_u64(value(), "--workers");
    else if (arg == "--cache")
      rt_config.flow_cache_capacity = parse_u64(value(), "--cache");
    else if (arg == "--loops") loops = parse_u64(value(), "--loops");
    else if (arg == "--batch") batch = parse_u64(value(), "--batch");
    else if (arg == "--verify") verify = true;
    else if (arg == "--trace") trace_json_path = value();
    else if (arg == "--trace-raw") trace_raw_path = value();
    else if (!arg.empty() && arg[0] != '-' && pcap_path.empty()) pcap_path = arg;
    else usage("unknown run flag '" + arg + "'");
  }
  if (pcap_path.empty() || app_tag.empty()) usage("run needs FILE.pcap and --app");
  if (loops == 0 || batch == 0) usage("--loops/--batch must be nonzero");
  if (rt_config.flow_cache_capacity == 0) usage("--cache must be nonzero");

  App app = make_app(app_tag);
  const auto in_port =
      in_port_text == "auto"
          ? workload::capture_in_port(app.set)
          : static_cast<std::uint32_t>(parse_u64(in_port_text, "--in-port"));

  auto reader = trace::PcapReader::open(pcap_path);
  const auto capture = trace::parse_capture(reader, in_port);
  const auto& headers = capture.headers;
  std::cout << pcap_path << ": " << capture.frames << " frames ("
            << (reader.nanosecond() ? "nsec" : "usec")
            << (reader.byte_swapped() ? ", byte-swapped" : "") << "), "
            << capture.malformed << " malformed"
            << (reader.truncated() ? ", truncated tail skipped" : "")
            << "; in_port " << in_port << "\n";
  if (headers.empty()) {
    std::cerr << "error: no replayable packets\n";
    return 1;
  }

  // Keep a sequential oracle for --verify before the runtime takes the
  // tables (a full table clone — skip it when nothing will execute it).
  std::optional<MultiTableLookup> oracle;
  if (verify) oracle = app.tables.clone();
  const bool tracing = !trace_json_path.empty() || !trace_raw_path.empty();
  if (tracing) obs::start_tracing();
  runtime::ParallelRuntime rt(std::move(app.tables), rt_config);
  std::vector<ExecutionResult> results(headers.size());
  runtime::BatchTicket ticket;
  std::uint64_t spins = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t pass = 0; pass < loops; ++pass) {
    for (std::size_t base = 0; base < headers.size(); base += batch) {
      const std::size_t n = std::min(batch, headers.size() - base);
      spins += rt.submit(0, {headers.data() + base, n},
                         {results.data() + base, n}, &ticket);
    }
    ticket.wait();  // the next pass rewrites the same result lanes
  }
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  const auto worker_stats = rt.aggregate_stats();
  rt.stop();
  if (ticket.failed()) {
    std::cerr << "error: a batch lookup threw in a worker\n";
    return 1;
  }
  if (tracing) {
    obs::stop_tracing();
    const auto dump = obs::collect_tracing();
    std::uint64_t records = 0, dropped = 0;
    for (const auto& thread : dump.threads) {
      records += thread.records.size();
      dropped += thread.dropped;
    }
    if (!trace_raw_path.empty()) {
      obs::save_trace_dump(trace_raw_path, dump);
      std::cout << "trace: wrote " << trace_raw_path << " (OFTRACE1)\n";
    }
    if (!trace_json_path.empty()) {
      std::ofstream out(trace_json_path);
      obs::write_perfetto_json(out, dump);
      if (!out.flush()) {
        std::cerr << "error: cannot write " << trace_json_path << "\n";
        return 1;
      }
      std::cout << "trace: wrote " << trace_json_path
                << " (load in ui.perfetto.dev or chrome://tracing)\n";
    }
    std::cout << "trace: " << dump.threads.size() << " thread(s), " << records
              << " records, " << dropped << " overwritten\n";
  }

  std::uint64_t verdicts[3] = {};  // indexed by Verdict
  for (const auto& r : results) ++verdicts[static_cast<int>(r.verdict)];
  const std::size_t packets = loops * headers.size();
  std::cout << "replayed " << packets << " packets (" << loops << " loop(s), "
            << loops * ((headers.size() + batch - 1) / batch) << " batches) in "
            << elapsed.count() / 1e6 << " ms\n"
            << "  " << elapsed.count() / packets << " ns/packet, "
            << packets * 1e3 / elapsed.count() << " Mpps (" << rt_config.workers
            << " worker(s), backpressure spins " << spins << ")\n"
            << "  verdicts per pass: " << verdicts[0] << " forwarded, "
            << verdicts[1] << " dropped, " << verdicts[2] << " to-controller\n";
  const auto probes = worker_stats.cache_hits + worker_stats.cache_misses;
  std::cout << "  flow cache: "
            << 100.0 * static_cast<double>(worker_stats.cache_hits) /
                   static_cast<double>(std::max<std::uint64_t>(probes, 1))
            << "% hit rate (" << worker_stats.cache_hits << " hits, "
            << worker_stats.cache_misses << " misses, "
            << worker_stats.cache_evictions << " evictions, "
            << worker_stats.cache_epoch_invalidations << " invalidations, "
            << worker_stats.cache_revalidations << " revalidations, "
            << worker_stats.cache_admissions_declined
            << " admissions declined)\n";

  if (verify) {
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < headers.size(); ++i) {
      mismatches += results[i] != oracle->execute(headers[i]);
    }
    if (mismatches != 0) {
      std::cerr << "VERIFY FAIL: " << mismatches << " of " << headers.size()
                << " replayed results differ from the sequential oracle\n";
      return 1;
    }
    std::cout << "verify: " << headers.size()
              << " replayed results bitwise-identical to the sequential "
                 "pipeline oracle\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) usage();
  const std::string command = args.front();
  args.erase(args.begin());
  if (command == "synth") return cmd_synth(args);
  if (command == "run") return cmd_run(args);
  usage("unknown command '" + command + "'");
}
