// Control-plane server benchmark: what does serving OFP over real loopback
// TCP cost? Three numbers, written to BENCH_ofp.json:
//   - ofp/flow_mods_per_sec: sustained flow-mod ingest through one
//     controller connection into the left-right classifier sink — batches
//     of adds+deletes, each round fenced by an echo barrier so the number
//     counts APPLIED mods, not bytes parked in socket buffers;
//   - ofp/session_setup_us: TCP connect + HELLO handshake latency until the
//     controller holds a steady session (mean over serial setups);
//   - ofp/echo_rtt_us: steady-state echo round trip through the event loop
//     (liveness probe cost, and the floor for barrier latency);
//   - ofp/role_change_us: ROLE_REQUEST round trip alternating master/slave
//     claims — the fixed cost a controller pays at every failover handoff.
//   - ofp/{decode,apply,ingest}_p99_over_p50: tail-over-median ratios of
//     the control-plane latency slices from the always-on trace rings
//     (read→decode→apply inside the event loop), the tail-distribution
//     companions to the mean throughput number. Decode is timed per frame,
//     apply per flow-mod and ingest per byte read, each unit weighing the
//     same: a read delivers however many frames the socket holds, so the
//     batch sizes (and per-batch times) follow the host's scheduling, not
//     the server. The ratios are within-run and gated by ceilings in CI;
//     the absolute quantiles are printed only.
// Loopback numbers are hardware-sensitive; CI gates them against the
// committed dev-container baseline only on matching hardware.
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/export.hpp"
#include "obs/tracer.hpp"
#include "ofp/server/flow_mod_sink.hpp"
#include "ofp/server/server.hpp"
#include "runtime/snapshot.hpp"
#include "support/ofp/fault_injection.hpp"

namespace {

using namespace ofmtl;
using namespace ofmtl::ofp;
using Clock = std::chrono::steady_clock;
using server::OfpServer;
using server::ServerConfig;
using testing::ScriptedController;

constexpr std::size_t kModsPerRound = 2048;
constexpr auto kModMeasure = std::chrono::milliseconds(600);
constexpr std::size_t kSetupIterations = 200;
constexpr std::size_t kEchoIterations = 500;

MultiTableLookup make_tables() {
  MultiTableLookup tables;
  tables.add_table(LookupTable({FieldId::kEthDst}, {}));
  return tables;
}

std::vector<std::uint8_t> mod_frame(std::uint32_t xid, std::uint32_t id,
                                    FlowModCommand command) {
  FlowModMsg mod;
  mod.command = command;
  mod.table_id = 0;
  mod.entry.id = id;
  mod.entry.priority = 1;
  mod.entry.match.set(FieldId::kEthDst, FieldMatch::exact(std::uint64_t{id}));
  mod.entry.instructions = output_instruction(1);
  return encode({xid, mod});
}

/// Sustained flow-mod ingest: rounds of (add all, delete all) so the table
/// returns to empty and the loop can run forever, one barrier per phase.
double measure_flow_mods_per_sec(OfpServer& server) {
  ScriptedController controller;
  if (!controller.connect(server.port())) return 0.0;

  std::uint64_t applied = 0;
  const auto start = Clock::now();
  while (Clock::now() - start < kModMeasure) {
    for (const auto command :
         {FlowModCommand::kAdd, FlowModCommand::kDelete}) {
      for (std::uint32_t id = 1; id <= kModsPerRound; ++id) {
        if (!controller.send(mod_frame(controller.next_xid(), id, command))) {
          return 0.0;
        }
      }
      if (!controller.barrier().ok) return 0.0;
      applied += kModsPerRound;
    }
  }
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  return static_cast<double>(applied) / elapsed_s;
}

double measure_session_setup_us(OfpServer& server) {
  const auto start = Clock::now();
  std::size_t ok = 0;
  for (std::size_t i = 0; i < kSetupIterations; ++i) {
    ScriptedController controller;
    if (controller.connect(server.port())) ok++;
  }
  if (ok == 0) return 0.0;
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
             .count() /
         static_cast<double>(ok);
}

double measure_role_change_us(OfpServer& server) {
  ScriptedController controller;
  if (!controller.connect(server.port())) return 0.0;
  const auto start = Clock::now();
  std::size_t ok = 0;
  std::uint64_t generation = 1;
  for (std::size_t i = 0; i < kEchoIterations; ++i) {
    const auto role = i % 2 == 0 ? Role::kMaster : Role::kSlave;
    if (controller.request_role(role, generation++).has_value()) ok++;
  }
  if (ok == 0) return 0.0;
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
             .count() /
         static_cast<double>(ok);
}

double measure_echo_rtt_us(OfpServer& server) {
  ScriptedController controller;
  if (!controller.connect(server.port())) return 0.0;
  const auto start = Clock::now();
  std::size_t ok = 0;
  for (std::size_t i = 0; i < kEchoIterations; ++i) {
    if (controller.barrier().ok) ok++;
  }
  if (ok == 0) return 0.0;
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
             .count() /
         static_cast<double>(ok);
}

}  // namespace

int main() {
  bench::print_heading("OFP control-plane server (loopback TCP)");

  runtime::SnapshotClassifier classifier(make_tables());
  ServerConfig config;
  config.session.echo_interval_ms = 30'000;
  OfpServer server(server::make_classifier_sink(classifier), config);
  if (!server.start()) {
    std::cerr << "bench_ofp_server: server failed to start\n";
    return 1;
  }

  // Trace the flow-mod phase: its decode/apply slices are the tail metrics.
  // A 1M-record ring comfortably holds the whole measured window, so the
  // quantiles see every slice, not a survivor sample.
  obs::TraceOptions trace_options;
  trace_options.ring_capacity = std::size_t{1} << 20;
  obs::start_tracing(trace_options);
  const double mods_per_sec = measure_flow_mods_per_sec(server);
  obs::stop_tracing();
  const obs::TraceDump trace = obs::collect_tracing();

  const double setup_us = measure_session_setup_us(server);
  const double echo_us = measure_echo_rtt_us(server);
  const double role_us = measure_role_change_us(server);
  const auto stats = server.stats();
  server.stop();

  const auto decode_hist = obs::slice_latency_histogram(
      trace, obs::TraceEvent::kOfpDecodeBegin, obs::SliceFold::kPerSlice);
  const auto apply_hist = obs::slice_latency_histogram(
      trace, obs::TraceEvent::kOfpApplyBegin, obs::SliceFold::kEveryUnit);
  const auto ingest_hist = obs::slice_latency_histogram(
      trace, obs::TraceEvent::kOfpReadBegin, obs::SliceFold::kEveryUnit);
  const auto tail_ratio = [](const obs::LogHistogram& histogram) {
    const auto p50 = histogram.quantile(0.50);
    return p50 == 0 ? 0.0
                    : static_cast<double>(histogram.quantile(0.99)) /
                          static_cast<double>(p50);
  };

  std::cout << "flow-mod ingest   " << mods_per_sec << " mods/s (batched, "
            << "barrier-fenced)\n"
            << "session setup     " << setup_us << " us (connect + HELLO)\n"
            << "echo round trip   " << echo_us << " us\n"
            << "role change       " << role_us << " us (fenced claim RTT)\n"
            << "server counters   frames_rx=" << stats.frames_rx
            << " frames_tx=" << stats.frames_tx
            << " flow_mods_ok=" << stats.flow_mods_ok
            << " failed=" << stats.flow_mods_failed << "\n"
            << "decode per frame  n=" << decode_hist.total()
            << " p50=" << decode_hist.quantile(0.50)
            << " p99=" << decode_hist.quantile(0.99) << " ns\n"
            << "apply per mod     n=" << apply_hist.total()
            << " p50=" << apply_hist.quantile(0.50)
            << " p99=" << apply_hist.quantile(0.99) << " ns\n"
            << "ingest per byte   n=" << ingest_hist.total()
            << " p50=" << ingest_hist.quantile(0.50)
            << " p99=" << ingest_hist.quantile(0.99) << " ns\n";

  if (mods_per_sec == 0.0 || setup_us == 0.0 || echo_us == 0.0 ||
      role_us == 0.0) {
    std::cerr << "bench_ofp_server: a measurement failed\n";
    return 1;
  }
  if (decode_hist.total() == 0 || apply_hist.total() == 0) {
    std::cerr << "bench_ofp_server: trace slices missing\n";
    return 1;
  }

  auto metadata = bench::common_metadata();
  metadata.emplace_back("mods_per_round", std::to_string(kModsPerRound));
  metadata.emplace_back("setup_iterations", std::to_string(kSetupIterations));
  bench::write_bench_json(
      "ofp", "mixed",
      {{"ofp/flow_mods_per_sec", mods_per_sec},
       {"ofp/session_setup_us", setup_us},
       {"ofp/echo_rtt_us", echo_us},
       {"ofp/role_change_us", role_us},
       {"ofp/decode_p99_over_p50", tail_ratio(decode_hist)},
       {"ofp/apply_p99_over_p50", tail_ratio(apply_hist)},
       {"ofp/ingest_p99_over_p50", tail_ratio(ingest_hist)}},
      metadata);
  return 0;
}
