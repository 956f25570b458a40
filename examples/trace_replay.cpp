// Trace replay end to end: synthesize a Zipf-skewed packet stream for a
// calibrated MAC-learning filter set, export it to a classic pcap capture,
// read the capture back, wire-parse it in allocation-free batches, and
// submit it to the parallel runtime and its flow cache — the full
// bytes-on-disk → classified-actions loop, verified against the
// sequential pipeline oracle. (`tools/trace_replay.cpp` is the same loop
// as a CLI over arbitrary capture files.)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <vector>

#include "core/builder.hpp"
#include "runtime/runtime.hpp"
#include "trace/pcap.hpp"
#include "trace/wire_parse.hpp"
#include "workload/stanford_synth.hpp"
#include "workload/trace_export.hpp"
#include "workload/trace_gen.hpp"
#include "workload/zipf.hpp"

int main() {
  using namespace ofmtl;

  // A calibrated filter set (VLAN ID + destination MAC) and its compiled
  // two-table pipeline.
  const auto set =
      workload::generate_filterset(workload::FilterApp::kMacLearning, "bbra");
  auto tables = compile_app(build_app(set, TableLayout::kPerFieldTables));

  // A skewed stream: 4096 packets reusing a pool of 256 flows, Zipf s=1.1
  // — the locality real switch traffic exhibits and the flow cache feeds
  // on.
  const auto pool = workload::generate_trace(
      set, {.packets = 256, .hit_ratio = 0.9, .seed = 1});
  workload::ZipfSampler sampler(pool.size(), 1.1, /*seed=*/2);
  std::vector<PacketHeader> stream;
  for (std::size_t i = 0; i < 4096; ++i) stream.push_back(pool[sampler.next()]);

  // Synthetic → pcap: each header is wire-canonicalized (see
  // spec_from_header) and serialized as one capture record.
  const char* path = "example_trace.pcap";
  workload::export_trace(stream).save(path);

  // pcap → headers: batched, allocation-free wire parse; malformed frames
  // would be counted and dropped here, like a NIC dropping runts.
  auto reader = trace::PcapReader::open(path);
  const auto capture = trace::parse_capture(reader, /*in_port=*/0);
  const auto& headers = capture.headers;
  std::cout << "capture: " << capture.frames << " frames ("
            << (reader.nanosecond() ? "nsec" : "usec") << " timestamps), "
            << capture.malformed << " malformed\n";

  // headers → actions: four passes in 128-header batches into a 1-worker
  // runtime with a 1024-slot flow cache. One ticket tracks a pass; the runtime's queue
  // capacity bounds the batches in flight.
  const MultiTableLookup oracle = tables.clone();
  runtime::ParallelRuntime rt(std::move(tables),
                              {.workers = 1, .flow_cache_capacity = 1024});
  std::vector<ExecutionResult> results(headers.size());
  constexpr std::size_t kBatch = 128, kLoops = 4;
  runtime::BatchTicket ticket;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t pass = 0; pass < kLoops; ++pass) {
    for (std::size_t base = 0; base < headers.size(); base += kBatch) {
      const std::size_t n = std::min(kBatch, headers.size() - base);
      rt.submit(0, {headers.data() + base, n}, {results.data() + base, n},
                &ticket);
    }
    ticket.wait();  // the next pass rewrites the same result lanes
  }
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  const auto workers = rt.aggregate_stats();
  rt.stop();

  const auto packets = static_cast<double>(kLoops * headers.size());
  std::cout << "replayed " << kLoops * headers.size() << " packets in "
            << elapsed.count() / 1e6 << " ms (" << elapsed.count() / packets
            << " ns/packet); flow-cache hit rate "
            << 100.0 * static_cast<double>(workers.cache_hits) /
                   static_cast<double>(workers.cache_hits +
                                       workers.cache_misses)
            << "%\n";

  // The replayed results are bitwise-identical to the sequential pipeline.
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i] != oracle.execute(headers[i])) ++mismatches;
  }
  std::cout << (mismatches == 0 ? "verified: replay matches the pipeline "
                                  "oracle bitwise\n"
                                : "MISMATCH\n");
  std::remove(path);
  return mismatches == 0 && !ticket.failed() ? 0 : 1;
}
