// Shared helpers for the benchmark/reproduction binaries: filter-set
// construction, field-search building, wall-clock timing, and the
// machine-readable JSON results the perf-trajectory tooling consumes.
#pragma once

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/field_search.hpp"
#include "flow/flow_entry.hpp"
#include "stats/report.hpp"
#include "workload/stanford_synth.hpp"

namespace ofmtl::bench {

/// Build the single-field search machinery (tries / LUT / ranges) for one
/// field of a filter set — the unit the memory figures are measured on.
inline FieldSearch build_field_search(const FilterSet& set, FieldId field,
                                      FieldSearchConfig config = {}) {
  FieldSearch search(field, std::move(config));
  for (const auto& entry : set.entries) {
    (void)search.add_rule(entry.match.get(field));
  }
  return search;
}

/// Wall-clock helper returning milliseconds.
template <typename Fn>
[[nodiscard]] double time_ms(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

/// Average nanoseconds per call over `iterations` invocations.
template <typename Fn>
[[nodiscard]] double time_per_call_ns(std::size_t iterations, Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iterations; ++i) fn(i);
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(end - start).count() /
         static_cast<double>(iterations);
}

inline void print_heading(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n\n";
}

/// Short git SHA of the checkout the binary runs inside, "unknown" when git
/// or the repository is unavailable (the build dir lives inside the repo, so
/// this works from wherever the bench is launched).
[[nodiscard]] inline std::string git_sha() {
  std::string sha = "unknown";
  // --dirty so numbers measured from an uncommitted tree are never
  // attributed to the clean parent commit.
  if (FILE* pipe = ::popen(
          "git describe --always --abbrev=12 --dirty 2>/dev/null", "r")) {
    char buffer[64];
    if (::fgets(buffer, sizeof buffer, pipe) != nullptr) {
      sha.assign(buffer);
      while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
        sha.pop_back();
      }
    }
    ::pclose(pipe);
    if (sha.empty()) sha = "unknown";
  }
  return sha;
}

/// Run metadata attached to every bench JSON so trajectory comparisons are
/// apples-to-apples: which commit, how many iterations, what batch size.
using BenchMetadata = std::vector<std::pair<std::string, std::string>>;

/// The metadata keys every bench shares; benches append their own (batch
/// size, warm-up, worker counts, ...).
[[nodiscard]] inline BenchMetadata common_metadata() {
  return {{"git_sha", git_sha()},
          {"hardware_threads",
           std::to_string(std::thread::hardware_concurrency())}};
}

/// Emit a flat metric map as `BENCH_<bench>.json` next to the binary:
/// {"bench": ..., "unit": ..., "metadata": {...}, "results": {name: value}}.
/// One file per bench binary, so successive PRs can diff perf trajectories
/// mechanically.
inline void write_bench_json(
    const std::string& bench, const std::string& unit,
    const std::vector<std::pair<std::string, double>>& results,
    const BenchMetadata& metadata = {}) {
  const std::string path = "BENCH_" + bench + ".json";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "error: could not open " << path << " for writing\n";
    return;
  }
  out << "{\n  \"bench\": \"" << bench << "\",\n  \"unit\": \"" << unit
      << "\",\n";
  out << "  \"metadata\": {\n";
  for (std::size_t i = 0; i < metadata.size(); ++i) {
    out << "    \"" << metadata[i].first << "\": \"" << metadata[i].second
        << "\"" << (i + 1 < metadata.size() ? ",\n" : "\n");
  }
  out << "  },\n  \"results\": {\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    out << "    \"" << results[i].first << "\": " << std::fixed
        << std::setprecision(2) << results[i].second
        << (i + 1 < results.size() ? ",\n" : "\n");
  }
  out << "  }\n}\n";
  if (out.flush(); !out) {
    std::cerr << "error: failed writing " << path << "\n";
    return;
  }
  std::cout << "wrote " << path << "\n";
}

}  // namespace ofmtl::bench
