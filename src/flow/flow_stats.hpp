// Per-flow counters and timeout expiry — the OpenFlow flow-entry statistics
// substrate (packet/byte counters, idle and hard timeouts) driven by
// ExecutionResults, so it works identically over the reference pipeline and
// the accelerated one. Time is a caller-supplied virtual clock (ticks).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "flow/pipeline_ref.hpp"

namespace ofmtl {

struct FlowStats {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint64_t installed_at = 0;
  std::uint64_t last_used = 0;
};

struct TimeoutConfig {
  std::uint32_t idle_timeout = 0;  ///< 0 = never idle-expires
  std::uint32_t hard_timeout = 0;  ///< 0 = never hard-expires
  friend bool operator==(const TimeoutConfig&, const TimeoutConfig&) = default;
};

/// One flow entry of a pipeline. Entry ids are unique only within a table,
/// so per-flow state is keyed by both.
struct FlowRef {
  std::uint8_t table = 0;
  FlowEntryId id = 0;
  friend bool operator==(const FlowRef&, const FlowRef&) = default;
};

/// Which timeout expired an entry.
enum class Timeout : std::uint8_t { kIdle, kHard };

/// One expired entry and the timeout that fired (kHard when both did).
struct Expiry {
  FlowRef flow;
  Timeout timeout = Timeout::kIdle;
  friend bool operator==(const Expiry&, const Expiry&) = default;
};

struct FlowRefHash {
  [[nodiscard]] std::size_t operator()(const FlowRef& flow) const noexcept {
    return std::hash<std::uint64_t>{}(std::uint64_t{flow.table} << 32 | flow.id);
  }
};

class FlowStatsTracker {
 public:
  /// Register an installed entry at virtual time `now`.
  void install(FlowRef flow, TimeoutConfig timeouts, std::uint64_t now);

  /// Forget an entry (after eviction/deletion).
  void erase(FlowRef flow) { flows_.erase(flow); }

  /// Account one processed packet: every matched entry on the execution
  /// path (matched_entries[k] in table visited_tables[k]) counts the packet
  /// and refreshes its idle timer.
  void record(const ExecutionResult& result, std::uint64_t bytes,
              std::uint64_t now);

  [[nodiscard]] const FlowStats* find(FlowRef flow) const {
    const auto it = flows_.find(flow);
    return it == flows_.end() ? nullptr : &it->second.stats;
  }

  /// Entries whose idle or hard timeout has fired by `now`, each with the
  /// timeout that fired (the controller removes them from the tables and
  /// calls erase()).
  [[nodiscard]] std::vector<Expiry> expired(std::uint64_t now) const;

  [[nodiscard]] std::size_t tracked() const { return flows_.size(); }

 private:
  struct Tracked {
    FlowStats stats;
    TimeoutConfig timeouts;
  };
  std::unordered_map<FlowRef, Tracked, FlowRefHash> flows_;
};

}  // namespace ofmtl
