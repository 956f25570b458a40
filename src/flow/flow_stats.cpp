#include "flow/flow_stats.hpp"

namespace ofmtl {

void FlowStatsTracker::install(FlowRef flow, TimeoutConfig timeouts,
                               std::uint64_t now) {
  FlowStats stats;
  stats.installed_at = now;
  stats.last_used = now;
  flows_[flow] = {stats, timeouts};
}

void FlowStatsTracker::record(const ExecutionResult& result,
                              std::uint64_t bytes, std::uint64_t now) {
  const auto& matched = result.matched_entries;
  for (std::size_t k = 0; k < matched.size(); ++k) {
    const auto it = flows_.find({result.visited_tables[k], matched[k]});
    if (it == flows_.end()) continue;  // untracked (e.g. static) entry
    FlowStats& stats = it->second.stats;
    stats.packets += 1;
    stats.bytes += bytes;
    stats.last_used = now;
  }
}

std::vector<Expiry> FlowStatsTracker::expired(std::uint64_t now) const {
  std::vector<Expiry> result;
  for (const auto& [flow, tracked] : flows_) {
    const FlowStats& stats = tracked.stats;
    const TimeoutConfig& config = tracked.timeouts;
    const bool hard =
        config.hard_timeout != 0 && now >= stats.installed_at + config.hard_timeout;
    const bool idle =
        config.idle_timeout != 0 && now >= stats.last_used + config.idle_timeout;
    if (hard) {
      result.push_back({flow, Timeout::kHard});
    } else if (idle) {
      result.push_back({flow, Timeout::kIdle});
    }
  }
  return result;
}

}  // namespace ofmtl
