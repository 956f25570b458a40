// The controller channel: OpenFlow-style flow-mod messages applied to a
// switch model. A SwitchModel owns both the reference tables and the
// compiled decomposed pipeline and keeps them in lock-step, so flow-mods can
// be replayed against either surface and the equivalence invariant holds
// live (the Section V.B controller-update scenario as a library feature).
// The decomposed pipeline's MultiTableLookup::apply decides whether a mod
// applies; the reference tables and the counters follow only mods it
// accepted, so a rejected mod changes nothing.
#pragma once

#include <cstdint>
#include <vector>

#include "core/pipeline.hpp"
#include "flow/flow_stats.hpp"
#include "flow/pipeline_ref.hpp"

namespace ofmtl {

struct FlowMod {
  FlowModCommand command = FlowModCommand::kAdd;
  std::uint8_t table = 0;
  FlowEntry entry;            ///< full entry for Add/Modify; id only for Delete
  /// Tracked from the Add. A Modify keeps the entry's timeouts and counters
  /// (OpenFlow 1.3 section 6.4), so its own are ignored.
  TimeoutConfig timeouts{};
};

/// A switch with a control channel: reference tables (linear, the oracle)
/// plus the compiled decomposed pipeline, mutated together.
class SwitchModel {
 public:
  /// Construct with one field list per table.
  explicit SwitchModel(std::vector<std::vector<FieldId>> table_fields,
                       FieldSearchConfig config = {});

  /// Apply one flow-mod at virtual time `now`. Anything but kOk (unknown
  /// table, duplicate add, missing id, a match the table cannot hold, a
  /// backward or out-of-range Goto, an over-wide Set-Field value) leaves
  /// the switch unchanged.
  [[nodiscard]] FlowModStatus apply(const FlowMod& mod, std::uint64_t now = 0);

  /// Process a packet through the decomposed pipeline, updating counters.
  [[nodiscard]] ExecutionResult process(const PacketHeader& header,
                                        std::uint64_t bytes = 0,
                                        std::uint64_t now = 0);

  /// Process through the reference tables (no counter update) — used by
  /// equivalence checks.
  [[nodiscard]] ExecutionResult process_reference(const PacketHeader& header) const {
    return reference_.execute(header);
  }

  /// Remove all expired entries, each through a Delete apply(); returns
  /// them with the timeout that fired.
  std::vector<Expiry> sweep_timeouts(std::uint64_t now);

  /// Group-table configuration (shared by both pipelines).
  void add_group(Group group) { groups_.add(std::move(group)); }
  void modify_group(Group group) { groups_.modify(std::move(group)); }
  [[nodiscard]] const GroupTable& groups() const { return groups_; }

  [[nodiscard]] const MultiTableLookup& pipeline() const { return pipeline_; }
  [[nodiscard]] const ReferencePipeline& reference() const { return reference_; }
  [[nodiscard]] const FlowStatsTracker& stats() const { return stats_; }
  [[nodiscard]] std::size_t entry_count() const;

 private:
  ReferencePipeline reference_;
  MultiTableLookup pipeline_;
  GroupTable groups_;
  FlowStatsTracker stats_;
};

}  // namespace ofmtl
