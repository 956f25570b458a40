#include "ofp/server/flow_mod_sink.hpp"

namespace ofmtl::ofp::server {

ErrorCode error_code(FlowModStatus status) {
  switch (status) {
    case FlowModStatus::kOk: return ErrorCode::kNone;
    case FlowModStatus::kBadTable: return ErrorCode::kBadTableId;
    case FlowModStatus::kBadMatch: return ErrorCode::kBadField;
    case FlowModStatus::kBadGoto: return ErrorCode::kBadGotoTable;
    case FlowModStatus::kBadAction: return ErrorCode::kBadSetArgument;
    case FlowModStatus::kDuplicateEntry: return ErrorCode::kDuplicateEntry;
    case FlowModStatus::kUnknownEntry: return ErrorCode::kUnknownEntry;
  }
  return ErrorCode::kBadValue;
}

void apply_mods(MultiTableLookup& tables, std::span<const PendingFlowMod> mods,
                std::span<ErrorCode> results) {
  for (std::size_t i = 0; i < mods.size(); ++i) {
    const auto& mod = mods[i].mod;
    results[i] = error_code(tables.apply(mod.command, mod.table_id, mod.entry));
  }
}

FlowModSink make_classifier_sink(runtime::SnapshotClassifier& classifier) {
  return [&classifier](std::span<const PendingFlowMod> mods,
                       std::span<ErrorCode> results) {
    // One publish per batch. update() runs the mutate once; the other side
    // replays its kOk applies at the next publish, so each result is
    // written once.
    classifier.update([mods, results](MultiTableLookup& tables) {
      apply_mods(tables, mods, results);
    });
  };
}

}  // namespace ofmtl::ofp::server
