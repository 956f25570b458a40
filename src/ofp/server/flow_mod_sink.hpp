// FlowModSink adapters: where a session's decoded flow-mod batches land.
//
// The production sink funnels each batch through the left-right
// SnapshotClassifier as ONE coalesced update() — one publish (one O(delta)
// apply, plus the replay of the previous batch onto the other side) per
// batch, not per mod — so sustained control churn from many controllers
// costs the data path at most one epoch bump per batch and readers stay
// lock-free throughout (the publisher never blocks them; see
// docs/ARCHITECTURE.md "Left-right snapshot publish").
//
// Every sink decides per mod through MultiTableLookup::apply, directly or
// through SwitchModel::apply (the in-process SwitchAgent), and answers with
// error_code() of its status: a controller's bad mod earns an ERROR reply
// and changes nothing, never an exception across the event loop.
#pragma once

#include "core/pipeline.hpp"
#include "ofp/server/session.hpp"
#include "runtime/snapshot.hpp"

namespace ofmtl::ofp::server {

/// The OFP error code a flow-mod's apply status answers with: kNone on
/// kOk, kDuplicateEntry / kUnknownEntry for id conflicts, and kBadTableId,
/// kBadField, kBadGotoTable or kBadSetArgument for a bad table, match, Goto
/// or Set-Field value.
[[nodiscard]] ErrorCode error_code(FlowModStatus status);

/// Sink over the left-right publisher. `classifier` must outlive the server.
/// Thread-safe: the classifier serializes writers internally.
[[nodiscard]] FlowModSink make_classifier_sink(
    runtime::SnapshotClassifier& classifier);

/// Apply one batch against a bare MultiTableLookup, mod by mod in order —
/// the shared core of the classifier sink and of oracle construction in
/// tests and the soak tool. `results` must be mods.size() long and receives
/// error_code(tables.apply(...)) per mod. Deterministic: same tables + same
/// batch == same results and same final state.
void apply_mods(MultiTableLookup& tables,
                std::span<const PendingFlowMod> mods,
                std::span<ErrorCode> results);

}  // namespace ofmtl::ofp::server
