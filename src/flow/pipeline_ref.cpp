#include "flow/pipeline_ref.hpp"

#include <stdexcept>

#include "obs/tracer.hpp"

namespace ofmtl {

std::string to_string(Verdict verdict) {
  switch (verdict) {
    case Verdict::kForwarded: return "forwarded";
    case Verdict::kDropped: return "dropped";
    case Verdict::kToController: return "to-controller";
  }
  throw std::logic_error("unknown Verdict");
}

namespace detail {

void ActionSet::write(const Action& action) {
  if (std::holds_alternative<OutputAction>(action)) {
    output = std::get<OutputAction>(action).port;
  } else if (std::holds_alternative<GroupAction>(action)) {
    group = std::get<GroupAction>(action).group_id;
  } else if (std::holds_alternative<SetFieldAction>(action)) {
    set_fields.push_back(std::get<SetFieldAction>(action));
  } else if (std::holds_alternative<DropAction>(action)) {
    dropped = true;
  }
  // Push/Pop VLAN only affect the byte codec, not the match-field view the
  // simulator tracks beyond vlan id removal; treated as Set-Field by users.
}

}  // namespace detail

namespace {

/// Deterministic per-packet hash for SELECT bucket choice (the ECMP flow
/// hash: addresses + ports + protocol).
[[nodiscard]] std::uint64_t packet_hash(const PacketHeader& header) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h = (h ^ v) * 0x100000001B3ULL;
  };
  mix(header.get64(FieldId::kEthSrc));
  mix(header.get64(FieldId::kEthDst));
  mix(header.get64(FieldId::kIpv4Src));
  mix(header.get64(FieldId::kIpv4Dst));
  mix(header.get(FieldId::kIpv6Src).lo);
  mix(header.get(FieldId::kIpv6Dst).lo);
  mix(header.get64(FieldId::kSrcPort));
  mix(header.get64(FieldId::kDstPort));
  mix(header.get64(FieldId::kIpProto));
  return h;
}

/// Collect the Output ports of one bucket into the result.
void execute_bucket(const GroupBucket& bucket, ExecutionResult& result) {
  for (const auto& action : bucket.actions) {
    if (const auto* out = std::get_if<OutputAction>(&action)) {
      result.output_ports.push_back(out->port);
    }
  }
}

}  // namespace

void PacketRun::begin(const PacketHeader& header, ExecutionResult& out) {
  out.verdict = Verdict::kDropped;
  out.output_ports.clear();
  out.matched_entries.clear();
  out.visited_tables.clear();
  out.final_header = header;
  action_set_.clear();
  out_ = &out;
  table_ = 0;
  state_ = State::kRunning;
}

void PacketRun::apply(const FlowEntry* entry) {
  ExecutionResult& result = *out_;
  result.visited_tables.push_back(static_cast<std::uint8_t>(table_));
  if (entry == nullptr) {
    // Table miss: the paper's architecture sends the packet to the
    // controller (Section IV.C). The action set is NOT executed.
    result.verdict = Verdict::kToController;
    state_ = State::kMissed;
    return;
  }
  result.matched_entries.push_back(entry->id);

  const InstructionSet& ins = entry->instructions;
  for (const auto& action : ins.apply_actions) {
    if (std::holds_alternative<SetFieldAction>(action)) {
      const auto& sf = std::get<SetFieldAction>(action);
      result.final_header.set(sf.field, sf.value);
    } else if (std::holds_alternative<OutputAction>(action)) {
      result.output_ports.push_back(std::get<OutputAction>(action).port);
    }
  }
  if (ins.clear_actions) action_set_.clear();
  for (const auto& action : ins.write_actions) action_set_.write(action);
  if (ins.write_metadata) {
    const auto& wm = *ins.write_metadata;
    const std::uint64_t old = result.final_header.metadata();
    result.final_header.set_metadata((old & ~wm.mask) | (wm.value & wm.mask));
  }

  if (!ins.goto_table) {  // pipeline ends; execute the action set
    state_ = State::kEnded;
    return;
  }
  if (*ins.goto_table <= table_) {
    throw std::logic_error("Goto-Table must move forward");
  }
  table_ = *ins.goto_table;
}

void PacketRun::finish(const TableLookupSource& source) {
  if (state_ == State::kMissed) return;  // verdict already kToController
  state_ = State::kEnded;
  ExecutionResult& result = *out_;

  // Execute the accumulated action set. A Group action takes precedence
  // over Output (OpenFlow 5.10).
  for (const auto& sf : action_set_.set_fields) {
    result.final_header.set(sf.field, sf.value);
  }
  if (!action_set_.dropped && action_set_.group) {
    const GroupTable* groups = source.source_groups();
    const Group* group =
        groups == nullptr ? nullptr : groups->find(*action_set_.group);
    if (group != nullptr) {
      switch (group->type) {
        case GroupType::kAll:
          for (const auto& bucket : group->buckets) {
            execute_bucket(bucket, result);
          }
          break;
        case GroupType::kSelect:
          execute_bucket(
              GroupTable::select_bucket(*group, packet_hash(result.final_header)),
              result);
          break;
        case GroupType::kIndirect:
          execute_bucket(group->buckets.front(), result);
          break;
      }
    }
    // A dangling group reference drops the packet (no ports collected).
  } else if (!action_set_.dropped && action_set_.output) {
    result.output_ports.push_back(*action_set_.output);
  }
  result.verdict =
      result.output_ports.empty() ? Verdict::kDropped : Verdict::kForwarded;
  if (action_set_.dropped) result.verdict = Verdict::kDropped;
}

ExecutionResult execute_tables(const TableLookupSource& source,
                               const PacketHeader& header) {
  ExecutionResult result;
  PacketRun run;
  run.begin(header, result);
  while (run.running() && run.table() < source.source_table_count()) {
    run.apply(source.source_lookup(run.table(), run.current_header()));
  }
  run.finish(source);
  return result;
}

namespace {

/// Walks ctx.runs[0, n), each already begun on its packet, through every
/// table stage, then finishes them.
void run_table_stages(const TableLookupSource& source, std::size_t n,
                      ExecBatchContext& ctx) {
  // Goto-Table only moves forward, so one sweep over the tables visits every
  // packet's whole walk: at each table, batch-look-up exactly the packets
  // currently parked there.
  for (std::size_t t = 0; t < source.source_table_count(); ++t) {
    ctx.lanes.clear();
    ctx.headers.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (ctx.runs[i].running() && ctx.runs[i].table() == t) {
        ctx.lanes.push_back(static_cast<std::uint32_t>(i));
        ctx.headers.push_back(&ctx.runs[i].current_header());
      }
    }
    if (ctx.lanes.empty()) continue;
    OFMTL_OBS_EMIT(obs::TraceEvent::kStageBegin, t, ctx.lanes.size());
    if (ctx.entries.size() < ctx.lanes.size()) {
      ctx.entries.resize(ctx.lanes.size());
    }
    source.source_lookup_batch(
        t, {ctx.headers.data(), ctx.headers.size()},
        {ctx.entries.data(), ctx.lanes.size()});
    // The matched entries' instruction vectors live in separate heap blocks
    // the lookup never touched; pull them in ahead of the apply sweep.
    for (std::size_t lane = 0; lane < ctx.lanes.size(); ++lane) {
      if (const FlowEntry* entry = ctx.entries[lane]) {
        __builtin_prefetch(entry->instructions.apply_actions.data());
        __builtin_prefetch(entry->instructions.write_actions.data());
      }
    }
    for (std::size_t lane = 0; lane < ctx.lanes.size(); ++lane) {
      ctx.runs[ctx.lanes[lane]].apply(ctx.entries[lane]);
    }
    OFMTL_OBS_EMIT(obs::TraceEvent::kStageEnd, t, ctx.lanes.size());
  }
  for (std::size_t i = 0; i < n; ++i) ctx.runs[i].finish(source);
}

}  // namespace

void execute_tables_batch(const TableLookupSource& source,
                          std::span<const PacketHeader> headers,
                          std::span<ExecutionResult> results,
                          ExecBatchContext& ctx) {
  const std::size_t n = headers.size();
  if (results.size() < n) {
    throw std::invalid_argument("execute_tables_batch: results span too small");
  }
  if (ctx.runs.size() < n) ctx.runs.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    ctx.runs[i].begin(headers[i], results[i]);
  }
  run_table_stages(source, n, ctx);
}

void execute_tables_batch(const TableLookupSource& source,
                          std::span<const PacketHeader> headers,
                          std::span<ExecutionResult> results,
                          std::span<const std::uint32_t> lanes,
                          ExecBatchContext& ctx) {
  if (results.size() < headers.size()) {
    throw std::invalid_argument("execute_tables_batch: results span too small");
  }
  const std::size_t n = lanes.size();
  if (ctx.runs.size() < n) ctx.runs.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    if (lanes[j] >= headers.size()) {
      throw std::out_of_range("execute_tables_batch: lane out of range");
    }
    ctx.runs[j].begin(headers[lanes[j]], results[lanes[j]]);
  }
  run_table_stages(source, n, ctx);
}

}  // namespace ofmtl
