#include "ofp/agent.hpp"

#include "ofp/server/flow_mod_sink.hpp"

namespace ofmtl::ofp {

SwitchAgent::SwitchAgent(std::vector<std::vector<FieldId>> table_fields,
                         FieldSearchConfig config)
    : model_(std::move(table_fields), std::move(config)),
      // No liveness probes: the peer is in-process.
      session_(1, {.echo_interval_ms = 0},
               [this](std::span<const server::PendingFlowMod> mods,
                      std::span<ErrorCode> results) {
                 for (std::size_t i = 0; i < mods.size(); ++i) {
                   results[i] = apply(mods[i].mod);
                 }
               },
               0) {}

std::vector<std::vector<std::uint8_t>> SwitchAgent::handle_control(
    const std::vector<std::uint8_t>& bytes, std::uint64_t now) {
  now_ = now;
  session_.on_bytes(bytes, now);
  // The session queues a byte stream; callers take it back as frames.
  const auto output = session_.pending_output();
  server::FrameAssembler frames(output.size());
  (void)frames.push(output);
  session_.consume_output(output.size());
  std::vector<std::vector<std::uint8_t>> responses;
  std::vector<std::uint8_t> frame;
  while (frames.next(frame)) responses.push_back(frame);
  return responses;
}

FlowRemovedMsg SwitchAgent::flow_removed(FlowRef flow,
                                         FlowRemovedReason reason) const {
  FlowRemovedMsg removed{flow.id, flow.table, reason};
  if (const auto* stats = model_.stats().find(flow)) {
    removed.packets = stats->packets;
    removed.bytes = stats->bytes;
  }
  return removed;
}

ErrorCode SwitchAgent::apply(const FlowModMsg& mod) {
  const FlowRef flow{mod.table_id, mod.entry.id};
  std::optional<FlowRemovedMsg> removed;
  if (mod.command == FlowModCommand::kDelete && notify_removed_.contains(flow)) {
    // Stats snapshot must precede the apply, which erases them.
    removed = flow_removed(flow, FlowRemovedReason::kDelete);
  }
  const auto code = server::error_code(model_.apply(
      {mod.command, mod.table_id, mod.entry, mod.timeouts}, now_));
  if (code != ErrorCode::kNone) return code;
  if (removed) {
    session_.send(encode({next_xid(), *removed}), now_);
    notify_removed_.erase(flow);
  } else if (mod.command == FlowModCommand::kAdd && mod.send_flow_removed) {
    // Only an Add sets the flag: a Modify leaves the entry's flags as they
    // were (OpenFlow 1.3 section 6.4).
    notify_removed_.insert(flow);
  }
  return code;
}

SwitchAgent::DataResult SwitchAgent::handle_frame(
    const std::vector<std::uint8_t>& frame, std::uint32_t in_port,
    std::uint64_t now) {
  PacketHeader header;
  if (!parse_packet_header(frame, in_port, header)) return {};
  DataResult result{model_.process(header, frame.size(), now), {}};
  if (result.execution.verdict == Verdict::kToController) {
    PacketIn packet_in;
    packet_in.table_id = result.execution.visited_tables.empty()
                             ? 0
                             : result.execution.visited_tables.back();
    packet_in.reason = PacketInReason::kNoMatch;
    packet_in.in_port = in_port;
    packet_in.frame = frame;
    result.packet_in = encode({next_xid(), packet_in});
  }
  return result;
}

std::vector<std::vector<std::uint8_t>> SwitchAgent::sweep(std::uint64_t now) {
  // Stats snapshots must be taken before the sweep erases them.
  std::vector<FlowRemovedMsg> removed;
  for (const auto& [flow, timeout] : model_.stats().expired(now)) {
    if (notify_removed_.erase(flow) == 0) continue;
    removed.push_back(flow_removed(flow, timeout == Timeout::kHard
                                             ? FlowRemovedReason::kHardTimeout
                                             : FlowRemovedReason::kIdleTimeout));
  }
  (void)model_.sweep_timeouts(now);
  std::vector<std::vector<std::uint8_t>> notifications;
  for (const auto& msg : removed) {
    notifications.push_back(encode({next_xid(), msg}));
  }
  return notifications;
}

}  // namespace ofmtl::ofp
