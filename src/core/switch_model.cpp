#include "core/switch_model.hpp"

namespace ofmtl {

SwitchModel::SwitchModel(std::vector<std::vector<FieldId>> table_fields,
                         FieldSearchConfig config) {
  for (auto& fields : table_fields) {
    reference_.add_table(FlowTable{});
    pipeline_.add_table(LookupTable{std::move(fields), {}, config});
  }
  // Both execution surfaces resolve Group actions through the same table,
  // keeping the equivalence invariant intact.
  reference_.set_group_table(&groups_);
  pipeline_.set_group_table(&groups_);
}

FlowModStatus SwitchModel::apply(const FlowMod& mod, std::uint64_t now) {
  const auto status = pipeline_.apply(mod.command, mod.table, mod.entry);
  if (status != FlowModStatus::kOk) return status;
  FlowTable& reference = reference_.table(mod.table);
  const FlowRef flow{mod.table, mod.entry.id};
  switch (mod.command) {
    case FlowModCommand::kAdd:
      reference.insert(mod.entry);
      stats_.install(flow, mod.timeouts, now);
      break;
    case FlowModCommand::kModify:
      // Modify = delete + add in the reference; the tracked timeouts and
      // counters stay as the Add set them (OpenFlow 1.3 section 6.4).
      reference.remove(mod.entry.id);
      reference.insert(mod.entry);
      break;
    case FlowModCommand::kDelete:
      reference.remove(mod.entry.id);
      stats_.erase(flow);
      break;
  }
  return status;
}

ExecutionResult SwitchModel::process(const PacketHeader& header,
                                     std::uint64_t bytes, std::uint64_t now) {
  auto result = pipeline_.execute(header);
  stats_.record(result, bytes, now);
  return result;
}

std::vector<Expiry> SwitchModel::sweep_timeouts(std::uint64_t now) {
  const auto victims = stats_.expired(now);
  for (const auto& [flow, timeout] : victims) {
    FlowMod del;
    del.command = FlowModCommand::kDelete;
    del.table = flow.table;
    del.entry.id = flow.id;
    (void)apply(del, now);
  }
  return victims;
}

std::size_t SwitchModel::entry_count() const {
  std::size_t count = 0;
  for (std::size_t t = 0; t < pipeline_.table_count(); ++t) {
    count += pipeline_.table(t).entry_count();
  }
  return count;
}

}  // namespace ofmtl
