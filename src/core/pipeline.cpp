#include "core/pipeline.hpp"

#include <algorithm>

namespace ofmtl {

FlowModStatus MultiTableLookup::apply(FlowModCommand command,
                                      std::size_t table,
                                      const FlowEntry& entry) {
  if (table >= tables_.size()) return FlowModStatus::kBadTable;
  LookupTable& target = tables_[table];
  const DeltaRecord removal{.removed = entry.id,
                            .table = static_cast<std::uint8_t>(table)};
  if (command == FlowModCommand::kDelete) {
    if (!target.remove_entry(entry.id)) return FlowModStatus::kUnknownEntry;
    append(removal);
    record_op(command, table, entry);
    return FlowModStatus::kOk;
  }
  const bool live = target.contains(entry.id);
  if (command == FlowModCommand::kAdd && live) {
    return FlowModStatus::kDuplicateEntry;
  }
  if (command == FlowModCommand::kModify && !live) {
    return FlowModStatus::kUnknownEntry;
  }
  if (!target.accepts(entry.match)) return FlowModStatus::kBadMatch;
  // Goto must move forward and stay inside the pipeline, or every packet
  // the entry matches would fail (or silently end) at lookup time.
  if (const auto next = entry.instructions.goto_table;
      next && (*next <= table || *next >= tables_.size())) {
    return FlowModStatus::kBadGoto;
  }
  // A Set-Field value wider than its field is one no header can carry: a
  // later table would search on it (the range matcher throws, the tries see
  // only its low bits), and the final header would hold it.
  const auto overwide = [](const Action& action) {
    const auto* set = std::get_if<SetFieldAction>(&action);
    return set != nullptr && (set->value >> field_bits(set->field)) != U128{};
  };
  const auto& ins = entry.instructions;
  if (std::ranges::any_of(ins.apply_actions, overwide) ||
      std::ranges::any_of(ins.write_actions, overwide)) {
    return FlowModStatus::kBadAction;
  }

  // Every check passed: mutate, logging each step for the flow cache.
  if (command == FlowModCommand::kModify) {
    (void)target.remove_entry(entry.id);
    append(removal);
  }
  DeltaRecord record;
  record.table = static_cast<std::uint8_t>(table);
  record.inserted = true;
  // Only the table's own fields: accepts() rejected constraints on others.
  for (const FieldId id : target.fields()) {
    if (record.tests == kMaxKeyTests) break;
    const FieldMatch& match = entry.match.get(id);
    // Metadata is rewritten between tables by Write-Metadata, so a test on
    // the packet's own metadata would say nothing: leave it wildcarded.
    if (id == FieldId::kMetadata || match.kind == MatchKind::kAny) continue;
    KeyTest& test = record.key[record.tests++];
    test.field = id;
    switch (match.kind) {
      case MatchKind::kExact:
        test.lo = match.value;
        test.hi = ~U128{};
        break;
      case MatchKind::kPrefix:
        test.lo = match.prefix.value();
        test.hi = high_mask128(match.prefix.length()) >>
                  (128 - match.prefix.width());
        break;
      case MatchKind::kRange:
        test.range = true;
        test.lo = U128{match.range.lo};
        test.hi = U128{match.range.hi};
        break;
      case MatchKind::kMasked:
        test.lo = match.value;
        test.hi = match.mask;
        break;
      case MatchKind::kAny:
        break;
    }
  }
  (void)target.insert_entry(entry);
  append(record);
  record_op(command, table, entry);
  return FlowModStatus::kOk;
}

void MultiTableLookup::set_group_table(const GroupTable* groups) {
  groups_ = groups;
  raise_log_floor();
  if (recorder_ == nullptr) return;
  OpLog::Op& op = recorder_->next_slot();
  op.groups = true;
  op.group_table = groups;
}

void MultiTableLookup::record_op(FlowModCommand command, std::size_t table,
                                 const FlowEntry& entry) {
  if (recorder_ == nullptr) return;
  // Assigning into a reused slot reuses its entry's buffers.
  OpLog::Op& op = recorder_->next_slot();
  op.groups = false;
  op.command = command;
  op.table = table;
  op.entry = entry;
}

MultiTableLookup::OpLog::Op& MultiTableLookup::OpLog::next_slot() {
  if (size_ == ops_.size()) ops_.emplace_back();
  return ops_[size_++];
}

bool MultiTableLookup::replay(const OpLog& log) {
  for (std::size_t i = 0; i < log.size_; ++i) {
    const OpLog::Op& op = log.ops_[i];
    if (op.groups) {
      set_group_table(op.group_table);
    } else if (apply(op.command, op.table, op.entry) != FlowModStatus::kOk) {
      return false;
    }
  }
  return true;
}

void MultiTableLookup::append(const DeltaRecord& record) {
  if (log_.ring.empty()) log_.ring.resize(kDeltaLogRecords);
  DeltaRecord& slot = log_.ring[log_.next];
  if (log_.size == kDeltaLogRecords) {
    // Overwriting the oldest record: stamps before it lose their history.
    log_.floor = std::max(log_.floor, slot.epoch);
  } else {
    ++log_.size;
  }
  slot = record;
  slot.epoch = log_.epoch;
  log_.next = (log_.next + 1) % kDeltaLogRecords;
}

void MultiTableLookup::restart_log(std::uint64_t epoch) {
  log_.next = 0;
  log_.size = 0;
  log_.epoch = epoch;
  log_.floor = epoch;
}

bool MultiTableLookup::still_valid(const PacketHeader& key,
                                   const ExecutionResult& result,
                                   std::uint64_t stamp) const {
  if (stamp < log_.floor) return false;
  const auto& visited = result.visited_tables;
  const auto& matched = result.matched_entries;
  // Visited tables from this position on may have matched a key that an
  // earlier table's Apply-Actions Set-Field rewrote.
  std::size_t rewritten_from = visited.size();
  for (std::size_t k = 0; k + 1 < visited.size(); ++k) {
    if (tables_[visited[k]].rewrites_header()) {
      rewritten_from = k + 1;
      break;
    }
  }
  std::size_t slot = log_.next;
  for (std::size_t n = 0; n < log_.size; ++n) {
    slot = (slot == 0 ? kDeltaLogRecords : slot) - 1;
    const DeltaRecord& record = log_.ring[slot];
    if (record.epoch <= stamp) break;  // the result already saw the rest
    const auto at = std::find(visited.begin(), visited.end(), record.table);
    if (at == visited.end()) continue;  // a table the walk never reached
    const auto position = static_cast<std::size_t>(at - visited.begin());
    if (!record.inserted) {
      // Removing an entry the walk did not pick cannot change its pick.
      if (position < matched.size() && matched[position] == record.removed) {
        return false;
      }
      continue;
    }
    if (position >= rewritten_from) return false;
    bool matches = true;
    for (std::size_t t = 0; t < record.tests && matches; ++t) {
      const KeyTest& test = record.key[t];
      const U128 value = key.get(test.field);
      matches = test.range ? value.hi == 0 && test.lo.lo <= value.lo &&
                                 value.lo <= test.hi.lo
                           : (value & test.hi) == test.lo;
    }
    // The new rule may outrank the walk's pick, or fill its miss.
    if (matches) return false;
  }
  return true;
}

void MultiTableLookup::execute_batch(std::span<const PacketHeader> headers,
                                     std::span<ExecutionResult> results) const {
  static thread_local ExecBatchContext ctx;
  execute_tables_batch(*this, headers, results, ctx);
}

void MultiTableLookup::source_lookup_batch(
    std::size_t table, std::span<const PacketHeader* const> headers,
    std::span<const FlowEntry*> out) const {
  // ExecBatchContext lives in the flow layer, which cannot depend on core's
  // SearchContext, so the per-thread search scratch is owned here instead of
  // being threaded through the batch executor. Still allocation-free and
  // one-context-per-thread; it just outlives individual batch calls.
  static thread_local SearchContext ctx;
  tables_[table].lookup_batch(headers, out, ctx);
}

MultiTableLookup MultiTableLookup::compile(const ReferencePipeline& reference,
                                           FieldSearchConfig config) {
  MultiTableLookup pipeline;
  for (std::size_t t = 0; t < reference.table_count(); ++t) {
    pipeline.add_table(LookupTable::compile(reference.table(t), config));
  }
  return pipeline;
}

mem::MemoryReport MultiTableLookup::memory_report(const std::string& prefix) const {
  mem::MemoryReport report;
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    report.merge(tables_[t].memory_report(prefix + ".t" + std::to_string(t)), "");
  }
  return report;
}

std::uint64_t MultiTableLookup::update_words() const {
  std::uint64_t words = 0;
  for (const auto& table : tables_) words += table.update_words();
  return words;
}

}  // namespace ofmtl
