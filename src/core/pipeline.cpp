#include "core/pipeline.hpp"

#include <algorithm>
#include <bit>

#include "core/flat_hash.hpp"

namespace ofmtl {

namespace {

// Keys of a generation's epoch map. A collision only makes still_valid
// see a newer epoch than some key holds, so it can only answer false.
constexpr std::uint64_t kRemovalSeed = 0x72656D6F76616C00ULL;
constexpr std::uint64_t kInsertSeed = 0x696E736572740000ULL;

std::uint64_t fold(std::uint64_t seed, std::uint64_t word) {
  return detail::mix64(seed ^ word);
}

std::uint64_t removal_key(std::uint8_t table, FlowEntryId id) {
  return fold(fold(kRemovalSeed, table), id);
}

std::uint64_t shape_seed(std::uint8_t table, FieldId field, U128 mask) {
  const std::uint64_t place =
      (std::uint64_t{table} << 8) | static_cast<std::uint64_t>(field);
  return fold(fold(fold(kInsertSeed, place), mask.hi), mask.lo);
}

std::uint64_t insert_key(std::uint64_t seed, U128 masked_value) {
  return fold(fold(seed, masked_value.hi), masked_value.lo);
}

/// Low `bits` bits set: the mask of an exact match on a `bits`-wide field.
U128 width_mask(unsigned bits) { return high_mask128(bits) >> (128 - bits); }

}  // namespace

FlowModStatus MultiTableLookup::apply(FlowModCommand command,
                                      std::size_t table,
                                      const FlowEntry& entry) {
  if (table >= tables_.size()) return FlowModStatus::kBadTable;
  LookupTable& target = tables_[table];
  if (command == FlowModCommand::kDelete) {
    if (!target.remove_entry(entry.id)) return FlowModStatus::kUnknownEntry;
    log_removal(table, entry.id);
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
    log_removal(table, entry.id);
  }
  (void)target.insert_entry(entry);
  log_insert(table, entry);
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

void MultiTableLookup::Generation::clear() {
  std::ranges::fill(tags, detail::kTagEmpty);
  shapes.clear();
  unindexed.clear();
  std::ranges::fill(newest_insert, 0);
  records = 0;
  newest = 0;
}

void MultiTableLookup::Generation::note(std::uint64_t key,
                                        std::uint64_t epoch) {
  if (tags.empty()) {
    // At most one key per record keeps the map at most half full.
    const std::size_t capacity = detail::flat_tag_capacity(kGenerationRecords);
    tags.assign(capacity, detail::kTagEmpty);
    slots.resize(capacity);
  }
  const std::size_t mask = tags.size() - 1;
  std::size_t slot = detail::tag_find(
      tags.data(), mask, key,
      [this, key](std::size_t s) { return slots[s].key == key; });
  if (slot == SIZE_MAX) {
    slot = detail::tag_insert_slot(tags.data(), mask, key);
    tags[slot] = detail::tag_of(key);
    slots[slot] = {.key = key, .epoch = epoch};
    return;
  }
  slots[slot].epoch = std::max(slots[slot].epoch, epoch);
}

std::uint64_t MultiTableLookup::Generation::epoch_of(std::uint64_t key) const {
  if (tags.empty()) return 0;
  const std::size_t slot = detail::tag_find(
      tags.data(), tags.size() - 1, key,
      [this, key](std::size_t s) { return slots[s].key == key; });
  return slot == SIZE_MAX ? 0 : slots[slot].epoch;
}

MultiTableLookup::Generation& MultiTableLookup::generation_for(
    bool indexes_more) {
  Generation* generation = &log_.generations[log_.current];
  if (generation->records == kGenerationRecords ||
      (indexes_more && generation->shapes.size() +
                               generation->unindexed.size() ==
                           kGenerationShapes)) {
    // Drop the older generation: stamps before its newest record lose
    // their history.
    log_.current ^= 1;
    generation = &log_.generations[log_.current];
    log_.floor = std::max(log_.floor, generation->newest);
    generation->clear();
  }
  ++generation->records;
  generation->newest = std::max(generation->newest, log_.epoch);
  return *generation;
}

void MultiTableLookup::log_removal(std::size_t table, FlowEntryId id) {
  generation_for(false).note(removal_key(static_cast<std::uint8_t>(table), id),
                             log_.epoch);
}

void MultiTableLookup::log_insert(std::size_t table, const FlowEntry& entry) {
  // The lead is the rule's most selective masked test (exact, prefix or
  // masked) on the table's own fields: apply() rejected constraints on
  // others. A key the rule matches passes every test, the lead included.
  const auto table8 = static_cast<std::uint8_t>(table);
  LeadShape lead;
  lead.table = table8;
  U128 lead_value;
  int lead_bits = 0;
  RangeInsert ranges{.epoch = log_.epoch, .table = table8};
  for (const FieldId id : tables_[table].fields()) {
    const FieldMatch& match = entry.match.get(id);
    // Metadata is rewritten between tables by Write-Metadata, so a test on
    // the packet's own metadata would say nothing: leave it wildcarded.
    if (id == FieldId::kMetadata) continue;
    U128 value;
    U128 mask;
    switch (match.kind) {
      case MatchKind::kAny:
        continue;
      case MatchKind::kRange:
        if (ranges.tests < kMaxRangeTests) {
          ranges.range[ranges.tests++] = {.lo = match.range.lo,
                                          .hi = match.range.hi,
                                          .field = id};
        }
        continue;
      case MatchKind::kExact:
        value = match.value;
        mask = width_mask(field_bits(id));
        break;
      case MatchKind::kPrefix:
        value = match.prefix.value();
        mask = high_mask128(match.prefix.length()) >>
               (128 - match.prefix.width());
        break;
      case MatchKind::kMasked:
        value = match.value;
        mask = match.mask;
        break;
    }
    const int bits = std::popcount(mask.hi) + std::popcount(mask.lo);
    if (bits > lead_bits) {
      lead_bits = bits;
      lead.field = id;
      lead.mask = mask;
      lead_value = value & mask;
    }
  }
  const bool indexed = lead_bits != 0;
  if (indexed) lead.seed = shape_seed(table8, lead.field, lead.mask);
  const auto same_shape = [&lead](const LeadShape& shape) {
    return shape.seed == lead.seed && shape.table == lead.table &&
           shape.field == lead.field && shape.mask == lead.mask;
  };
  Generation& generation = generation_for(
      !indexed ||
      std::ranges::none_of(log_.generations[log_.current].shapes, same_shape));
  if (generation.newest_insert.size() <= table) {
    generation.newest_insert.resize(table + 1, 0);
  }
  generation.newest_insert[table] = log_.epoch;
  if (!indexed) {
    generation.unindexed.push_back(ranges);
    return;
  }
  if (std::ranges::none_of(generation.shapes, same_shape)) {
    generation.shapes.push_back(lead);
  }
  generation.note(insert_key(lead.seed, lead_value), log_.epoch);
}

void MultiTableLookup::restart_log(std::uint64_t epoch) {
  for (Generation& generation : log_.generations) generation.clear();
  log_.current = 0;
  log_.epoch = epoch;
  log_.floor = epoch;
}

bool MultiTableLookup::changes_walk(const Generation& generation,
                                    const PacketHeader& key,
                                    const ExecutionResult& result,
                                    std::size_t rewritten_from,
                                    std::uint64_t stamp) {
  const auto& visited = result.visited_tables;
  const auto& matched = result.matched_entries;
  // Removing an entry the walk did not pick cannot change its pick.
  for (std::size_t k = 0; k < matched.size() && k < visited.size(); ++k) {
    if (generation.epoch_of(removal_key(visited[k], matched[k])) > stamp) {
      return true;
    }
  }
  // A table after a rewriter may have looked up another key than `key`, so
  // any rule inserted there might match it.
  for (std::size_t k = rewritten_from; k < visited.size(); ++k) {
    if (generation.newest_insert_of(visited[k]) > stamp) return true;
  }
  // The rest: a new rule in a table the walk looked `key` itself up in,
  // matching it, may outrank the walk's pick or fill its miss. Tables the
  // walk never reached cannot change it.
  const auto looked_up = [&](std::uint8_t table) {
    const auto end = visited.begin() + static_cast<std::ptrdiff_t>(rewritten_from);
    return generation.newest_insert_of(table) > stamp &&
           std::find(visited.begin(), end, table) != end;
  };
  for (const RangeInsert& insert : generation.unindexed) {
    if (insert.epoch <= stamp || !looked_up(insert.table)) continue;
    bool matches = true;
    for (std::size_t t = 0; t < insert.tests && matches; ++t) {
      const RangeTest& test = insert.range[t];
      const U128 value = key.get(test.field);
      matches = value.hi == 0 && test.lo <= value.lo && value.lo <= test.hi;
    }
    if (matches) return true;
  }
  for (const LeadShape& shape : generation.shapes) {
    if (!looked_up(shape.table)) continue;
    const U128 value = key.get(shape.field) & shape.mask;
    if (generation.epoch_of(insert_key(shape.seed, value)) > stamp) return true;
  }
  return false;
}

bool MultiTableLookup::still_valid(const PacketHeader& key,
                                   const ExecutionResult& result,
                                   std::uint64_t stamp) const {
  if (stamp < log_.floor) return false;
  const auto& visited = result.visited_tables;
  // Visited tables from this position on may have matched a key that an
  // earlier table's Apply-Actions Set-Field rewrote.
  std::size_t rewritten_from = visited.size();
  for (std::size_t k = 0; k + 1 < visited.size(); ++k) {
    if (tables_[visited[k]].rewrites_header()) {
      rewritten_from = k + 1;
      break;
    }
  }
  for (const Generation& generation : log_.generations) {
    // A generation with nothing newer than the stamp cannot change it.
    if (generation.newest > stamp &&
        changes_walk(generation, key, result, rewritten_from, stamp)) {
      return false;
    }
  }
  return true;
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
