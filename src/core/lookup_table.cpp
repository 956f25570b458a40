#include "core/lookup_table.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

namespace ofmtl {

LookupTable::LookupTable(std::vector<FieldId> fields,
                         std::vector<FlowEntry> entries,
                         FieldSearchConfig config)
    : fields_(std::move(fields)), config_(std::move(config)) {
  if (fields_.empty()) {
    throw std::invalid_argument("lookup table needs at least one field");
  }
  searches_.reserve(fields_.size());
  std::size_t algorithms = 0;
  for (const auto id : fields_) {
    searches_.emplace_back(id, config_);
    algorithms += searches_.back().algorithm_count();
  }
  index_.emplace(algorithms);
  for (auto& entry : entries) (void)insert_entry(std::move(entry));
}

LookupTable LookupTable::compile(const FlowTable& table, FieldSearchConfig config) {
  std::set<FieldId> used;
  for (const auto& entry : table.entries()) {
    for (const auto id : entry.match.constrained_fields()) used.insert(id);
  }
  if (used.empty()) used.insert(FieldId::kInPort);  // all-wildcard table
  return LookupTable{{used.begin(), used.end()}, table.entries(), config};
}

bool LookupTable::accepts(const FlowMatch& match) const {
  std::size_t held = 0;
  for (std::size_t f = 0; f < fields_.size(); ++f) {
    const FieldMatch& field = match.get(fields_[f]);
    if (!searches_[f].accepts(field)) return false;
    if (field.kind != MatchKind::kAny) ++held;
  }
  // Every constraint must sit on one of the table's own fields.
  std::size_t constrained = 0;
  for (std::size_t i = 0; i < kFieldCount; ++i) {
    if (match.constrains(static_cast<FieldId>(i))) ++constrained;
  }
  return held == constrained;
}

std::uint32_t LookupTable::insert_entry(FlowEntry entry) {
  if (id_to_slot_.contains(entry.id)) {
    throw std::invalid_argument("insert_entry: duplicate entry id");
  }
  std::vector<Label> signature;
  for (std::size_t f = 0; f < fields_.size(); ++f) {
    const auto labels = searches_[f].add_rule(entry.match.get(fields_[f]));
    signature.insert(signature.end(), labels.begin(), labels.end());
  }
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  index_->add_rule(signature, slot);
  action_bits_ = std::max(action_bits_, entry.instructions.bits());
  for (const auto& action : entry.instructions.apply_actions) {
    if (std::holds_alternative<SetFieldAction>(action)) rewrites_header_ = true;
  }
  id_to_slot_.emplace(entry.id, slot);
  slots_[slot].seq = next_seq_++;
  slots_[slot].entry = std::move(entry);
  ++live_entries_;
  return slot;
}

bool LookupTable::remove_entry(FlowEntryId id) {
  const auto it = id_to_slot_.find(id);
  if (it == id_to_slot_.end()) return false;
  const std::uint32_t slot = it->second;
  Slot& s = slots_[slot];
  // The labels each field hands back are the ones insert_entry concatenated,
  // in the same field/partition order: the rule's index signature.
  std::vector<Label> signature;
  signature.reserve(index_->algorithm_count());
  for (std::size_t f = 0; f < fields_.size(); ++f) {
    const auto labels = searches_[f].remove_rule(s.entry->match.get(fields_[f]));
    signature.insert(signature.end(), labels.begin(), labels.end());
  }
  index_->remove_rule(signature, slot);
  id_to_slot_.erase(it);
  s.entry.reset();
  free_slots_.push_back(slot);
  --live_entries_;
  return true;
}

LookupTable LookupTable::clone() const {
  // entries() walks slots in slot order, which diverges from insertion order
  // once free slots are reused — and insertion order (seq) drives
  // equal-priority tie-breaks. Replay in seq order so the clone tie-breaks
  // exactly like the original.
  std::vector<const Slot*> live;
  live.reserve(live_entries_);
  for (const auto& slot : slots_) {
    if (slot.entry) live.push_back(&slot);
  }
  std::sort(live.begin(), live.end(),
            [](const Slot* a, const Slot* b) { return a->seq < b->seq; });
  std::vector<FlowEntry> ordered;
  ordered.reserve(live.size());
  for (const Slot* slot : live) ordered.push_back(*slot->entry);
  LookupTable copy(fields_, std::move(ordered), config_);
  copy.rewrites_header_ = rewrites_header_;
  return copy;
}

std::vector<FlowEntry> LookupTable::entries() const {
  std::vector<FlowEntry> result;
  result.reserve(live_entries_);
  for (const auto& slot : slots_) {
    if (slot.entry) result.push_back(*slot.entry);
  }
  return result;
}

const FlowEntry* LookupTable::best_match(
    const std::vector<std::uint32_t>& matches) const {
  const Slot* best = nullptr;
  for (const auto slot : matches) {
    const Slot& candidate = slots_[slot];
    if (best == nullptr ||
        candidate.entry->priority > best->entry->priority ||
        (candidate.entry->priority == best->entry->priority &&
         candidate.seq < best->seq)) {
      best = &candidate;
    }
  }
  return best == nullptr ? nullptr : &*best->entry;
}

const FlowEntry* LookupTable::lookup(const PacketHeader& header) const {
  static thread_local SearchContext ctx;
  const PacketHeader* const headers[] = {&header};
  const FlowEntry* entry = nullptr;
  lookup_batch(headers, {&entry, 1}, ctx);
  return entry;
}

void LookupTable::lookup_batch(std::span<const PacketHeader* const> headers,
                               std::span<const FlowEntry*> out,
                               SearchContext& ctx) const {
  if (out.size() < headers.size()) {
    throw std::invalid_argument("lookup_batch: out span too small");
  }
  const std::size_t algorithms = index_->algorithm_count();
  ctx.begin(headers.size(), algorithms);
  std::size_t slot_base = 0;
  for (const auto& search : searches_) {
    search.search_batch(headers, ctx, slot_base);
    slot_base += search.algorithm_count();
  }
  index_->query_batch(ctx);
  for (std::size_t i = 0; i < headers.size(); ++i) {
    out[i] = best_match(ctx.lane_matches(i));
  }
}

mem::MemoryReport LookupTable::memory_report(const std::string& prefix) const {
  mem::MemoryReport report;
  for (std::size_t f = 0; f < fields_.size(); ++f) {
    report.merge(searches_[f].memory_report(
                     prefix + "." + std::string(field_name(fields_[f]))),
                 "");
  }
  report.merge(index_->memory_report(prefix + ".index"), "");
  report.add(prefix + ".actions", slots_.size(), action_bits_);
  return report;
}

std::uint64_t LookupTable::update_words() const {
  std::uint64_t words = 0;
  for (const auto& search : searches_) words += search.update_words();
  words += index_->update_words();
  words += action_words();
  return words;
}

}  // namespace ofmtl
