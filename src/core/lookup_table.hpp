// One OpenFlow lookup table of the proposed architecture: the parallel
// per-field searches, the index calculation, and the action table, built
// from the table's flow entries (Fig. 1 end-to-end for a single table).
// Each rule is stored once, in its slot; the action table is the slot
// array as the memory model costs it (one fixed-width word per slot).
//
// Entries can be added and removed incrementally: unique field values are
// reference-counted by the field searches, index pairs by the index
// calculator, so an insert/remove touches only the structures the entry's
// values live in — the "incremental update ability" requirement of the
// paper's introduction.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/field_search.hpp"
#include "core/index_table.hpp"
#include "flow/flow_table.hpp"
#include "mem/memory_model.hpp"

namespace ofmtl {

class LookupTable {
 public:
  /// Compile `entries` matching on `fields` (order fixes the algorithm
  /// order). Fields the entries never constrain may still be listed.
  LookupTable(std::vector<FieldId> fields, std::vector<FlowEntry> entries,
              FieldSearchConfig config = {});

  /// Convenience: compile a reference table, deriving the field list from
  /// the fields its entries constrain.
  [[nodiscard]] static LookupTable compile(const FlowTable& table,
                                           FieldSearchConfig config = {});

  /// Whether the table can hold `match`: it constrains only the table's own
  /// fields, each in a shape that field's search accepts.
  [[nodiscard]] bool accepts(const FlowMatch& match) const;

  /// Add one entry to the live table; returns its slot. The entry id must
  /// not already be present. Constraints on fields outside the table's field
  /// list are ignored; accepts() is the check that rejects them.
  std::uint32_t insert_entry(FlowEntry entry);

  /// Remove the entry with this id; returns whether it existed. Unique
  /// values drop out of the structures when their last entry leaves.
  bool remove_entry(FlowEntryId id);

  /// Whether an entry with this id is live.
  [[nodiscard]] bool contains(FlowEntryId id) const {
    return id_to_slot_.contains(id);
  }

  /// Deep copy: recompiles an independent table from the live entries with
  /// the same field order and config (FieldSearch engines are move-only, so
  /// replication goes through the builder). Entries are replayed in
  /// insertion order so equal-priority tie-breaks match the original; slot
  /// numbering may differ, lookup results do not.
  [[nodiscard]] LookupTable clone() const;

  /// Highest-priority matching entry, or nullptr on miss (-> controller).
  /// Equal priorities tie-break to the earlier-inserted entry, matching
  /// FlowTable's stable order. A one-lane lookup_batch on an internal
  /// thread_local SearchContext, so steady-state calls are allocation-free.
  [[nodiscard]] const FlowEntry* lookup(const PacketHeader& header) const;

  /// The table's one query path: out[i] = lookup(*headers[i]) through a
  /// caller-owned context. The LUT and index probes run interleaved across
  /// the batch with prefetch; headers are pointers so pipeline stages can
  /// hand in scattered in-flight packets.
  void lookup_batch(std::span<const PacketHeader* const> headers,
                    std::span<const FlowEntry*> out, SearchContext& ctx) const;

  [[nodiscard]] const std::vector<FieldId>& fields() const { return fields_; }
  [[nodiscard]] std::size_t entry_count() const { return live_entries_; }
  /// Snapshot of the live entries (slot order).
  [[nodiscard]] std::vector<FlowEntry> entries() const;
  [[nodiscard]] const std::vector<FieldSearch>& field_searches() const {
    return searches_;
  }
  [[nodiscard]] const IndexCalculator& index() const { return *index_; }
  /// Sticky: whether any entry this table (or the table it was cloned from)
  /// ever held rewrites the header with an Apply-Actions Set-Field, so later
  /// tables may match on a key that differs from the packet's.
  [[nodiscard]] bool rewrites_header() const { return rewrites_header_; }

  [[nodiscard]] mem::MemoryReport memory_report(const std::string& prefix) const;

  /// Update words written while building (label method).
  [[nodiscard]] std::uint64_t update_words() const;
  /// The action table's share of update_words(): one word per slot ever
  /// used (the slot high-water mark).
  [[nodiscard]] std::uint64_t action_words() const { return slots_.size(); }

 private:
  [[nodiscard]] const FlowEntry* best_match(
      const std::vector<std::uint32_t>& matches) const;

  struct Slot {
    std::optional<FlowEntry> entry;
    std::uint64_t seq = 0;  // insertion order, for stable tie-breaks
  };

  std::vector<FieldId> fields_;
  FieldSearchConfig config_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::unordered_map<FlowEntryId, std::uint32_t> id_to_slot_;
  std::size_t live_entries_ = 0;
  std::uint64_t next_seq_ = 0;
  bool rewrites_header_ = false;
  // Action-table word width: the widest InstructionSet::bits() ever
  // inserted. Sticky like the slot count; a clone recomputes it.
  unsigned action_bits_ = 0;
  std::vector<FieldSearch> searches_;
  std::optional<IndexCalculator> index_;
};

}  // namespace ofmtl
