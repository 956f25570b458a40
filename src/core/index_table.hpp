// Index calculation (Fig. 1, Section IV.C): combines the labels returned by
// the parallel single-field algorithms into the index of the matching flow
// entry. Implemented as progressive pairwise combination — the Distributed
// Crossproducting of Field Labels scheme ([11], DCFL) the paper's label
// method derives from: stage i holds the valid (accumulated-label, next-
// algorithm-label) pairs, so only label combinations some rule actually uses
// are ever materialized (no crossproduct explosion).
//
// Each stage is one flat open-addressing table of pair -> label words, and
// the final label -> rule-indices map is one CSR table behind its own flat
// key table. These are the only copies: add_rule/remove_rule maintain them
// in place (tombstone deletion, amortized rehash), and queries read them
// directly.
#pragma once

#include <cstdint>
#include <vector>

#include "core/field_search.hpp"
#include "mem/memory_model.hpp"

namespace ofmtl {

class IndexCalculator {
 public:
  /// `algorithm_count` = total algorithms across the table's fields.
  explicit IndexCalculator(std::size_t algorithm_count);

  /// Register a rule's signature (one label per algorithm, in order).
  /// `rule_index` is the position in the table's entry array. Amortized
  /// O(signature): tables grow by doubling, never by an O(rules) rebuild
  /// per call.
  void add_rule(const std::vector<Label>& signature, std::uint32_t rule_index);

  /// Unregister a rule. Pairs are reference-counted across rules and are
  /// tombstoned when the last sharing rule leaves — the incremental-update
  /// counterpart of add_rule. Throws std::invalid_argument, leaving the
  /// calculator unchanged, if the signature or rule was never registered.
  void remove_rule(const std::vector<Label>& signature, std::uint32_t rule_index);

  /// The one query path, allocation-free, over every lane prepared in `ctx`
  /// (the per-lane candidate slots filled by the field searches, one list
  /// per algorithm, most specific first): fills ctx.lane_matches(lane) with
  /// the indices of every rule whose signature the lane's candidates cover,
  /// order unspecified. Probes the flat stages interleaved across lanes with
  /// software prefetch — stage by stage, every lane's pair probes are issued
  /// before any lane's are resolved. A single packet is a one-lane batch.
  /// Throws std::invalid_argument if ctx's algorithm count is not this
  /// calculator's.
  void query_batch(SearchContext& ctx) const;

  [[nodiscard]] std::size_t algorithm_count() const { return stage_count_ + 1; }

  /// Memory model: each stage is a hash table of (label,label)->label words.
  [[nodiscard]] mem::MemoryReport memory_report(const std::string& prefix) const;
  [[nodiscard]] std::uint64_t update_words() const;

 private:
  using PairKey = std::uint64_t;
  [[nodiscard]] static PairKey pair_key(Label a, Label b) {
    return (std::uint64_t{a} << 32) | b;
  }

  /// One stage: open-addressed pair-key table, power-of-two capacity,
  /// group-linear tag probing (core/flat_hash.hpp). Slot state lives in the
  /// one-byte tags — keys/labels/refs are meaningful only where the tag is a
  /// live 7-bit hash tag. Queries read tags/keys/labels; only updates touch
  /// refs.
  struct FlatStage {
    std::vector<PairKey> keys;
    std::vector<Label> labels;
    std::vector<std::uint8_t> tags;
    std::vector<std::uint32_t> refs;  // rules sharing the pair
    std::uint64_t mask = 0;
    std::size_t used = 0;  // live + tombstoned slots
    std::size_t live = 0;  // live pairs
  };

  [[nodiscard]] Label probe_stage(const FlatStage& stage, PairKey key) const;
  /// Live final-table slot of `final_label` (hash = mix64(final_label)), or
  /// SIZE_MAX.
  [[nodiscard]] std::size_t find_final(Label final_label,
                                       std::uint64_t hash) const;
  /// Append the rule indices stored in final slot `slot` to `out`.
  void append_final_rules(std::size_t slot,
                          std::vector<std::uint32_t>& out) const;

  /// Rehash a stage's live slots into `capacity` slots (growth or
  /// tombstone purge).
  static void rebuild_stage(FlatStage& stage, std::size_t capacity);
  /// Rehash the final key table's live slots into `capacity` slots and
  /// compact their regions to the front of final_rules_.
  void rebuild_final(std::size_t capacity);
  void final_add(Label final_label, std::uint32_t rule_index);
  /// Append a zeroed region of `capacity` slots to final_rules_.
  [[nodiscard]] std::uint32_t append_final_region(std::uint32_t capacity);

  std::size_t stage_count_;  // = algorithm_count - 1
  std::vector<FlatStage> stages_;
  std::vector<Label> next_intermediate_;  // per stage

  // Final combined label -> rule indices (several rules may share a match
  // signature at different priorities), flattened into CSR form behind its
  // own flat key table. Key slots tombstone on delete (probes skip
  // tombstones, inserts reuse them); each final label owns a slack-capacity
  // region of final_rules_ that grows by relocation to the tail, and
  // abandoned regions are garbage until a threshold-triggered compaction.
  // Rebuilds therefore run amortized-O(1) per mutation, never per publish.
  std::vector<std::uint64_t> final_keys_;      // slot -> final label
  std::vector<std::uint8_t> final_tags_;       // slot state (tag-group probed)
  std::vector<std::uint32_t> final_offsets_;   // slot -> region offset
  std::vector<std::uint32_t> final_counts_;    // slot -> live indices
  std::vector<std::uint32_t> final_caps_;      // slot -> region capacity
  std::vector<std::uint32_t> final_rules_;     // region storage
  std::uint64_t final_mask_ = 0;
  std::size_t final_used_ = 0;     // live + tombstoned key slots
  std::size_t final_live_ = 0;     // live final labels
  std::size_t final_garbage_ = 0;  // abandoned final_rules_ slots
  std::size_t rule_count_ = 0;     // registered rules
};

}  // namespace ofmtl
