// One field's parallel search machinery inside a lookup table (Fig. 1's
// "Algorithm Set"): the Partition/Selector splits the field into 16-bit
// partitions; each partition is searched by its own algorithm —
//   EM  -> hash LUT            (one algorithm for the whole field)
//   LPM -> one MultibitTrie per 16-bit partition (MAC: 3, IPv4: 2, IPv6: 8)
//   RM  -> RangeMatcher        (one algorithm for the whole field)
// Every algorithm returns an ordered candidate-label list (most specific
// first); the index-calculation stage combines them across fields.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "classifier/range_matcher.hpp"
#include "core/lut.hpp"
#include "core/multibit_trie.hpp"
#include "core/search_context.hpp"
#include "flow/flow_entry.hpp"
#include "mem/memory_model.hpp"
#include "net/fields.hpp"
#include "net/header.hpp"

namespace ofmtl {

/// Tunables for building field searches.
struct FieldSearchConfig {
  std::vector<unsigned> strides = default_strides16();  // per 16-bit trie
  TrieStorage storage = TrieStorage::kSparse;
};

class FieldSearch {
 public:
  FieldSearch(FieldId field, FieldSearchConfig config = {});

  FieldSearch(FieldSearch&&) = default;
  FieldSearch& operator=(FieldSearch&&) = default;

  /// Number of parallel algorithms this field contributes (1 for EM/RM,
  /// one per 16-bit partition for LPM).
  [[nodiscard]] std::size_t algorithm_count() const;

  /// Whether this field's engine can hold `match`: EM takes exact or any,
  /// LPM a prefix of the field's width, exact or any, RM a range inside the
  /// field's width, exact or any; exact values must fit the width too. The
  /// one statement of these rules: add_rule throws on what this rejects.
  [[nodiscard]] bool accepts(const FieldMatch& match) const {
    return decompose(match).has_value();
  }

  /// Register one rule's constraint on this field. Returns the rule's label
  /// per algorithm (the rule "signature slice" for this field). Wildcards
  /// map to the zero-length prefix (LPM/RM) or a reserved any-label (EM).
  /// Unique values are reference-counted across rules. Throws
  /// std::invalid_argument on a match accepts() rejects.
  [[nodiscard]] std::vector<Label> add_rule(const FieldMatch& match);

  /// Unregister one rule's constraint; when the last rule sharing a unique
  /// value leaves, the value is removed from its structure (trie / LUT /
  /// range index). Returns the labels the rule held. Throws if the
  /// constraint was never registered. Every structure is maintained in
  /// place, so queries see the change at once.
  std::vector<Label> remove_rule(const FieldMatch& match);

  /// The field's one query path, allocation-free: fills each packet's
  /// slots [slot_base, slot_base + algorithm_count()) of its context lane
  /// (lane i's slots start at ctx.slot(i, slot_base)). Exact fields probe
  /// the LUT as a batch; each partition trie and the range matcher answer
  /// one key at a time. A single packet is a batch of one.
  void search_batch(std::span<const PacketHeader* const> headers,
                    SearchContext& ctx, std::size_t slot_base) const;

  [[nodiscard]] FieldId field() const { return field_; }
  [[nodiscard]] MatchMethod method() const { return field_method(field_); }

  /// Unique stored values per algorithm (the Table III/IV statistics).
  [[nodiscard]] std::vector<std::size_t> unique_values() const;

  [[nodiscard]] mem::MemoryReport memory_report(const std::string& prefix) const;

  /// Update words written while building (label method): LUT slots occupied,
  /// trie entry writes, unique ranges stored.
  [[nodiscard]] std::uint64_t update_words() const;

  /// Access to the partition tries (LPM fields only), for the memory study.
  [[nodiscard]] const std::vector<MultibitTrie>& tries() const { return tries_; }
  [[nodiscard]] const ExactMatchLut* lut() const { return lut_.get(); }
  [[nodiscard]] const RangeMatcher* ranges() const { return ranges_.get(); }

 private:
  /// A rule's constraint decomposed into per-algorithm elements.
  struct RuleElements {
    std::optional<Prefix> prefix;       // LPM: field-wide, split per trie
    std::optional<U128> exact_value;    // EM: nullopt = wildcard
    std::optional<ValueRange> range;    // RM
  };
  /// nullopt when the engine cannot hold `match` (see accepts()).
  [[nodiscard]] std::optional<RuleElements> decompose(
      const FieldMatch& match) const;

  FieldId field_;
  FieldSearchConfig config_;
  // Exactly one of the three engines is populated, per the match method.
  std::unique_ptr<ExactMatchLut> lut_;
  std::vector<MultibitTrie> tries_;
  std::vector<ValueLabelEncoder> trie_encoders_;  // (len,value) -> label, per trie
  std::unique_ptr<RangeMatcher> ranges_;
  // Reserved wildcard label for EM fields; listed in candidates while its
  // reference count is nonzero.
  std::optional<Label> em_any_label_;
  std::uint32_t em_any_refs_ = 0;
  // Per-algorithm label reference counts (how many rules hold each label),
  // EM and LPM fields only: the range matcher counts its own references.
  std::vector<std::unordered_map<Label, std::uint32_t>> label_refs_;
};

}  // namespace ofmtl
