// Range matcher for the RM fields (transport ports, Table II). Stores unique
// ranges with labels; lookup returns all ranges containing a key, narrowest
// first ("the narrowest range is selected", Section III.A).
//
// Implementation: project the live unique ranges onto elementary intervals
// over their sorted endpoints; each elementary interval holds its matching
// label list. That index is the matcher's one representation, live from
// construction: add/remove edit it in place. A range going live splits the
// intervals at lo and hi + 1 (the new interval copies the labels of the one
// it splits) and inserts its label into every interval it covers; a range
// dying removes its label, and a boundary no live range ends on merges back
// into its predecessor. The boundaries are laid out as a rank-select bitmap
// over the whole field (fields are at most 16 bits wide, as both Table II
// RM fields are): a point lookup is one word load + popcount, no search.
#pragma once

#include <bit>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "net/prefix.hpp"

namespace ofmtl {

class RangeMatcher {
 public:
  /// Throws std::invalid_argument for width > 16: the rank-select layout
  /// spans the whole field.
  explicit RangeMatcher(unsigned width);

  /// Register a range, returning its label (existing label if seen before).
  /// Ranges are reference-counted: adding the same range twice requires two
  /// removes to drop it. A range going live costs the intervals it covers
  /// plus, per new boundary, one interval insert and a rank-directory bump.
  std::uint32_t add(const ValueRange& range);

  /// Drop one reference to a range; at zero references the range stops
  /// matching (the reverse of add's cost). Returns whether the range was
  /// present.
  bool remove(const ValueRange& range);

  /// Label of a live range, if registered.
  [[nodiscard]] std::optional<std::uint32_t> find(const ValueRange& range) const;

  /// Labels of all ranges containing `key`, narrowest first, so the front is
  /// RM's answer (a reference into the interval index, valid until the next
  /// add/remove). Throws std::invalid_argument for a key wider than the
  /// field.
  [[nodiscard]] const std::vector<std::uint32_t>& lookup(std::uint64_t key) const;

  /// Live (reference-held) unique ranges.
  [[nodiscard]] std::size_t unique_ranges() const;
  [[nodiscard]] const ValueRange& range_of(std::uint32_t label) const {
    return ranges_.at(label);
  }
  [[nodiscard]] unsigned width() const { return width_; }

  /// Memory cost: interval boundaries (width bits each) plus per-interval
  /// label lists (label_bits per stored label).
  [[nodiscard]] std::uint64_t storage_bits(unsigned label_bits) const;

 private:
  /// One elementary interval, from its boundary up to the next one.
  struct Interval {
    std::uint32_t endpoints = 0;        // live ranges with lo or hi + 1 here
    std::vector<std::uint32_t> labels;  // by (span, label): narrowest first
  };

  void go_live(std::uint32_t label);
  void retire(std::uint32_t label);
  /// Make `point` a boundary and count one more endpoint on it.
  void hold_boundary(std::uint64_t point);
  /// Count one endpoint less on `point`; at zero it merges into the
  /// interval before it (boundary 0 always stays).
  void release_boundary(std::uint64_t point);
  /// Where `label` sits in an interval's list, ordered by (span, label).
  [[nodiscard]] std::vector<std::uint32_t>::iterator position(
      std::vector<std::uint32_t>& labels, std::uint32_t label) const;
  /// Interval index of the last boundary <= key.
  [[nodiscard]] std::size_t rank_index(std::uint64_t key) const {
    const std::size_t word = key >> 6;
    const std::uint64_t below = ~std::uint64_t{0} >> (63 - (key & 63));
    return rank_dir_[word] + static_cast<std::size_t>(std::popcount(
                                 rank_bits_[word] & below)) -
           1;
  }

  unsigned width_;
  std::vector<ValueRange> ranges_;            // label -> range (labels persist)
  std::vector<std::uint32_t> refs_;           // label -> reference count
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint32_t>
      range_index_;                           // (lo, hi) -> label, persists
  std::vector<Interval> intervals_;           // by rank; [0] starts at 0
  // Rank-select layout: bit b of rank_bits_ set iff b is an interval
  // boundary; rank_dir_[w] = boundaries strictly below word w. The interval
  // containing key is then
  // rank(key) - 1 = rank_dir_[key/64] + popcount(bits below key in word) - 1
  // — the index of the last boundary <= key, without a search.
  std::vector<std::uint64_t> rank_bits_;
  std::vector<std::uint32_t> rank_dir_;
};

}  // namespace ofmtl
