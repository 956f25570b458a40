// Range matcher for the RM fields (transport ports, Table II). Stores unique
// ranges with labels; lookup returns all ranges containing a key, narrowest
// first ("the narrowest range is selected", Section III.A).
//
// Implementation: project the unique ranges onto elementary intervals over
// the sorted endpoint list; each elementary interval precomputes its matching
// label list. The endpoints live in an incremental interval event map
// (point -> ranges opening/closing there), so add/remove are O(log n) and
// seal() is a single sweep over the events. The sweep lays the boundaries
// out as a rank-select bitmap over the whole field (fields are at most 16
// bits wide, as both Table II RM fields are): a point lookup is one word
// load + popcount, no search at all. This is the matcher's only layout.
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
  /// removes to drop it. O(log unique_ranges).
  std::uint32_t add(const ValueRange& range);

  /// Drop one reference to a range; at zero references the range stops
  /// matching. Returns whether the range was present. Call seal() before
  /// the next lookup. O(log unique_ranges).
  bool remove(const ValueRange& range);

  /// Label of a live range, if registered.
  [[nodiscard]] std::optional<std::uint32_t> find(const ValueRange& range) const;

  /// Finish construction: sweep the event map into the elementary-interval
  /// index and its rank-select bitmap. A no-op when the live set is
  /// untouched since the last sweep — seal_sweeps() counts the
  /// sweeps that actually ran, so any amount of churn followed by a reseal
  /// costs one sweep, and resealing an untouched matcher costs none.
  void seal();

  /// Labels of all ranges containing `key`, narrowest first (a reference
  /// into the sealed interval index, valid until the next seal()). seal()
  /// first; throws std::invalid_argument for a key wider than the field.
  [[nodiscard]] const std::vector<std::uint32_t>& lookup(std::uint64_t key) const;

  /// Narrowest matching range label (RM semantics).
  [[nodiscard]] std::optional<std::uint32_t> lookup_narrowest(std::uint64_t key) const;

  /// Live (reference-held) unique ranges.
  [[nodiscard]] std::size_t unique_ranges() const;
  [[nodiscard]] const ValueRange& range_of(std::uint32_t label) const {
    return ranges_.at(label);
  }
  [[nodiscard]] unsigned width() const { return width_; }

  /// Sweeps seal() actually performed (observability for the amortized
  /// incremental path: a reseal with no live-set change must not sweep).
  [[nodiscard]] std::uint64_t seal_sweeps() const { return seal_sweeps_; }

  /// Memory cost: interval boundaries (width bits each) plus per-interval
  /// label lists (label_bits per stored label).
  [[nodiscard]] std::uint64_t storage_bits(unsigned label_bits) const;

 private:
  /// Ranges opening (lo == point) and closing (hi + 1 == point) at one
  /// elementary-interval boundary. Kept current by add/remove, so seal()
  /// never rescans the range list.
  struct BoundaryEvents {
    std::vector<std::uint32_t> opens;
    std::vector<std::uint32_t> closes;
  };

  void add_events(std::uint32_t label);
  void remove_events(std::uint32_t label);
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
  std::map<std::uint64_t, BoundaryEvents> events_;  // live boundaries only
  std::vector<std::vector<std::uint32_t>> interval_labels_;  // per interval
  // Rank-select layout: bit b of rank_bits_ set iff b is an interval
  // boundary; rank_dir_[w] = boundaries strictly below word w. The interval
  // containing key is then
  // rank(key) - 1 = rank_dir_[key/64] + popcount(bits below key in word) - 1
  // — the index of the last boundary <= key, without a search.
  std::vector<std::uint64_t> rank_bits_;
  std::vector<std::uint32_t> rank_dir_;
  bool sealed_ = false;
  std::uint64_t seal_sweeps_ = 0;
};

}  // namespace ofmtl
