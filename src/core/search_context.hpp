// SearchContext: reusable per-thread scratch for the allocation-free lookup
// hot path. A batch of packets (a single packet is a batch of one) borrows a
// set of candidate "slots" — one LabelList per (lane, single-field
// algorithm) — plus the working vectors of the batched index calculation.
// Every buffer is cleared, never shrunk, between batches, so a warmed-up
// context performs zero heap allocations in steady state.
//
// Ownership rules: one SearchContext per thread, reused across batches. The
// convenience APIs (LookupTable::lookup(header), MultiTableLookup::execute*)
// use an internal thread_local context; performance-critical callers thread
// their own through LookupTable::lookup_batch.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/label.hpp"
#include "net/types.hpp"

namespace ofmtl {

/// Candidate labels from one algorithm, most specific first.
using LabelList = std::vector<Label>;

/// Reusable per-thread scratch of the lookup hot path: candidate-label
/// slots for every (lane, algorithm) pair plus the batched-probe and
/// index-calculation working vectors. One context per thread, borrowed for the
/// duration of one lookup call; buffers are cleared, never shrunk, so a
/// warmed context performs zero steady-state heap allocations.
class SearchContext {
 public:
  /// Prepare slots for `lanes` packets x `algorithms` candidate lists each.
  /// Existing slot capacity is kept; slot contents are NOT cleared (each
  /// algorithm writer clears its own slot before filling it).
  void begin(std::size_t lanes, std::size_t algorithms) {
    lanes_ = lanes;
    algorithms_ = algorithms;
    const std::size_t needed = lanes * algorithms;
    if (slots_.size() < needed) slots_.resize(needed);
    if (lane_matches_.size() < lanes) lane_matches_.resize(lanes);
  }

  /// Lanes prepared by the last begin().
  [[nodiscard]] std::size_t lanes() const { return lanes_; }
  /// Algorithms (candidate lists per lane) prepared by the last begin().
  [[nodiscard]] std::size_t algorithms() const { return algorithms_; }

  /// Candidate slot for packet `lane`, algorithm `algorithm`.
  [[nodiscard]] LabelList& slot(std::size_t lane, std::size_t algorithm) {
    return slots_[lane * algorithms_ + algorithm];
  }

  /// All of one packet's candidate lists, in algorithm order (contiguous).
  [[nodiscard]] std::span<const LabelList> packet_candidates(
      std::size_t lane) const {
    return {slots_.data() + lane * algorithms_, algorithms_};
  }

  /// --- batched index-probe scratch (pair-key gathers) ---
  [[nodiscard]] std::vector<std::uint64_t>& batch_keys() { return batch_keys_; }

  /// --- batched EM probe scratch (value gathers + probe results) ---
  [[nodiscard]] std::vector<U128>& batch_values() { return batch_values_; }
  [[nodiscard]] std::vector<Label>& batch_labels() { return batch_labels_; }

  /// --- batched index-calculation scratch. Every lane's working label set
  /// lives in one flat arena (labels in pool, lane i's window is
  /// [offsets[i], offsets[i+1])); two generations swap per combination
  /// stage. One contiguous buffer instead of a vector-of-vectors keeps the
  /// stage loop's loads sequential and clears O(1). ---
  [[nodiscard]] std::vector<Label>& pool_current() { return pool_current_; }
  [[nodiscard]] std::vector<Label>& pool_next() { return pool_next_; }
  [[nodiscard]] std::vector<std::uint32_t>& pool_offsets_current() {
    return pool_offsets_current_;
  }
  [[nodiscard]] std::vector<std::uint32_t>& pool_offsets_next() {
    return pool_offsets_next_;
  }
  /// Per-window precomputed probe hashes (paired with batch_keys entries).
  [[nodiscard]] std::vector<std::uint64_t>& batch_hashes() {
    return batch_hashes_;
  }
  [[nodiscard]] std::vector<std::uint32_t>& lane_matches(std::size_t lane) {
    return lane_matches_[lane];
  }

 private:
  std::size_t lanes_ = 0;
  std::size_t algorithms_ = 0;
  std::vector<LabelList> slots_;
  std::vector<std::uint64_t> batch_keys_;
  std::vector<U128> batch_values_;
  std::vector<Label> batch_labels_;
  std::vector<Label> pool_current_;
  std::vector<Label> pool_next_;
  std::vector<std::uint32_t> pool_offsets_current_;
  std::vector<std::uint32_t> pool_offsets_next_;
  std::vector<std::uint64_t> batch_hashes_;
  std::vector<std::vector<std::uint32_t>> lane_matches_;
};

}  // namespace ofmtl
