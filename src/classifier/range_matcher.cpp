#include "classifier/range_matcher.hpp"

#include <algorithm>
#include <stdexcept>

namespace ofmtl {

namespace {

/// Widest field the rank-select boundary bitmap spans (2^16 bits = 8 KiB).
constexpr unsigned kMaxWidth = 16;

}  // namespace

RangeMatcher::RangeMatcher(unsigned width) : width_(width) {
  if (width > kMaxWidth) {
    throw std::invalid_argument("range field wider than 16 bits");
  }
}

std::uint32_t RangeMatcher::add(const ValueRange& range) {
  if (range.lo > range.hi || range.hi > low_mask(width_)) {
    throw std::invalid_argument("bad range");
  }
  const auto it = range_index_.find({range.lo, range.hi});
  if (it != range_index_.end()) {
    const std::uint32_t label = it->second;
    if (refs_[label]++ == 0) {  // revival
      add_events(label);
      sealed_ = false;
    }
    return label;
  }
  const auto label = static_cast<std::uint32_t>(ranges_.size());
  ranges_.push_back(range);
  refs_.push_back(1);
  range_index_.emplace(std::make_pair(range.lo, range.hi), label);
  add_events(label);
  sealed_ = false;
  return label;
}

bool RangeMatcher::remove(const ValueRange& range) {
  const auto it = range_index_.find({range.lo, range.hi});
  if (it == range_index_.end() || refs_[it->second] == 0) return false;
  if (--refs_[it->second] == 0) {
    remove_events(it->second);
    sealed_ = false;
  }
  return true;
}

std::optional<std::uint32_t> RangeMatcher::find(const ValueRange& range) const {
  const auto it = range_index_.find({range.lo, range.hi});
  if (it == range_index_.end() || refs_[it->second] == 0) return std::nullopt;
  return it->second;
}

std::size_t RangeMatcher::unique_ranges() const {
  std::size_t live = 0;
  for (const auto refs : refs_) {
    if (refs > 0) ++live;
  }
  return live;
}

void RangeMatcher::add_events(std::uint32_t label) {
  const ValueRange& range = ranges_[label];
  events_[range.lo].opens.push_back(label);
  if (range.hi < low_mask(width_)) {
    events_[range.hi + 1].closes.push_back(label);
  }
}

void RangeMatcher::remove_events(std::uint32_t label) {
  const ValueRange& range = ranges_[label];
  const auto drop = [this](std::uint64_t point, std::vector<std::uint32_t>
                                                    BoundaryEvents::*member,
                           std::uint32_t target) {
    const auto it = events_.find(point);
    auto& list = it->second.*member;
    list.erase(std::find(list.begin(), list.end(), target));
    if (it->second.opens.empty() && it->second.closes.empty()) {
      events_.erase(it);  // the point stops being a boundary
    }
  };
  drop(range.lo, &BoundaryEvents::opens, label);
  if (range.hi < low_mask(width_)) {
    drop(range.hi + 1, &BoundaryEvents::closes, label);
  }
}

void RangeMatcher::seal() {
  if (sealed_) return;  // alive set unchanged since the last sweep
  ++seal_sweeps_;
  interval_labels_.clear();
  interval_labels_.reserve(events_.size() + 1);
  const std::size_t words =
      std::max<std::size_t>((std::size_t{1} << width_) / 64, 1);
  rank_bits_.assign(words, 0);
  const auto mark = [this](std::uint64_t boundary) {
    rank_bits_[boundary >> 6] |= std::uint64_t{1} << (boundary & 63);
  };

  // One ordered sweep over the event map: the active set gains a range at
  // its lo point and loses it at hi + 1, and every event point starts an
  // elementary interval whose label list is a snapshot of the active set;
  // its start is marked in the rank-select bitmap.
  // `active` is kept sorted by (span, label) — the narrowest-first order the
  // lookups return — so each snapshot is a plain copy.
  std::vector<std::uint32_t> active;
  const auto narrower = [this](std::uint32_t a, std::uint32_t b) {
    if (ranges_[a].span() != ranges_[b].span()) {
      return ranges_[a].span() < ranges_[b].span();
    }
    return a < b;
  };
  const auto apply = [&](const BoundaryEvents& events) {
    for (const std::uint32_t label : events.closes) {
      active.erase(
          std::lower_bound(active.begin(), active.end(), label, narrower));
    }
    for (const std::uint32_t label : events.opens) {
      active.insert(
          std::lower_bound(active.begin(), active.end(), label, narrower),
          label);
    }
  };

  auto it = events_.begin();
  mark(0);  // interval [0, first event) always exists
  if (it != events_.end() && it->first == 0) {
    apply(it->second);
    ++it;
  }
  interval_labels_.push_back(active);
  for (; it != events_.end(); ++it) {
    mark(it->first);
    apply(it->second);
    interval_labels_.push_back(active);
  }

  // Rank directory: a point lookup becomes a popcount, not a search.
  rank_dir_.assign(words, 0);
  std::uint32_t cumulative = 0;
  for (std::size_t w = 0; w < words; ++w) {
    rank_dir_[w] = cumulative;
    cumulative += static_cast<std::uint32_t>(std::popcount(rank_bits_[w]));
  }
  sealed_ = true;
}

const std::vector<std::uint32_t>& RangeMatcher::lookup(std::uint64_t key) const {
  if (!sealed_) throw std::logic_error("RangeMatcher::seal() not called");
  if (key > low_mask(width_)) throw std::invalid_argument("key out of field range");
  return interval_labels_[rank_index(key)];
}

std::optional<std::uint32_t> RangeMatcher::lookup_narrowest(
    std::uint64_t key) const {
  const auto& labels = lookup(key);
  if (labels.empty()) return std::nullopt;
  return labels.front();
}

std::uint64_t RangeMatcher::storage_bits(unsigned label_bits) const {
  // One boundary (width bits) per elementary interval.
  std::uint64_t bits =
      interval_labels_.size() * static_cast<std::uint64_t>(width_);
  for (const auto& labels : interval_labels_) {
    bits += labels.size() * static_cast<std::uint64_t>(label_bits);
  }
  return bits;
}

}  // namespace ofmtl

