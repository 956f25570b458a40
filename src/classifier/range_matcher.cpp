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
  // The interval [0, 2^width) exists from the start: boundary 0 is set.
  const std::size_t words =
      std::max<std::size_t>((std::size_t{1} << width_) / 64, 1);
  rank_bits_.assign(words, 0);
  rank_bits_[0] = 1;
  rank_dir_.assign(words, 1);
  rank_dir_[0] = 0;
  intervals_.emplace_back();
}

std::uint32_t RangeMatcher::add(const ValueRange& range) {
  if (range.lo > range.hi || range.hi > low_mask(width_)) {
    throw std::invalid_argument("bad range");
  }
  const auto it = range_index_.find({range.lo, range.hi});
  if (it != range_index_.end()) {
    const std::uint32_t label = it->second;
    if (refs_[label]++ == 0) go_live(label);  // revival
    return label;
  }
  const auto label = static_cast<std::uint32_t>(ranges_.size());
  ranges_.push_back(range);
  refs_.push_back(1);
  range_index_.emplace(std::make_pair(range.lo, range.hi), label);
  go_live(label);
  return label;
}

bool RangeMatcher::remove(const ValueRange& range) {
  const auto it = range_index_.find({range.lo, range.hi});
  if (it == range_index_.end() || refs_[it->second] == 0) return false;
  if (--refs_[it->second] == 0) retire(it->second);
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

std::vector<std::uint32_t>::iterator RangeMatcher::position(
    std::vector<std::uint32_t>& labels, std::uint32_t label) const {
  return std::lower_bound(
      labels.begin(), labels.end(), label,
      [this](std::uint32_t a, std::uint32_t b) {
        if (ranges_[a].span() != ranges_[b].span()) {
          return ranges_[a].span() < ranges_[b].span();
        }
        return a < b;
      });
}

void RangeMatcher::hold_boundary(std::uint64_t point) {
  std::uint64_t& word = rank_bits_[point >> 6];
  const std::uint64_t bit = std::uint64_t{1} << (point & 63);
  if ((word & bit) == 0) {
    // Split the interval holding `point`: the new one starts with the same
    // labels, since no live range opens or closes at `point` yet.
    const std::size_t split = rank_index(point);
    intervals_.insert(intervals_.begin() +
                          static_cast<std::ptrdiff_t>(split + 1),
                      Interval{0, intervals_[split].labels});
    word |= bit;
    for (std::size_t w = (point >> 6) + 1; w < rank_dir_.size(); ++w) {
      ++rank_dir_[w];
    }
  }
  ++intervals_[rank_index(point)].endpoints;
}

void RangeMatcher::release_boundary(std::uint64_t point) {
  const std::size_t index = rank_index(point);
  if (--intervals_[index].endpoints != 0 || point == 0) return;
  // No live range starts or ends here, so the interval's labels equal its
  // predecessor's: merge by dropping the boundary.
  intervals_.erase(intervals_.begin() + static_cast<std::ptrdiff_t>(index));
  rank_bits_[point >> 6] &= ~(std::uint64_t{1} << (point & 63));
  for (std::size_t w = (point >> 6) + 1; w < rank_dir_.size(); ++w) {
    --rank_dir_[w];
  }
}

void RangeMatcher::go_live(std::uint32_t label) {
  const ValueRange& range = ranges_[label];
  hold_boundary(range.lo);
  if (range.hi < low_mask(width_)) hold_boundary(range.hi + 1);
  const std::size_t last = rank_index(range.hi);
  for (std::size_t i = rank_index(range.lo); i <= last; ++i) {
    auto& labels = intervals_[i].labels;
    labels.insert(position(labels, label), label);
  }
}

void RangeMatcher::retire(std::uint32_t label) {
  const ValueRange& range = ranges_[label];
  const std::size_t last = rank_index(range.hi);
  for (std::size_t i = rank_index(range.lo); i <= last; ++i) {
    auto& labels = intervals_[i].labels;
    labels.erase(position(labels, label));
  }
  if (range.hi < low_mask(width_)) release_boundary(range.hi + 1);
  release_boundary(range.lo);
}

const std::vector<std::uint32_t>& RangeMatcher::lookup(std::uint64_t key) const {
  if (key > low_mask(width_)) throw std::invalid_argument("key out of field range");
  return intervals_[rank_index(key)].labels;
}

std::uint64_t RangeMatcher::storage_bits(unsigned label_bits) const {
  // One boundary (width bits) per elementary interval.
  std::uint64_t bits = intervals_.size() * static_cast<std::uint64_t>(width_);
  for (const auto& interval : intervals_) {
    bits += interval.labels.size() * static_cast<std::uint64_t>(label_bits);
  }
  return bits;
}

}  // namespace ofmtl

