#include "core/index_table.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/flat_hash.hpp"

namespace ofmtl {

namespace {

using detail::flat_needs_rebuild;
using detail::flat_tag_capacity;
using detail::kTagDeleted;
using detail::kTagEmpty;
using detail::kTagGroup;
using detail::mix64;
using detail::reserve_for_append;
using detail::tag_find;
using detail::tag_group_of;
using detail::tag_insert_slot;
using detail::tag_of;

}  // namespace

IndexCalculator::IndexCalculator(std::size_t algorithm_count)
    : stage_count_(algorithm_count == 0 ? 0 : algorithm_count - 1) {
  if (algorithm_count == 0) {
    throw std::invalid_argument("index calculator needs >= 1 algorithm");
  }
  stages_.resize(stage_count_);
  for (FlatStage& stage : stages_) rebuild_stage(stage, kTagGroup);
  next_intermediate_.assign(stage_count_, 0);
  rebuild_final(kTagGroup);
}

void IndexCalculator::add_rule(const std::vector<Label>& signature,
                               std::uint32_t rule_index) {
  if (signature.size() != stage_count_ + 1) {
    throw std::invalid_argument("signature arity mismatch");
  }
  Label accumulated = signature[0];
  for (std::size_t s = 0; s < stage_count_; ++s) {
    FlatStage& stage = stages_[s];
    const PairKey key = pair_key(accumulated, signature[s + 1]);
    const std::uint64_t hash = mix64(key);
    std::size_t index =
        tag_find(stage.tags.data(), stage.mask, hash,
                 [&](std::size_t slot) { return stage.keys[slot] == key; });
    if (index == SIZE_MAX) {
      if (flat_needs_rebuild(stage.used, stage.tags.size())) {
        rebuild_stage(stage, flat_tag_capacity(stage.live + 1));
      }
      index = tag_insert_slot(stage.tags.data(), stage.mask, hash);
      if (stage.tags[index] == kTagEmpty) ++stage.used;
      ++stage.live;
      stage.tags[index] = tag_of(hash);
      stage.keys[index] = key;
      stage.labels[index] = next_intermediate_[s]++;
      stage.refs[index] = 0;
    }
    ++stage.refs[index];
    accumulated = stage.labels[index];
  }
  final_add(accumulated, rule_index);
  ++rule_count_;
}

void IndexCalculator::remove_rule(const std::vector<Label>& signature,
                                  std::uint32_t rule_index) {
  if (signature.size() != stage_count_ + 1) {
    throw std::invalid_argument("signature arity mismatch");
  }
  // Check walk: locate every slot on the signature's path, and the rule in
  // its final region, before changing anything.
  std::vector<std::size_t> path(stage_count_);
  Label accumulated = signature[0];
  for (std::size_t s = 0; s < stage_count_; ++s) {
    const FlatStage& stage = stages_[s];
    const PairKey key = pair_key(accumulated, signature[s + 1]);
    path[s] = tag_find(stage.tags.data(), stage.mask, mix64(key),
                       [&](std::size_t slot) { return stage.keys[slot] == key; });
    if (path[s] == SIZE_MAX) {
      throw std::invalid_argument("remove_rule: signature not registered");
    }
    accumulated = stage.labels[path[s]];
  }
  const std::size_t slot = find_final(accumulated, mix64(accumulated));
  if (slot == SIZE_MAX) {
    throw std::invalid_argument("remove_rule: signature not registered");
  }
  const auto region = final_rules_.begin() + final_offsets_[slot];
  const std::uint32_t count = final_counts_[slot];
  const auto pos = std::find(region, region + count, rule_index);
  if (pos == region + count) {
    throw std::invalid_argument("remove_rule: rule not registered");
  }
  *pos = region[count - 1];
  final_counts_[slot] = count - 1;
  --rule_count_;
  if (count == 1) {
    // Last rule of this label: tombstone the key slot, abandon the region.
    final_tags_[slot] = kTagDeleted;
    final_garbage_ += final_caps_[slot];
    final_caps_[slot] = 0;
    --final_live_;
  }
  // Release the path's references; a pair no rule shares any more becomes
  // a tombstone, not an empty slot, since it may sit mid-chain for others.
  for (std::size_t s = 0; s < stage_count_; ++s) {
    FlatStage& stage = stages_[s];
    if (--stage.refs[path[s]] == 0) {
      stage.tags[path[s]] = kTagDeleted;
      --stage.live;
    }
  }
}

void IndexCalculator::rebuild_stage(FlatStage& stage, std::size_t capacity) {
  const FlatStage old = std::exchange(stage, FlatStage{});
  stage.keys.assign(capacity, 0);
  stage.labels.assign(capacity, kNoLabel);
  stage.tags.assign(capacity, kTagEmpty);
  stage.refs.assign(capacity, 0);
  stage.mask = capacity - 1;
  stage.used = old.live;
  stage.live = old.live;
  for (std::size_t i = 0; i < old.tags.size(); ++i) {
    if (old.tags[i] >= 0x80) continue;  // empty or tombstoned
    const std::uint64_t hash = mix64(old.keys[i]);
    const std::size_t index =
        tag_insert_slot(stage.tags.data(), stage.mask, hash);
    stage.tags[index] = tag_of(hash);
    stage.keys[index] = old.keys[i];
    stage.labels[index] = old.labels[i];
    stage.refs[index] = old.refs[i];
  }
}

void IndexCalculator::rebuild_final(std::size_t capacity) {
  const std::vector<std::uint64_t> old_keys = std::move(final_keys_);
  const std::vector<std::uint8_t> old_tags = std::move(final_tags_);
  const std::vector<std::uint32_t> old_offsets = std::move(final_offsets_);
  const std::vector<std::uint32_t> old_counts = std::move(final_counts_);
  const std::vector<std::uint32_t> old_rules = std::move(final_rules_);
  final_keys_.assign(capacity, 0);
  final_tags_.assign(capacity, kTagEmpty);
  final_offsets_.assign(capacity, 0);
  final_counts_.assign(capacity, 0);
  final_caps_.assign(capacity, 0);
  final_mask_ = capacity - 1;
  final_rules_.clear();
  final_used_ = final_live_;
  final_garbage_ = 0;
  for (std::size_t i = 0; i < old_tags.size(); ++i) {
    if (old_tags[i] >= 0x80) continue;  // empty or tombstoned
    const std::uint64_t hash = mix64(old_keys[i]);
    const std::size_t index =
        tag_insert_slot(final_tags_.data(), final_mask_, hash);
    final_tags_[index] = tag_of(hash);
    final_keys_[index] = old_keys[i];
    final_offsets_[index] = static_cast<std::uint32_t>(final_rules_.size());
    final_counts_[index] = old_counts[i];
    final_caps_[index] = old_counts[i];
    final_rules_.insert(final_rules_.end(),
                        old_rules.begin() + old_offsets[i],
                        old_rules.begin() + old_offsets[i] + old_counts[i]);
  }
}

std::uint32_t IndexCalculator::append_final_region(std::uint32_t capacity) {
  const auto offset = static_cast<std::uint32_t>(final_rules_.size());
  final_rules_.resize(final_rules_.size() + capacity, 0);
  return offset;
}

void IndexCalculator::final_add(Label final_label, std::uint32_t rule_index) {
  const std::uint64_t hash = mix64(final_label);
  std::size_t slot = find_final(final_label, hash);
  const bool fresh = slot == SIZE_MAX;
  // Rebuild triggers: key-table load past the shared 50% rule for a new
  // label, or more than half of final_rules_ abandoned.
  if ((fresh && flat_needs_rebuild(final_used_, final_tags_.size())) ||
      (final_rules_.size() >= 64 && 2 * final_garbage_ > final_rules_.size())) {
    rebuild_final(flat_tag_capacity(final_live_ + (fresh ? 1 : 0)));
    if (!fresh) slot = find_final(final_label, hash);
  }
  if (fresh) {
    // New final label: reuse the first empty-or-tombstoned slot on the
    // probe path.
    constexpr std::uint32_t kInitialCap = 2;
    slot = tag_insert_slot(final_tags_.data(), final_mask_, hash);
    if (final_tags_[slot] == kTagEmpty) ++final_used_;
    ++final_live_;
    final_tags_[slot] = tag_of(hash);
    final_keys_[slot] = final_label;
    final_offsets_[slot] = append_final_region(kInitialCap);
    final_caps_[slot] = kInitialCap;
    final_counts_[slot] = 0;
  } else if (final_counts_[slot] == final_caps_[slot]) {
    // Region full: relocate to a doubled region at the tail; the old region
    // becomes garbage until the next compaction.
    const std::uint32_t new_cap = final_caps_[slot] * 2;
    const std::uint32_t new_offset = append_final_region(new_cap);
    std::copy(final_rules_.begin() + final_offsets_[slot],
              final_rules_.begin() + final_offsets_[slot] + final_counts_[slot],
              final_rules_.begin() + new_offset);
    final_garbage_ += final_caps_[slot];
    final_offsets_[slot] = new_offset;
    final_caps_[slot] = new_cap;
  }
  final_rules_[final_offsets_[slot] + final_counts_[slot]++] = rule_index;
}

Label IndexCalculator::probe_stage(const FlatStage& stage, PairKey key) const {
  const std::size_t index =
      tag_find(stage.tags.data(), stage.mask, mix64(key),
               [&](std::size_t slot) { return stage.keys[slot] == key; });
  return index == SIZE_MAX ? kNoLabel : stage.labels[index];
}

std::size_t IndexCalculator::find_final(Label final_label,
                                        std::uint64_t hash) const {
  return tag_find(final_tags_.data(), final_mask_, hash,
                  [&](std::size_t s) { return final_keys_[s] == final_label; });
}

void IndexCalculator::append_final_rules(std::size_t slot,
                                         std::vector<std::uint32_t>& out) const {
  const std::uint32_t offset = final_offsets_[slot];
  const std::uint32_t count = final_counts_[slot];
  reserve_for_append(out, count);
  out.insert(out.end(), final_rules_.begin() + offset,
             final_rules_.begin() + offset + count);
}

void IndexCalculator::query_batch(SearchContext& ctx) const {
  const std::size_t lanes = ctx.lanes();
  if (ctx.algorithms() != stage_count_ + 1) {
    throw std::invalid_argument("candidate arity mismatch");
  }
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    ctx.lane_matches(lane).clear();
  }
  // All lanes' working label sets live in one flat arena (lane i's window is
  // [off[i], off[i+1])); two generations swap per stage. Compared to one
  // vector per lane this keeps the stage loop's loads sequential and makes
  // the per-stage clear O(1).
  auto& cur = ctx.pool_current();
  auto& cur_off = ctx.pool_offsets_current();
  auto& nxt = ctx.pool_next();
  auto& nxt_off = ctx.pool_offsets_next();
  cur.clear();
  cur_off.clear();
  cur_off.push_back(0);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const LabelList& first = ctx.packet_candidates(lane)[0];
    reserve_for_append(cur, first.size());
    cur.insert(cur.end(), first.begin(), first.end());
    cur_off.push_back(static_cast<std::uint32_t>(cur.size()));
  }
  // Stage-synchronous progressive combination over lane windows (the same
  // 8-lane windowing idiom as ExactMatchLut::lookup_batch — wider windows
  // would outrun the hardware's outstanding-fill budget): within a window,
  // pass 1 hashes every lane's (accumulated, candidate) pairs once and
  // prefetches their probe groups; pass 2 resolves them in the same order
  // with the stored hashes. Both paths walk each lane's pairs in the same
  // order, so a lane's match list is the same whichever path runs and
  // whatever lanes share its batch.
  constexpr std::size_t kLanes = 8;
  // Stage tables at or below this capacity are cache-resident: probing them
  // directly beats staging keys/hashes and issuing prefetches that can't
  // miss. (13 bytes/slot, so 4096 slots ~= 52 KB.)
  constexpr std::size_t kResidentSlots = 4096;
  auto& keys = ctx.batch_keys();
  auto& hashes = ctx.batch_hashes();
  for (std::size_t stage = 0; stage < stage_count_; ++stage) {
    const FlatStage& flat = stages_[stage];
    nxt.clear();
    nxt_off.clear();
    nxt_off.push_back(0);
    if (flat.tags.size() <= kResidentSlots) {
      // Fused single pass, same per-lane pair order as the windowed path.
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        const LabelList& candidates = ctx.packet_candidates(lane)[stage + 1];
        for (std::uint32_t i = cur_off[lane]; i < cur_off[lane + 1]; ++i) {
          const Label accumulated = cur[i];
          for (const Label candidate : candidates) {
            const Label combined =
                probe_stage(flat, pair_key(accumulated, candidate));
            if (combined != kNoLabel) nxt.push_back(combined);
          }
        }
        nxt_off.push_back(static_cast<std::uint32_t>(nxt.size()));
      }
      cur.swap(nxt);
      cur_off.swap(nxt_off);
      continue;
    }
    for (std::size_t base = 0; base < lanes; base += kLanes) {
      const std::size_t window = std::min(kLanes, lanes - base);
      keys.clear();
      hashes.clear();
      for (std::size_t lane = base; lane < base + window; ++lane) {
        const LabelList& candidates = ctx.packet_candidates(lane)[stage + 1];
        for (std::uint32_t i = cur_off[lane]; i < cur_off[lane + 1]; ++i) {
          const Label accumulated = cur[i];
          for (const Label candidate : candidates) {
            const PairKey key = pair_key(accumulated, candidate);
            const std::uint64_t hash = mix64(key);
            keys.push_back(key);
            hashes.push_back(hash);
            const std::size_t group = tag_group_of(hash, flat.mask);
            __builtin_prefetch(flat.tags.data() + group);
            __builtin_prefetch(flat.keys.data() + group);
            __builtin_prefetch(flat.labels.data() + group);
          }
        }
      }
      std::size_t k = 0;
      for (std::size_t lane = base; lane < base + window; ++lane) {
        const std::size_t pairs =
            (cur_off[lane + 1] - cur_off[lane]) *
            ctx.packet_candidates(lane)[stage + 1].size();
        for (std::size_t p = 0; p < pairs; ++p, ++k) {
          const PairKey key = keys[k];
          const std::size_t index =
              tag_find(flat.tags.data(), flat.mask, hashes[k],
                       [&](std::size_t slot) { return flat.keys[slot] == key; });
          if (index != SIZE_MAX) nxt.push_back(flat.labels[index]);
        }
        nxt_off.push_back(static_cast<std::uint32_t>(nxt.size()));
      }
    }
    cur.swap(nxt);
    cur_off.swap(nxt_off);
  }
  // Final stage, same windowing: hash + prefetch the window's final-label
  // slots, then gather the CSR rule lists. Cache-resident final tables skip
  // the staging here too.
  if (final_tags_.size() <= kResidentSlots) {
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      auto& out = ctx.lane_matches(lane);
      for (std::uint32_t i = cur_off[lane]; i < cur_off[lane + 1]; ++i) {
        const std::size_t slot = find_final(cur[i], mix64(cur[i]));
        if (slot != SIZE_MAX) append_final_rules(slot, out);
      }
    }
    return;
  }
  for (std::size_t base = 0; base < lanes; base += kLanes) {
    const std::size_t window = std::min(kLanes, lanes - base);
    hashes.clear();
    for (std::uint32_t i = cur_off[base]; i < cur_off[base + window]; ++i) {
      const std::uint64_t hash = mix64(cur[i]);
      hashes.push_back(hash);
      const std::size_t group = tag_group_of(hash, final_mask_);
      __builtin_prefetch(final_tags_.data() + group);
      __builtin_prefetch(final_keys_.data() + group);
      __builtin_prefetch(final_offsets_.data() + group);
      __builtin_prefetch(final_counts_.data() + group);
    }
    std::size_t k = 0;
    for (std::size_t lane = base; lane < base + window; ++lane) {
      auto& out = ctx.lane_matches(lane);
      for (std::uint32_t i = cur_off[lane]; i < cur_off[lane + 1]; ++i, ++k) {
        const std::size_t slot = find_final(cur[i], hashes[k]);
        if (slot != SIZE_MAX) append_final_rules(slot, out);
      }
    }
  }
}

mem::MemoryReport IndexCalculator::memory_report(const std::string& prefix) const {
  mem::MemoryReport report;
  for (std::size_t stage = 0; stage < stage_count_; ++stage) {
    // One word per valid pair: two input labels + the combined label.
    const std::size_t pairs = stages_[stage].live;
    const unsigned in_bits =
        2 * (next_intermediate_[stage] <= 1
                 ? 1
                 : bits_for_max_value(next_intermediate_[stage]));
    const unsigned out_bits =
        next_intermediate_[stage] <= 1 ? 1 : ceil_log2(next_intermediate_[stage]);
    report.add(prefix + ".stage" + std::to_string(stage), pairs,
               in_bits + out_bits);
  }
  report.add(prefix + ".final", final_live_, 32);
  return report;
}

std::uint64_t IndexCalculator::update_words() const {
  std::uint64_t words = rule_count_;
  for (const FlatStage& stage : stages_) words += stage.live;
  return words;
}

}  // namespace ofmtl
