// Shared primitives of the flat open-addressing tables: the
// splitmix64 finalizer that spreads dense keys, the power-of-two capacity
// rule (>= 2x the entry count, so probe chains stay short and always find
// an empty slot), and the SwissTable-style tag-group probe loops every flat
// table routes its hot path through. Each slot owns a one-byte tag — the
// top 7 bits of its key's hash for live slots, a high-bit sentinel for
// empty/deleted — and probes walk 16-slot groups with one vector byte
// compare per group (core/simd.hpp) instead of touching one key per step.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/simd.hpp"

namespace ofmtl::detail {

/// Reserve power-of-two headroom before a bulk append of `extra` elements.
/// A bare range-insert() grows a vector to exact fit, so a reused scratch
/// vector re-allocates every time a batch produces a slightly larger
/// working set than any before it; doubling converges to a stable capacity
/// after a handful of batches, which the steady-state allocation-free
/// property tests rely on.
template <typename T>
inline void reserve_for_append(std::vector<T>& v, std::size_t extra) {
  const std::size_t need = v.size() + extra;
  if (need > v.capacity()) v.reserve(std::bit_ceil(need));
}

/// splitmix64 finalizer (Steele/Lea/Flood) — full-avalanche 64-bit mix.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t key) {
  std::uint64_t h = key + 0x9E3779B97F4A7C15ULL;
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
  return h ^ (h >> 31);
}

/// Smallest power-of-two capacity keeping load factor <= 50% (minimum 2).
[[nodiscard]] constexpr std::size_t flat_capacity(std::size_t count) {
  std::size_t capacity = 2;
  while (capacity < 2 * count) capacity <<= 1;
  return capacity;
}

/// Incremental-insert rebuild rule of IndexCalculator's tombstoning flat
/// tables (its stages and its final key table): with
/// `used` non-empty slots (live + tombstoned) in `capacity`, accepting one
/// more insert must keep at least half the slots truly empty, so probe
/// chains stay short and always terminate.
[[nodiscard]] constexpr bool flat_needs_rebuild(std::size_t used,
                                                std::size_t capacity) {
  return 2 * (used + 1) > capacity;
}

/// --- tag-group probing ------------------------------------------------------

/// Slots probed per vector compare; also the minimum table capacity.
inline constexpr std::size_t kTagGroup = 16;
/// Never-used slot. Terminates probe walks (a group containing one proves
/// the key is absent beyond it).
inline constexpr std::uint8_t kTagEmpty = 0xFF;
/// Tombstoned slot: probes walk past it, inserts may reuse it.
inline constexpr std::uint8_t kTagDeleted = 0xFE;

/// Live-slot tag: the hash's top 7 bits (0x00..0x7F — the high bit is the
/// sentinel namespace). The low bits pick the slot, so tag and position are
/// nearly independent.
[[nodiscard]] constexpr std::uint8_t tag_of(std::uint64_t hash) {
  return static_cast<std::uint8_t>(hash >> 57);
}

/// flat_capacity with the one-group floor tag probing needs.
[[nodiscard]] constexpr std::size_t flat_tag_capacity(std::size_t count) {
  const std::size_t capacity = flat_capacity(count);
  return capacity < kTagGroup ? kTagGroup : capacity;
}

/// Home group of `hash` (group-aligned slot index).
[[nodiscard]] constexpr std::size_t tag_group_of(std::uint64_t hash,
                                                 std::size_t mask) {
  return hash & mask & ~(kTagGroup - 1);
}

/// Find the live slot holding `hash`'s key: walk groups from the home group,
/// vector-compare each group's 16 tags against the hash tag, and verify only
/// the tag hits (`verify(slot)` checks the actual key; it only ever sees
/// live slots, since sentinels can't equal a 7-bit tag). A group containing
/// an empty slot ends the walk — inserts never place a key past the first
/// empty-bearing group. Returns SIZE_MAX when absent. Termination: every
/// table keeps >= half (LUT: >= 30%) of its slots truly empty via
/// flat_needs_rebuild / rehash, so an empty group member is always reached.
template <typename Verify>
[[nodiscard]] inline std::size_t tag_find(const std::uint8_t* tags,
                                          std::size_t mask, std::uint64_t hash,
                                          Verify&& verify) {
  const std::uint8_t tag = tag_of(hash);
  std::size_t group = tag_group_of(hash, mask);
  while (true) {
    std::uint32_t match = simd::match_bytes16(tags + group, tag);
    while (match != 0) {
      const auto slot = group + static_cast<std::size_t>(
                                    std::countr_zero(match));
      if (verify(slot)) return slot;
      match &= match - 1;
    }
    if (simd::match_bytes16(tags + group, kTagEmpty) != 0) return SIZE_MAX;
    group = (group + kTagGroup) & mask;
  }
}

/// First reusable slot (empty or tombstoned) on `hash`'s probe path. The
/// caller must have established the key is absent. Reusing a tombstone is
/// always safe for later finds: the chosen group is at or before the first
/// empty-bearing group, so every find walk still passes it.
[[nodiscard]] inline std::size_t tag_insert_slot(const std::uint8_t* tags,
                                                 std::size_t mask,
                                                 std::uint64_t hash) {
  std::size_t group = tag_group_of(hash, mask);
  while (true) {
    const std::uint32_t special = simd::match_special16(tags + group);
    if (special != 0) {
      return group + static_cast<std::size_t>(std::countr_zero(special));
    }
    group = (group + kTagGroup) & mask;
  }
}

}  // namespace ofmtl::detail
