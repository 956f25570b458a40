#include "runtime/flow_cache.hpp"

#include "core/pipeline.hpp"

namespace ofmtl::runtime {

namespace {

/// Doorkeeper tag of a flow: the hash byte the slot index never uses, with
/// 0 kept for "no tag".
[[nodiscard]] std::uint8_t door_tag(std::uint64_t hash) {
  const auto tag = static_cast<std::uint8_t>(hash >> 56);
  return tag == 0 ? 1 : tag;
}

}  // namespace

FlowCache::FlowCache(std::size_t capacity) {
  std::size_t rounded = kProbeWindow;
  while (rounded < capacity) rounded <<= 1;
  windows_.resize(rounded / kProbeWindow);
  for (auto& window : windows_) window.epoch.fill(kEmpty);
  entries_.resize(rounded);
  doors_.resize(rounded);
  mask_ = rounded - 1;
}

const ExecutionResult* FlowCache::find(const PacketHeader& header,
                                       std::uint64_t hash,
                                       std::uint64_t epoch,
                                       const MultiTableLookup& tables) {
  const std::size_t w = window_of(hash);
  Window& window = windows_[w];
  for (std::size_t probe = 0; probe < kProbeWindow; ++probe) {
    if (window.hash[probe] != hash || window.epoch[probe] == kEmpty) continue;
    Entry& entry = entries_[w * kProbeWindow + probe];
    if (!(entry.key == header)) continue;
    if (window.epoch[probe] == epoch) {
      ++stats_.hits;
      return &entry.value;
    }
    // Stamped before a publish. Stamps only rise per worker (it acquires
    // its guards in order), so the side pinned now has logged everything
    // published since — unless the stamp fell below its log's floor.
    if (window.epoch[probe] < epoch &&
        tables.still_valid(header, entry.value, window.epoch[probe])) {
      window.epoch[probe] = epoch;
      ++stats_.revalidations;
      ++stats_.hits;
      return &entry.value;
    }
    // Report a miss; store() will refill this very slot.
    ++stats_.epoch_invalidations;
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.misses;
  return nullptr;
}

void FlowCache::prefetch_entries(std::uint64_t hash) const {
  const std::size_t w = window_of(hash);
  const Window& window = windows_[w];
  for (std::size_t probe = 0; probe < kProbeWindow; ++probe) {
    if (window.hash[probe] != hash) continue;
    const auto* bytes =
        reinterpret_cast<const char*>(&entries_[w * kProbeWindow + probe]);
    for (std::size_t offset = 0; offset < sizeof(Entry); offset += 64) {
      __builtin_prefetch(bytes + offset);
    }
  }
}

void FlowCache::store(const PacketHeader& header, std::uint64_t hash,
                      std::uint64_t epoch, const ExecutionResult& result) {
  const std::size_t w = window_of(hash);
  Window& window = windows_[w];
  constexpr std::size_t kNone = kProbeWindow;
  std::size_t empty = kNone;
  std::size_t stale = kNone;
  for (std::size_t probe = 0; probe < kProbeWindow; ++probe) {
    if (window.epoch[probe] == kEmpty) {
      if (empty == kNone) empty = probe;
      continue;
    }
    Entry& entry = entries_[w * kProbeWindow + probe];
    if (window.hash[probe] == hash && entry.key == header) {
      // Refresh in place (covers the epoch-invalidation refill path).
      window.epoch[probe] = epoch;
      entry.value = result;
      return;
    }
    if (stale == kNone && window.epoch[probe] != epoch) stale = probe;
  }
  std::size_t target = empty != kNone ? empty : stale;
  if (target == kNone) {
    // Probe window full of live current-epoch flows. Admit the refill only
    // on the flow's second try, so a stream of one-off flows costs a tag
    // write each instead of a result copy plus an eviction.
    std::uint8_t& door = doors_[hash & mask_];
    const std::uint8_t tag = door_tag(hash);
    if (door != tag) {
      door = tag;
      ++stats_.admissions_declined;
      return;
    }
    // Displace one, rotating the victim so one hot bucket does not starve.
    target = victim_rotor_++ % kProbeWindow;
    ++stats_.evictions;
  }
  Entry& entry = entries_[w * kProbeWindow + target];
  window.hash[target] = hash;
  window.epoch[target] = epoch;
  entry.key = header;
  entry.value = result;  // copy-assign: vectors keep high-water capacity
}

}  // namespace ofmtl::runtime
