#include "classifier/cuckoo_lut.hpp"

#include <stdexcept>
#include <utility>

namespace ofmtl {

namespace {
constexpr std::size_t kInitialTableSize = 8;
constexpr std::size_t kMaxKickChain = 64;
}  // namespace

CuckooLut::CuckooLut(unsigned key_bits)
    : key_bits_(key_bits), table_size_(kInitialTableSize) {
  if (key_bits == 0 || key_bits > 128) throw std::invalid_argument("bad key width");
  tables_[0].resize(table_size_);
  tables_[1].resize(table_size_);
}

std::size_t CuckooLut::index_of(const U128& value, unsigned table) const {
  std::uint64_t h = detail::U128Hash{}(value);
  if (table == 1) {
    // Independent second hash: remix.
    h ^= 0x94D049BB133111EBULL;
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 29;
  }
  return static_cast<std::size_t>(h) & (table_size_ - 1);
}

bool CuckooLut::place(const U128& value, Label label) {
  U128 current = value;
  Label current_label = label;
  unsigned table = 0;
  for (std::size_t kick = 0; kick < kMaxKickChain; ++kick) {
    // Try both candidate buckets of the current item before evicting.
    for (const unsigned t : {table, table ^ 1U}) {
      Bucket& bucket = tables_[t][index_of(current, t)];
      for (auto& slot : bucket.slots) {
        if (!slot.value) {
          slot.value = current;
          slot.label = current_label;
          return true;
        }
      }
    }
    // Both full: evict a pseudo-randomly chosen victim from this table's
    // bucket and retry it in its other table (deterministic victim choice
    // forms short kick cycles that trigger premature growth).
    Bucket& bucket = tables_[table][index_of(current, table)];
    const std::size_t pick =
        (detail::U128Hash{}(current) >> 17 ^ kick * 0x9E3779B9ULL) %
        kBucketSlots;
    Slot& victim = bucket.slots[pick];
    std::swap(current, *victim.value);
    std::swap(current_label, victim.label);
    ++relocations_;
    table ^= 1U;
  }
  // Kick chain too long: stash the displaced element by growing.
  const U128 stashed = current;
  const Label stashed_label = current_label;
  grow();
  return place(stashed, stashed_label);
}

void CuckooLut::grow() {
  std::vector<Bucket> old0 = std::move(tables_[0]);
  std::vector<Bucket> old1 = std::move(tables_[1]);
  table_size_ *= 2;
  tables_[0].assign(table_size_, Bucket{});
  tables_[1].assign(table_size_, Bucket{});
  for (const auto* old : {&old0, &old1}) {
    for (const auto& bucket : *old) {
      for (const auto& slot : bucket.slots) {
        if (slot.value) (void)place(*slot.value, slot.label);
      }
    }
  }
}

Label CuckooLut::insert(const U128& value) {
  if (const auto existing = lookup(value)) return *existing;
  const Label label = encoder_.encode(value);
  // 2-way bucketized cuckoo runs fine to ~90% combined load.
  if (live_count_ + 1 > (slot_count() * 9) / 10) grow();
  (void)place(value, label);
  ++live_count_;
  return label;
}

bool CuckooLut::remove(const U128& value) {
  for (unsigned table = 0; table < 2; ++table) {
    Bucket& bucket = tables_[table][index_of(value, table)];
    for (auto& slot : bucket.slots) {
      if (slot.value && *slot.value == value) {
        slot.value.reset();
        slot.label = kNoLabel;
        --live_count_;
        return true;
      }
    }
  }
  return false;
}

std::optional<Label> CuckooLut::lookup(const U128& value) const {
  for (unsigned table = 0; table < 2; ++table) {
    const Bucket& bucket = tables_[table][index_of(value, table)];
    for (const auto& slot : bucket.slots) {
      if (slot.value && *slot.value == value) return slot.label;
    }
  }
  return std::nullopt;
}

mem::MemoryReport CuckooLut::memory_report(const std::string& name) const {
  mem::MemoryReport report;
  report.add(name, slot_count(), slot_bits());
  return report;
}

}  // namespace ofmtl
