// Two-choice cuckoo hash table — an alternative EM structure for the
// ablation against the paper's linear-probing LUT. Cuckoo tables reach much
// higher load factors (fewer slots for the same value count, i.e. less
// memory) at the cost of a bounded worst case of 2 parallel reads per
// lookup and occasional relocation chains on insert. A scalar reference
// implementation: it feeds the EM ablation, not the data path, so lookup()
// is its only query form.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/label.hpp"
#include "mem/memory_model.hpp"
#include "net/types.hpp"

namespace ofmtl {

class CuckooLut {
 public:
  explicit CuckooLut(unsigned key_bits);

  /// Insert a value, returning its stable label.
  Label insert(const U128& value);

  /// Remove a value (no tombstones needed — cuckoo deletion is exact).
  bool remove(const U128& value);

  /// Label of `value`: at most two bucket reads, one per table.
  [[nodiscard]] std::optional<Label> lookup(const U128& value) const;

  [[nodiscard]] std::size_t unique_values() const { return live_count_; }
  [[nodiscard]] std::size_t slot_count() const {
    return 2 * kBucketSlots * table_size_;
  }
  [[nodiscard]] unsigned key_bits() const { return key_bits_; }
  [[nodiscard]] unsigned slot_bits() const {
    return 1 + key_bits_ + encoder_.label_bits();
  }
  [[nodiscard]] std::uint64_t storage_bits() const {
    return slot_count() * static_cast<std::uint64_t>(slot_bits());
  }
  [[nodiscard]] mem::MemoryReport memory_report(const std::string& name) const;

  /// Relocations performed over the table's lifetime (insert-cost metric).
  [[nodiscard]] std::uint64_t relocations() const { return relocations_; }

 private:
  /// Two slots per bucket (2-way bucketized cuckoo): reaches ~90% combined
  /// load before kick chains explode, vs ~50% for single-slot buckets.
  static constexpr unsigned kBucketSlots = 2;

  struct Slot {
    std::optional<U128> value;
    Label label = kNoLabel;
  };
  struct Bucket {
    Slot slots[kBucketSlots];
  };

  [[nodiscard]] std::size_t index_of(const U128& value, unsigned table) const;
  bool place(const U128& value, Label label);
  void grow();

  unsigned key_bits_;
  std::size_t table_size_;  // buckets per table
  std::vector<Bucket> tables_[2];
  ValueLabelEncoder encoder_;
  std::size_t live_count_ = 0;
  std::uint64_t relocations_ = 0;
};

}  // namespace ofmtl
