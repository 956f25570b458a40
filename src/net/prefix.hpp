// Prefixes and ranges — the two wildcard match syntaxes of OpenFlow fields.
#pragma once

#include <compare>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/types.hpp"

namespace ofmtl {

/// A prefix over a field of up to 128 bits: `length` significant high bits of
/// `value`; the remaining low bits are wildcarded. A zero-length prefix
/// matches everything (the routing default route 0.0.0.0/0).
class Prefix {
 public:
  constexpr Prefix() = default;

  /// Builds a prefix. `width` is the field width in bits; `length <= width`.
  /// Bits of `value` below the prefix length are cleared so that equal
  /// prefixes compare equal.
  constexpr Prefix(U128 value, unsigned length, unsigned width)
      : width_(width), length_(length) {
    if (length > width || width > 128) {
      throw std::invalid_argument("invalid prefix length/width");
    }
    // Store left-aligned at bit 127 so partition extraction is uniform.
    const U128 aligned = value << (128 - width);
    value_ = aligned & high_mask128(length);
  }

  [[nodiscard]] static constexpr Prefix from_value(std::uint64_t value,
                                                   unsigned length,
                                                   unsigned width) {
    return Prefix{U128{value}, length, width};
  }

  /// A full-width (exact) prefix.
  [[nodiscard]] static constexpr Prefix exact(std::uint64_t value, unsigned width) {
    return from_value(value, width, width);
  }

  [[nodiscard]] constexpr unsigned width() const { return width_; }
  [[nodiscard]] constexpr unsigned length() const { return length_; }
  [[nodiscard]] constexpr bool is_wildcard_all() const { return length_ == 0; }
  [[nodiscard]] constexpr bool is_exact() const { return length_ == width_; }

  /// The prefix value right-aligned into the field width (low `width` bits).
  [[nodiscard]] constexpr U128 value() const { return value_ >> (128 - width_); }

  /// The prefix value as u64 (widths <= 64 only).
  [[nodiscard]] constexpr std::uint64_t value64() const {
    if (width_ > 64) throw std::logic_error("value64 on wide prefix");
    return value().lo;
  }

  /// True if `key` (right-aligned, low `width` bits) matches this prefix.
  [[nodiscard]] constexpr bool matches(U128 key) const {
    const U128 aligned = key << (128 - width_);
    return (aligned & high_mask128(length_)) == value_;
  }
  [[nodiscard]] constexpr bool matches(std::uint64_t key) const {
    return matches(U128{key});
  }

  /// Extract `bits` bits of the (left-aligned) prefix value starting at
  /// `offset` bits from the top of the field.
  [[nodiscard]] constexpr std::uint64_t slice(unsigned offset, unsigned bits) const {
    return value_.bits_from_top(offset, bits);
  }

  /// The 16-bit partition at `index` (0 = highest 16 bits of the field).
  [[nodiscard]] constexpr std::uint16_t partition16(unsigned index) const {
    return static_cast<std::uint16_t>(slice(16 * index, 16));
  }

  /// How many bits of this prefix fall inside partition `index` of 16 bits:
  /// 16 for fully covered partitions, 0..15 for the partition the prefix ends
  /// in, 0 beyond it.
  [[nodiscard]] constexpr unsigned partition16_length(unsigned index) const {
    const unsigned start = 16 * index;
    if (length_ <= start) return 0;
    const unsigned remaining = length_ - start;
    return remaining >= 16 ? 16 : remaining;
  }

  /// True if this prefix is itself a prefix of (or equal to) `other`,
  /// i.e. the set of keys it matches is a superset.
  [[nodiscard]] constexpr bool covers(const Prefix& other) const {
    if (width_ != other.width_ || length_ > other.length_) return false;
    return (other.value_ & high_mask128(length_)) == value_;
  }

  [[nodiscard]] std::string to_string() const;

  friend constexpr auto operator<=>(const Prefix&, const Prefix&) = default;

 private:
  U128 value_{};        // left-aligned at bit 127
  unsigned width_ = 0;  // field width in bits
  unsigned length_ = 0; // significant bits
};

/// An inclusive value range [lo, hi] over a field of up to 64 bits — the
/// match syntax of the transport-port fields (RM in Table II).
struct ValueRange {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  [[nodiscard]] constexpr bool contains(std::uint64_t key) const {
    return lo <= key && key <= hi;
  }
  [[nodiscard]] constexpr std::uint64_t span() const { return hi - lo; }
  friend constexpr auto operator<=>(const ValueRange&, const ValueRange&) = default;
};

/// Expand a range into the minimal set of prefixes covering it (classic
/// range-to-prefix conversion; used by the TCAM baseline and by RM-over-trie).
[[nodiscard]] std::vector<Prefix> range_to_prefixes(const ValueRange& range,
                                                    unsigned width);

}  // namespace ofmtl
