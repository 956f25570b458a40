#include "core/flow_key.hpp"

#include <bit>

#include "core/flat_hash.hpp"

namespace ofmtl {

std::uint64_t flow_key_hash(const PacketHeader& header) {
  std::uint32_t mask = header.present_mask();
  std::uint64_t h = detail::mix64(mask);
  // Walk only the present fields (typically ~5 of 16): the field index is
  // folded in with the value so permuted tuples cannot collide trivially.
  while (mask != 0) {
    const unsigned field = static_cast<unsigned>(std::countr_zero(mask));
    mask &= mask - 1;
    const U128 value = header.get(static_cast<FieldId>(field));
    h = detail::mix64(h ^ (value.lo + field));
    if (value.hi != 0) h = detail::mix64(h ^ value.hi);
  }
  return h;
}

}  // namespace ofmtl
