// PacketHeader: the parsed per-packet field vector the lookup pipeline
// classifies. Values are stored right-aligned, one 64-bit word per field,
// plus the high words of the two 128-bit IPv6 fields: 152 bytes in all, the
// flow cache's key and the producer-to-worker handoff unit.
//
// `set` on a field of at most 64 bits stores the value's low word only. A
// wider value for such a field is out of its range; the control plane
// rejects it at install (`MultiTableLookup::apply`, kBadAction for a
// Set-Field), so only a `LookupTable` built or edited directly, outside
// `apply`, can present one.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "net/addresses.hpp"
#include "net/fields.hpp"
#include "net/types.hpp"

namespace ofmtl {

class PacketHeader {
 public:
  void set(FieldId id, U128 value) {
    lo_[index(id)] = value.lo;
    if (is_wide(id)) hi_[wide_index(id)] = value.hi;
    present_ |= bit(id);
  }
  void set(FieldId id, std::uint64_t value) { set(id, U128{value}); }

  void set_in_port(std::uint32_t port) { set(FieldId::kInPort, std::uint64_t{port}); }
  void set_eth_src(MacAddress mac) { set(FieldId::kEthSrc, mac.value()); }
  void set_eth_dst(MacAddress mac) { set(FieldId::kEthDst, mac.value()); }
  void set_eth_type(std::uint16_t type) { set(FieldId::kEthType, std::uint64_t{type}); }
  void set_vlan_id(std::uint16_t vid) { set(FieldId::kVlanId, std::uint64_t{vid}); }
  void set_vlan_pcp(std::uint8_t pcp) { set(FieldId::kVlanPcp, std::uint64_t{pcp}); }
  void set_mpls_label(std::uint32_t label) {
    set(FieldId::kMplsLabel, std::uint64_t{label});
  }
  void set_ipv4_src(Ipv4Address ip) { set(FieldId::kIpv4Src, std::uint64_t{ip.value()}); }
  void set_ipv4_dst(Ipv4Address ip) { set(FieldId::kIpv4Dst, std::uint64_t{ip.value()}); }
  void set_ipv6_src(const Ipv6Address& ip) { set(FieldId::kIpv6Src, ip.value()); }
  void set_ipv6_dst(const Ipv6Address& ip) { set(FieldId::kIpv6Dst, ip.value()); }
  void set_ip_proto(std::uint8_t proto) { set(FieldId::kIpProto, std::uint64_t{proto}); }
  void set_ip_tos(std::uint8_t dscp) { set(FieldId::kIpTos, std::uint64_t{dscp}); }
  void set_src_port(std::uint16_t port) { set(FieldId::kSrcPort, std::uint64_t{port}); }
  void set_dst_port(std::uint16_t port) { set(FieldId::kDstPort, std::uint64_t{port}); }
  void set_metadata(std::uint64_t metadata) { set(FieldId::kMetadata, metadata); }

  [[nodiscard]] U128 get(FieldId id) const {
    return {is_wide(id) ? hi_[wide_index(id)] : 0, lo_[index(id)]};
  }
  [[nodiscard]] std::uint64_t get64(FieldId id) const { return lo_[index(id)]; }
  [[nodiscard]] bool has(FieldId id) const { return (present_ & bit(id)) != 0; }
  /// Bitset of present fields (bit i = FieldId i). Fields never set() hold
  /// zero, so two headers with equal mask and equal present values compare
  /// equal — the invariant the flow-cache key hash relies on.
  [[nodiscard]] std::uint32_t present_mask() const { return present_; }

  [[nodiscard]] std::uint64_t metadata() const { return get64(FieldId::kMetadata); }

  /// The 16-bit partition of a field, index 0 = highest 16 bits (partial top
  /// partitions of non-multiple-of-16 fields are right-aligned within 16 bits).
  [[nodiscard]] std::uint16_t partition16(FieldId id, unsigned idx) const {
    const unsigned bits = field_bits(id);
    const unsigned parts = partition_count(bits);
    const unsigned low_shift = 16 * (parts - 1 - idx);
    return static_cast<std::uint16_t>((get(id) >> low_shift).lo & 0xFFFF);
  }

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const PacketHeader&, const PacketHeader&) = default;

 private:
  [[nodiscard]] static constexpr std::size_t index(FieldId id) {
    return static_cast<std::size_t>(id);
  }
  [[nodiscard]] static constexpr std::uint32_t bit(FieldId id) {
    return std::uint32_t{1} << index(id);
  }
  // kIpv6Src and kIpv6Dst are adjacent; they are the only fields > 64 bits.
  [[nodiscard]] static constexpr bool is_wide(FieldId id) {
    return wide_index(id) < 2;
  }
  [[nodiscard]] static constexpr std::size_t wide_index(FieldId id) {
    return index(id) - index(FieldId::kIpv6Src);  // wraps for narrower ids
  }

  std::array<std::uint64_t, kFieldCount> lo_{};
  std::array<std::uint64_t, 2> hi_{};  ///< IPv6 src, dst high words
  std::uint32_t present_ = 0;
};

}  // namespace ofmtl
