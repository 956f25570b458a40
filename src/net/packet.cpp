#include "net/packet.hpp"

#include <algorithm>
#include <stdexcept>

namespace ofmtl {

namespace {

class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v >> 8));
    u8(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void u48(std::uint64_t v) {
    u16(static_cast<std::uint16_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  void u128(const U128& v) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<std::uint8_t>(v.hi >> (56 - 8 * i)));
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<std::uint8_t>(v.lo >> (56 - 8 * i)));
  }

 private:
  std::vector<std::uint8_t>& out_;
};

[[nodiscard]] bool has_l4_ports(std::uint8_t proto) {
  return proto == static_cast<std::uint8_t>(IpProto::kTcp) ||
         proto == static_cast<std::uint8_t>(IpProto::kUdp);
}

/// Big-endian `Width`-byte load at a position the caller bounds-checked.
template <unsigned Width>
[[nodiscard]] std::uint64_t load_be(const std::uint8_t* p) {
  std::uint64_t value = 0;
  for (unsigned i = 0; i < Width; ++i) value = (value << 8) | p[i];
  return value;
}

// The one layer walk behind parse_packet and parse_packet_header: a single
// bounds-checked pass that writes the match-field view into `out` in place
// and sets `end` to the offset the payload starts at. Returns nullptr on
// success, a static error string on malformed input (`out` is then
// unspecified). Never throws.
//
// `snap_slack` is how many trailing on-wire bytes the capture cut off
// (pcap orig_len - incl_len; 0 for a complete frame). L3 length fields are
// validated against the wire (capture + slack) so a snap-length-capped
// record parses gracefully — snapped-off fields are absent, not errors —
// while a frame whose lengths overrun the actual wire stays malformed.
[[nodiscard]] const char* walk_layers(std::span<const std::uint8_t> bytes,
                                      std::size_t snap_slack, std::uint32_t in_port,
                                      PacketHeader& out, std::size_t& end) {
  const std::uint8_t* p = bytes.data();
  const std::size_t size = bytes.size();
  if (size < 14) return "truncated packet";
  out = PacketHeader{};
  out.set_in_port(in_port);
  out.set(FieldId::kEthDst, load_be<6>(p));
  out.set(FieldId::kEthSrc, load_be<6>(p + 6));
  auto ether_type = static_cast<std::uint16_t>(load_be<2>(p + 12));
  std::size_t pos = 14;

  unsigned vlan_tags = 0;
  while (ether_type == static_cast<std::uint16_t>(EtherType::kVlan)) {
    if (++vlan_tags > kMaxVlanDepth) return "VLAN stack too deep";
    if (size - pos < 4) return "truncated VLAN tag";
    const auto tci = static_cast<std::uint16_t>(load_be<2>(p + pos));
    ether_type = static_cast<std::uint16_t>(load_be<2>(p + pos + 2));
    pos += 4;
    if (vlan_tags == 1) {  // OpenFlow matches the outermost tag
      out.set_vlan_id(tci & 0x0FFF);
      out.set_vlan_pcp(static_cast<std::uint8_t>(tci >> 13));
    }
  }

  if (ether_type == static_cast<std::uint16_t>(EtherType::kMplsUnicast)) {
    unsigned depth = 0;
    bool bottom = false;
    while (!bottom) {
      if (++depth > kMaxMplsDepth) return "MPLS stack too deep";
      if (size - pos < 4) return "truncated MPLS shim";
      const auto shim = static_cast<std::uint32_t>(load_be<4>(p + pos));
      pos += 4;
      if (depth == 1) out.set_mpls_label(shim >> 12);  // outermost label
      bottom = ((shim >> 8) & 1) != 0;
    }
    // The codec emits bottom-of-stack IPv4 under MPLS; the inner EtherType
    // is implicit, so the header's eth_type stays 0 (matches the serializer).
    ether_type = static_cast<std::uint16_t>(EtherType::kIpv4);
    out.set_eth_type(0);
  } else {
    out.set_eth_type(ether_type);
  }

  bool has_l3 = false;
  std::uint8_t proto = 0;
  std::size_t l4_claimed = 0;  // L4 bytes the L3 length fields account for
  const std::size_t l3_avail = size - pos;
  const std::uint8_t* ip = p + pos;
  if (ether_type == static_cast<std::uint16_t>(EtherType::kIpv4) && l3_avail >= 20) {
    if ((ip[0] >> 4) != 4) return "bad IPv4 version";
    const std::size_t ihl_bytes = (ip[0] & 0xFU) * 4U;
    if (ihl_bytes < 20) return "bad IPv4 IHL";
    const std::size_t total_len = load_be<2>(ip + 2);
    if (total_len < ihl_bytes) return "IPv4 total length below header";
    if (total_len > l3_avail + snap_slack) return "IPv4 total length beyond wire";
    proto = ip[9];
    out.set_ip_tos(static_cast<std::uint8_t>(ip[1] >> 2));  // DSCP; ECN dropped
    out.set_ip_proto(proto);
    out.set_ipv4_src(Ipv4Address{static_cast<std::uint32_t>(load_be<4>(ip + 12))});
    out.set_ipv4_dst(Ipv4Address{static_cast<std::uint32_t>(load_be<4>(ip + 16))});
    // Options the capture snapped off just end the walk (no ports left to
    // read); on a complete frame they always fit, because total_len <=
    // l3_avail was checked above.
    pos += std::min(ihl_bytes, l3_avail);
    l4_claimed = total_len - ihl_bytes;
    has_l3 = true;
  } else if (ether_type == static_cast<std::uint16_t>(EtherType::kIpv6) &&
             l3_avail >= 40) {
    const auto vtf = static_cast<std::uint32_t>(load_be<4>(ip));
    if ((vtf >> 28) != 6) return "bad IPv6 version";
    const std::size_t payload_len = load_be<2>(ip + 4);
    if (payload_len > l3_avail + snap_slack - 40) {
      return "IPv6 payload length beyond wire";
    }
    proto = ip[6];
    out.set_ip_tos(static_cast<std::uint8_t>((vtf >> 22) & 0x3F));  // DSCP
    out.set_ip_proto(proto);
    out.set_ipv6_src(Ipv6Address{U128{load_be<8>(ip + 8), load_be<8>(ip + 16)}});
    out.set_ipv6_dst(Ipv6Address{U128{load_be<8>(ip + 24), load_be<8>(ip + 32)}});
    pos += 40;
    l4_claimed = payload_len;
    has_l3 = true;
  }

  // Ports are attributed only when the L3 length fields actually cover
  // them — trailing bytes beyond the claimed length are payload, not an L4
  // header (the "inner-header overrun" case).
  if (has_l3 && has_l4_ports(proto) && l4_claimed >= 8 && size - pos >= 8) {
    out.set_src_port(static_cast<std::uint16_t>(load_be<2>(p + pos)));
    out.set_dst_port(static_cast<std::uint16_t>(load_be<2>(p + pos + 2)));
    pos += 8;
  }
  end = pos;
  return nullptr;
}

}  // namespace

std::vector<std::uint8_t> serialize_packet(const PacketSpec& spec) {
  std::vector<std::uint8_t> bytes;
  ByteWriter w{bytes};
  w.u48(spec.eth_dst.value());
  w.u48(spec.eth_src.value());
  if (spec.vlan_id) {
    w.u16(static_cast<std::uint16_t>(EtherType::kVlan));
    const std::uint16_t pcp = spec.vlan_pcp.value_or(0) & 0x7;
    w.u16(static_cast<std::uint16_t>((pcp << 13) | (*spec.vlan_id & 0x0FFF)));
  }
  if (spec.mpls_label) {
    w.u16(static_cast<std::uint16_t>(EtherType::kMplsUnicast));
    // Label(20) | TC(3) | S(1)=1 | TTL(8)
    w.u32(((*spec.mpls_label & 0xFFFFF) << 12) | (1U << 8) | 64U);
  } else {
    w.u16(spec.eth_type);
  }
  // The L4 block below is emitted only when the ports are actually set, so
  // the length fields must count it under the same condition (a TCP proto
  // with no ports used to claim 8 phantom bytes, which the hardened parser
  // rightly rejects as an overrun).
  const bool emits_l4 =
      has_l4_ports(spec.ip_proto) && spec.src_port && spec.dst_port;
  if (spec.ipv4_src && spec.ipv4_dst) {
    const std::uint16_t l4 = emits_l4 ? 8 : 0;
    const auto total =
        static_cast<std::uint16_t>(20 + l4 + spec.payload.size());
    w.u8(0x45);  // version 4, IHL 5
    w.u8(static_cast<std::uint8_t>((spec.ip_tos & 0x3FU) << 2));  // DSCP, ECN 0
    w.u16(total);
    w.u16(0);          // identification
    w.u16(0x4000);     // flags: DF
    w.u8(64);          // TTL
    w.u8(spec.ip_proto);
    w.u16(0);          // checksum (not modelled)
    w.u32(spec.ipv4_src->value());
    w.u32(spec.ipv4_dst->value());
  } else if (spec.ipv6_src && spec.ipv6_dst) {
    const std::uint16_t l4 = emits_l4 ? 8 : 0;
    w.u32((6U << 28) | (std::uint32_t{spec.ip_tos & 0x3FU} << 22));
    w.u16(static_cast<std::uint16_t>(l4 + spec.payload.size()));
    w.u8(spec.ip_proto);  // next header
    w.u8(64);             // hop limit
    w.u128(spec.ipv6_src->value());
    w.u128(spec.ipv6_dst->value());
  }
  if (emits_l4) {
    w.u16(*spec.src_port);
    w.u16(*spec.dst_port);
    w.u16(0);  // UDP length / TCP seq stub
    w.u16(0);
  }
  bytes.insert(bytes.end(), spec.payload.begin(), spec.payload.end());
  return bytes;
}

PacketHeader header_from_spec(const PacketSpec& spec, std::uint32_t in_port) {
  PacketHeader h;
  h.set_in_port(in_port);
  h.set_eth_src(spec.eth_src);
  h.set_eth_dst(spec.eth_dst);
  h.set_eth_type(spec.eth_type);
  if (spec.vlan_id) h.set_vlan_id(*spec.vlan_id);
  if (spec.vlan_pcp) h.set_vlan_pcp(*spec.vlan_pcp);
  if (spec.mpls_label) h.set_mpls_label(*spec.mpls_label);
  if (spec.ipv4_src) h.set_ipv4_src(*spec.ipv4_src);
  if (spec.ipv4_dst) h.set_ipv4_dst(*spec.ipv4_dst);
  if (spec.ipv6_src) h.set_ipv6_src(*spec.ipv6_src);
  if (spec.ipv6_dst) h.set_ipv6_dst(*spec.ipv6_dst);
  if (spec.ipv4_src || spec.ipv6_src) {
    h.set_ip_proto(spec.ip_proto);
    h.set_ip_tos(spec.ip_tos);
  }
  if (spec.src_port) h.set_src_port(*spec.src_port);
  if (spec.dst_port) h.set_dst_port(*spec.dst_port);
  return h;
}

ParsedPacket parse_packet(std::span<const std::uint8_t> bytes,
                          std::uint32_t in_port) {
  ParsedPacket parsed;
  std::size_t end = 0;
  if (const char* error = walk_layers(bytes, /*snap_slack=*/0, in_port,
                                      parsed.header, end)) {
    throw std::invalid_argument(error);
  }
  // The spec is read back off the header: an optional is set iff the walk
  // set its field (it sets each layer's fields together), and absent
  // fields read 0.
  const PacketHeader& h = parsed.header;
  PacketSpec& spec = parsed.spec;
  spec.eth_src = MacAddress{h.get64(FieldId::kEthSrc)};
  spec.eth_dst = MacAddress{h.get64(FieldId::kEthDst)};
  spec.eth_type = static_cast<std::uint16_t>(h.get64(FieldId::kEthType));
  if (h.has(FieldId::kVlanId)) {
    spec.vlan_id = static_cast<std::uint16_t>(h.get64(FieldId::kVlanId));
    spec.vlan_pcp = static_cast<std::uint8_t>(h.get64(FieldId::kVlanPcp));
  }
  if (h.has(FieldId::kMplsLabel)) {
    spec.mpls_label = static_cast<std::uint32_t>(h.get64(FieldId::kMplsLabel));
  }
  if (h.has(FieldId::kIpv4Src)) {
    spec.ipv4_src = Ipv4Address{static_cast<std::uint32_t>(h.get64(FieldId::kIpv4Src))};
    spec.ipv4_dst = Ipv4Address{static_cast<std::uint32_t>(h.get64(FieldId::kIpv4Dst))};
  }
  if (h.has(FieldId::kIpv6Src)) {
    spec.ipv6_src = Ipv6Address{h.get(FieldId::kIpv6Src)};
    spec.ipv6_dst = Ipv6Address{h.get(FieldId::kIpv6Dst)};
  }
  spec.ip_proto = static_cast<std::uint8_t>(h.get64(FieldId::kIpProto));
  spec.ip_tos = static_cast<std::uint8_t>(h.get64(FieldId::kIpTos));
  if (h.has(FieldId::kSrcPort)) {
    spec.src_port = static_cast<std::uint16_t>(h.get64(FieldId::kSrcPort));
    spec.dst_port = static_cast<std::uint16_t>(h.get64(FieldId::kDstPort));
  }
  spec.payload.assign(bytes.begin() + static_cast<std::ptrdiff_t>(end), bytes.end());
  return parsed;
}

bool parse_packet_header(std::span<const std::uint8_t> bytes,
                         std::uint32_t in_port, PacketHeader& out,
                         std::size_t wire_len) noexcept {
  const std::size_t slack = wire_len > bytes.size() ? wire_len - bytes.size() : 0;
  std::size_t end = 0;
  return walk_layers(bytes, slack, in_port, out, end) == nullptr;
}

PacketSpec spec_from_header(const PacketHeader& h) {
  PacketSpec spec;
  spec.eth_src =
      MacAddress{h.has(FieldId::kEthSrc) ? h.get64(FieldId::kEthSrc) : 0};
  spec.eth_dst =
      MacAddress{h.has(FieldId::kEthDst) ? h.get64(FieldId::kEthDst) : 0};
  if (h.has(FieldId::kVlanId)) {
    // Wire VID is 12 bits (the header field keeps 13 for the OpenFlow
    // PRESENT bit); an emitted tag always carries a PCP.
    spec.vlan_id = static_cast<std::uint16_t>(h.get64(FieldId::kVlanId)) & 0x0FFF;
    spec.vlan_pcp =
        h.has(FieldId::kVlanPcp)
            ? static_cast<std::uint8_t>(h.get64(FieldId::kVlanPcp) & 0x7)
            : std::uint8_t{0};
  }

  const bool v4 = h.has(FieldId::kIpv4Src) || h.has(FieldId::kIpv4Dst);
  // The serializer prefers IPv4 when both families are present.
  const bool v6 = !v4 && (h.has(FieldId::kIpv6Src) || h.has(FieldId::kIpv6Dst));
  if (h.has(FieldId::kMplsLabel) && !v6) {
    // The codec's MPLS payload is IPv4 with an implicit inner EtherType.
    spec.mpls_label =
        static_cast<std::uint32_t>(h.get64(FieldId::kMplsLabel)) & 0xFFFFF;
    spec.eth_type = 0;
  } else if (v4) {
    spec.eth_type = static_cast<std::uint16_t>(EtherType::kIpv4);
  } else if (v6) {
    spec.eth_type = static_cast<std::uint16_t>(EtherType::kIpv6);
  } else if (h.has(FieldId::kEthType)) {
    const auto type = static_cast<std::uint16_t>(h.get64(FieldId::kEthType));
    // A layer-announcing EtherType with no matching layer would derail the
    // parser into the (absent) tag/shim bytes; clear it.
    const bool announces_layer =
        type == static_cast<std::uint16_t>(EtherType::kVlan) ||
        type == static_cast<std::uint16_t>(EtherType::kMplsUnicast);
    spec.eth_type = announces_layer ? 0 : type;
  }

  if (v4) {
    spec.ipv4_src = Ipv4Address{static_cast<std::uint32_t>(
        h.has(FieldId::kIpv4Src) ? h.get64(FieldId::kIpv4Src) : 0)};
    spec.ipv4_dst = Ipv4Address{static_cast<std::uint32_t>(
        h.has(FieldId::kIpv4Dst) ? h.get64(FieldId::kIpv4Dst) : 0)};
  } else if (v6) {
    spec.ipv6_src = Ipv6Address{h.has(FieldId::kIpv6Src)
                                    ? h.get(FieldId::kIpv6Src)
                                    : U128{}};
    spec.ipv6_dst = Ipv6Address{h.has(FieldId::kIpv6Dst)
                                    ? h.get(FieldId::kIpv6Dst)
                                    : U128{}};
  }
  if (v4 || v6) {
    spec.ip_proto = h.has(FieldId::kIpProto)
                        ? static_cast<std::uint8_t>(h.get64(FieldId::kIpProto))
                        : std::uint8_t{0};
    spec.ip_tos = h.has(FieldId::kIpTos)
                      ? static_cast<std::uint8_t>(h.get64(FieldId::kIpTos) & 0x3F)
                      : std::uint8_t{0};
    if (has_l4_ports(spec.ip_proto) &&
        (h.has(FieldId::kSrcPort) || h.has(FieldId::kDstPort))) {
      spec.src_port = static_cast<std::uint16_t>(
          h.has(FieldId::kSrcPort) ? h.get64(FieldId::kSrcPort) : 0);
      spec.dst_port = static_cast<std::uint16_t>(
          h.has(FieldId::kDstPort) ? h.get64(FieldId::kDstPort) : 0);
    }
  }
  return spec;
}

PacketHeader canonical_wire_header(const PacketHeader& header,
                                   std::uint32_t in_port) {
  return header_from_spec(spec_from_header(header), in_port);
}

}  // namespace ofmtl
