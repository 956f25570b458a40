// Raw packet codec: builds and parses the byte-level header stacks the
// OpenFlow fields are extracted from (Ethernet, 802.1Q VLAN, MPLS, IPv4,
// IPv6, TCP/UDP). This is the "Packet Header" input of Fig. 1 — the
// Partition/Selector operates on the PacketHeader produced here.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/header.hpp"

namespace ofmtl {

/// Well-known EtherType values used by the codec.
enum class EtherType : std::uint16_t {
  kIpv4 = 0x0800,
  kArp = 0x0806,
  kVlan = 0x8100,
  kIpv6 = 0x86DD,
  kMplsUnicast = 0x8847,
};

/// Adversarial-input bounds of the parser: deeper VLAN / MPLS stacks are
/// rejected rather than walked (a crafted packet could otherwise stall the
/// parser on kilobytes of nested tags).
inline constexpr unsigned kMaxVlanDepth = 4;
inline constexpr unsigned kMaxMplsDepth = 8;

/// IP protocol numbers used by the codec.
enum class IpProto : std::uint8_t {
  kIcmp = 1,
  kTcp = 6,
  kUdp = 17,
};

/// Description of a packet to synthesize; optional layers are emitted only
/// when set. This is also what parsing returns (plus the flattened
/// PacketHeader).
struct PacketSpec {
  MacAddress eth_src;
  MacAddress eth_dst;
  std::optional<std::uint16_t> vlan_id;     // 12-bit VID on the wire
  std::optional<std::uint8_t> vlan_pcp;
  std::optional<std::uint32_t> mpls_label;  // 20-bit
  std::uint16_t eth_type = 0;               // innermost EtherType
  std::optional<Ipv4Address> ipv4_src;
  std::optional<Ipv4Address> ipv4_dst;
  std::optional<Ipv6Address> ipv6_src;
  std::optional<Ipv6Address> ipv6_dst;
  std::uint8_t ip_proto = 0;
  std::uint8_t ip_tos = 0;                  // DSCP: the ToS / traffic-class byte >> 2
  std::optional<std::uint16_t> src_port;
  std::optional<std::uint16_t> dst_port;
  std::vector<std::uint8_t> payload;
};

/// Serialize a PacketSpec into wire bytes.
[[nodiscard]] std::vector<std::uint8_t> serialize_packet(const PacketSpec& spec);

/// Result of parsing a raw packet.
struct ParsedPacket {
  PacketSpec spec;
  PacketHeader header;  ///< flattened OpenFlow match-field view
};

/// Parse wire bytes back into a spec + flattened header. `in_port` seeds the
/// kInPort field, which is metadata of the receiving switch rather than a
/// packet byte. Throws std::invalid_argument on truncated, overrunning, or
/// otherwise malformed packets (VLAN/MPLS stacks beyond kMaxVlanDepth /
/// kMaxMplsDepth, IPv4 IHL < 5, IPv4 total length / IPv6 payload length
/// inconsistent with the buffer). Runs the same wire walk as
/// parse_packet_header; the spec is read back off the parsed header.
[[nodiscard]] ParsedPacket parse_packet(std::span<const std::uint8_t> bytes,
                                        std::uint32_t in_port);

/// Span-based scalar entry point for the batched trace front end: one
/// bounds-checked pass over the frame that writes the match-field view into
/// `out` in place — no intermediate spec, no temporary header, no payload
/// copy, no allocation, no exception on malformed input. Returns false when
/// the frame is rejected (`out` is then unspecified); accepted frames yield
/// a header bitwise-identical to parse_packet(bytes, in_port).header.
///
/// `wire_len` is the frame's original on-wire length when `bytes` is only
/// a captured prefix (a snap-length-capped pcap record; pcap's orig_len).
/// Length fields are then validated against the wire, not the capture —
/// "claims bytes beyond the wire frame" stays malformed, "claims bytes the
/// capture cut off" parses gracefully with the snapped-off fields absent.
/// 0 (and anything below bytes.size()) means the capture is the frame.
[[nodiscard]] bool parse_packet_header(std::span<const std::uint8_t> bytes,
                                       std::uint32_t in_port, PacketHeader& out,
                                       std::size_t wire_len = 0) noexcept;

/// Flatten a spec directly into the match-field view without a byte
/// round-trip (used by trace generators for speed).
[[nodiscard]] PacketHeader header_from_spec(const PacketSpec& spec,
                                            std::uint32_t in_port);

/// Wire canonicalization: project an arbitrary match-field header onto the
/// nearest PacketSpec the byte codec can represent. Synthetic headers range
/// over field combinations raw Ethernet cannot carry; the projection makes
/// them serializable at the cost of a lossy but deterministic rewrite:
///   - layers exist only when their anchor fields do (a VLAN tag iff
///     kVlanId; an IPv4/IPv6 header iff either address; L4 ports iff an IP
///     layer with a TCP/UDP protocol carries them), missing halves are
///     zero-filled, and IPv4 wins when both address families are present;
///   - the VLAN ID is masked to its 12 wire bits and an emitted tag always
///     carries a PCP (0 when absent); kIpTos is masked to its 6 DSCP bits;
///   - the EtherType is forced by the innermost layer (0x0800 / 0x86DD /
///     0 under MPLS, whose inner type is implicit), and a layer-announcing
///     EtherType with no matching layer (VLAN / MPLS) is cleared to 0 so
///     the parser cannot be derailed;
///   - MPLS under the codec encapsulates IPv4 only, so a label is dropped
///     from IPv6 packets; kInPort and kMetadata are switch metadata and
///     never reach the wire.
[[nodiscard]] PacketSpec spec_from_header(const PacketHeader& header);

/// The header a replay of the exported packet parses back to:
/// header_from_spec(spec_from_header(header), in_port). Idempotent in its
/// first argument, and a fixed point of serialize→parse:
/// parse_packet(serialize_packet(spec_from_header(h)), p).header ==
/// canonical_wire_header(h, p) — property-tested in tests/test_trace_replay.
[[nodiscard]] PacketHeader canonical_wire_header(const PacketHeader& header,
                                                 std::uint32_t in_port);

}  // namespace ofmtl
