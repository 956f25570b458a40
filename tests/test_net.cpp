// Tests for addresses, the Table II field registry, PacketHeader and the
// byte-level packet codec.
#include <gtest/gtest.h>

#include "core/flow_key.hpp"
#include "core/pipeline.hpp"
#include "net/addresses.hpp"
#include "net/fields.hpp"
#include "net/header.hpp"
#include "net/packet.hpp"
#include "workload/rng.hpp"

namespace ofmtl {
namespace {

TEST(MacAddress, ParseFormatRoundTrip) {
  const auto mac = MacAddress::parse("aa:bb:cc:01:02:03");
  EXPECT_EQ(mac.value(), 0xAABBCC010203ULL);
  EXPECT_EQ(mac.to_string(), "aa:bb:cc:01:02:03");
  EXPECT_EQ(mac.oui(), 0xAABBCCU);
  EXPECT_EQ(mac.nic(), 0x010203U);
}

TEST(MacAddress, Partition16) {
  const MacAddress mac{0xAABBCCDDEEFFULL};
  EXPECT_EQ(mac.partition16(0), 0xAABBU);
  EXPECT_EQ(mac.partition16(1), 0xCCDDU);
  EXPECT_EQ(mac.partition16(2), 0xEEFFU);
}

TEST(MacAddress, ParseRejectsGarbage) {
  EXPECT_THROW(MacAddress::parse("aa:bb:cc"), std::invalid_argument);
  EXPECT_THROW(MacAddress::parse("zz:bb:cc:01:02:03"), std::invalid_argument);
}

TEST(Ipv4Address, ParseFormatRoundTrip) {
  const auto ip = Ipv4Address::parse("192.168.1.200");
  EXPECT_EQ(ip.value(), 0xC0A801C8U);
  EXPECT_EQ(ip.to_string(), "192.168.1.200");
  EXPECT_EQ(ip.partition16(0), 0xC0A8U);
  EXPECT_EQ(ip.partition16(1), 0x01C8U);
}

TEST(Ipv4Address, ParseRejectsGarbage) {
  EXPECT_THROW(Ipv4Address::parse("1.2.3"), std::invalid_argument);
  EXPECT_THROW(Ipv4Address::parse("1.2.3.256"), std::invalid_argument);
}

TEST(Ipv6Address, Partitions) {
  const Ipv6Address ip{U128{0x20010DB800000001ULL, 0x0000000000000042ULL}};
  EXPECT_EQ(ip.partition16(0), 0x2001U);
  EXPECT_EQ(ip.partition16(3), 0x0001U);
  EXPECT_EQ(ip.partition16(7), 0x0042U);
}

TEST(FieldRegistry, MatchesTableII) {
  // The 15 match fields + metadata.
  EXPECT_EQ(field_registry().size(), kFieldCount);
  EXPECT_EQ(kMatchFieldCount, 15U);

  EXPECT_EQ(field_bits(FieldId::kInPort), 32U);
  EXPECT_EQ(field_method(FieldId::kInPort), MatchMethod::kExact);
  EXPECT_EQ(field_bits(FieldId::kEthSrc), 48U);
  EXPECT_EQ(field_method(FieldId::kEthSrc), MatchMethod::kLongestPrefix);
  EXPECT_EQ(field_bits(FieldId::kEthDst), 48U);
  EXPECT_EQ(field_bits(FieldId::kEthType), 16U);
  EXPECT_EQ(field_bits(FieldId::kVlanId), 13U);
  EXPECT_EQ(field_bits(FieldId::kVlanPcp), 3U);
  EXPECT_EQ(field_bits(FieldId::kMplsLabel), 20U);
  EXPECT_EQ(field_bits(FieldId::kIpv4Src), 32U);
  EXPECT_EQ(field_method(FieldId::kIpv4Dst), MatchMethod::kLongestPrefix);
  EXPECT_EQ(field_bits(FieldId::kIpv6Src), 128U);
  EXPECT_EQ(field_bits(FieldId::kIpProto), 8U);
  EXPECT_EQ(field_bits(FieldId::kIpTos), 6U);
  EXPECT_EQ(field_method(FieldId::kSrcPort), MatchMethod::kRange);
  EXPECT_EQ(field_method(FieldId::kDstPort), MatchMethod::kRange);
  EXPECT_EQ(field_bits(FieldId::kMetadata), 64U);
}

TEST(FieldRegistry, PartitionCounts) {
  // Section V.A: Ethernet = three 16-bit tries, IPv4 = two, IPv6 = eight.
  EXPECT_EQ(partition_count(field_bits(FieldId::kEthDst)), 3U);
  EXPECT_EQ(partition_count(field_bits(FieldId::kIpv4Dst)), 2U);
  EXPECT_EQ(partition_count(field_bits(FieldId::kIpv6Dst)), 8U);
}

TEST(FieldRegistry, NameLookup) {
  EXPECT_EQ(field_from_name("VLAN ID"), FieldId::kVlanId);
  EXPECT_EQ(field_from_name("nope"), std::nullopt);
}

TEST(PacketHeader, SetGetAndPresence) {
  PacketHeader h;
  EXPECT_FALSE(h.has(FieldId::kVlanId));
  h.set_vlan_id(42);
  EXPECT_TRUE(h.has(FieldId::kVlanId));
  EXPECT_EQ(h.get64(FieldId::kVlanId), 42U);
  h.set_eth_dst(MacAddress{0xAABBCCDDEEFFULL});
  EXPECT_EQ(h.get64(FieldId::kEthDst), 0xAABBCCDDEEFFULL);
}

TEST(PacketHeader, Partition16) {
  PacketHeader h;
  h.set_eth_dst(MacAddress{0xAABBCCDDEEFFULL});
  EXPECT_EQ(h.partition16(FieldId::kEthDst, 0), 0xAABBU);
  EXPECT_EQ(h.partition16(FieldId::kEthDst, 1), 0xCCDDU);
  EXPECT_EQ(h.partition16(FieldId::kEthDst, 2), 0xEEFFU);
  h.set_ipv4_dst(Ipv4Address{0xC0A801C8U});
  EXPECT_EQ(h.partition16(FieldId::kIpv4Dst, 0), 0xC0A8U);
  EXPECT_EQ(h.partition16(FieldId::kIpv4Dst, 1), 0x01C8U);
}

TEST(PacketHeader, MetadataDefaultsToZero) {
  PacketHeader h;
  EXPECT_EQ(h.metadata(), 0U);
  h.set_metadata(0xDEAD);
  EXPECT_EQ(h.metadata(), 0xDEADU);
}

// One 64-bit word per field plus the two IPv6 high words and the mask.
static_assert(sizeof(PacketHeader) <= 152);

TEST(PacketHeader, EveryFieldRoundTripsItsFullWidth) {
  workload::Rng rng(19);
  for (const auto& info : field_registry()) {
    for (int trial = 0; trial < 64; ++trial) {
      // Trial 0 sets every bit of the field's width.
      const std::uint64_t lo = trial == 0 ? ~std::uint64_t{0} : rng.next();
      const std::uint64_t hi = trial == 0 ? ~std::uint64_t{0} : rng.next();
      const U128 value = info.bits > 64 ? U128{hi & low_mask(info.bits - 64), lo}
                                        : U128{lo & low_mask(info.bits)};
      PacketHeader h;
      h.set(info.id, value);
      EXPECT_EQ(h.get(info.id), value) << info.name;
      EXPECT_EQ(h.get64(info.id), value.lo) << info.name;
      EXPECT_EQ(h.present_mask(), 1U << static_cast<unsigned>(info.id));
    }
  }
}

TEST(PacketHeader, PresentMaskTracksExactlyTheSetFields) {
  workload::Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    PacketHeader h;
    std::uint32_t expected = 0;
    for (std::size_t i = 0; i < kFieldCount; ++i) {
      if (!rng.chance(0.4)) continue;
      h.set(static_cast<FieldId>(i), std::uint64_t{0});  // zero still counts
      expected |= 1U << i;
    }
    EXPECT_EQ(h.present_mask(), expected);
    for (std::size_t i = 0; i < kFieldCount; ++i) {
      EXPECT_EQ(h.has(static_cast<FieldId>(i)), ((expected >> i) & 1U) != 0);
    }
  }
}

PacketHeader fixed_header() {
  PacketHeader h;
  h.set_in_port(3);
  h.set_eth_src(MacAddress{0x020000000001ULL});
  h.set_eth_dst(MacAddress{0xAABBCCDDEEFFULL});
  h.set_eth_type(0x86DD);
  h.set_vlan_id(0x1064);
  h.set_ipv6_src(Ipv6Address{U128{0x20010DB800000000ULL, 1}});
  h.set_ipv6_dst(Ipv6Address{U128{0xFE80000000000000ULL, 0x0123456789ABCDEFULL}});
  h.set_ip_proto(6);
  h.set_src_port(4444);
  h.set_dst_port(443);
  h.set_metadata(0xFEEDFACECAFEBEEFULL);
  return h;
}

TEST(PacketHeader, EqualHeadersHashEqual) {
  // The same fields set in the opposite order give the same header.
  const PacketHeader forward = fixed_header();
  PacketHeader reverse;
  for (std::size_t i = kFieldCount; i-- > 0;) {
    const auto id = static_cast<FieldId>(i);
    if (forward.has(id)) reverse.set(id, forward.get(id));
  }
  EXPECT_EQ(reverse, forward);
  EXPECT_EQ(flow_key_hash(reverse), flow_key_hash(forward));
  reverse.set_src_port(4445);
  EXPECT_NE(reverse, forward);
}

TEST(PacketHeader, FlowKeyHashIsStable) {
  // Flow-cache slots are placed by this hash; the value is pinned so a
  // change of the header's layout cannot move them.
  EXPECT_EQ(flow_key_hash(fixed_header()), 0x1B253A9A14E9F642ULL);
  PacketHeader ipv4;
  ipv4.set_ipv4_src(Ipv4Address{10, 0, 0, 1});
  ipv4.set_ipv4_dst(Ipv4Address{10, 0, 0, 2});
  EXPECT_EQ(flow_key_hash(ipv4), 0x80855F4CEE31C71DULL);
}

struct CodecCase {
  const char* name;
  PacketSpec spec;
};

class PacketCodec : public ::testing::TestWithParam<CodecCase> {};

TEST_P(PacketCodec, RoundTrips) {
  const auto& spec = GetParam().spec;
  const auto bytes = serialize_packet(spec);
  const auto parsed = parse_packet(bytes, 7);

  EXPECT_EQ(parsed.spec.eth_src, spec.eth_src);
  EXPECT_EQ(parsed.spec.eth_dst, spec.eth_dst);
  EXPECT_EQ(parsed.spec.vlan_id, spec.vlan_id);
  EXPECT_EQ(parsed.spec.mpls_label, spec.mpls_label);
  EXPECT_EQ(parsed.spec.ipv4_src, spec.ipv4_src);
  EXPECT_EQ(parsed.spec.ipv4_dst, spec.ipv4_dst);
  EXPECT_EQ(parsed.spec.ipv6_src, spec.ipv6_src);
  EXPECT_EQ(parsed.spec.ipv6_dst, spec.ipv6_dst);
  EXPECT_EQ(parsed.spec.src_port, spec.src_port);
  EXPECT_EQ(parsed.spec.dst_port, spec.dst_port);
  EXPECT_EQ(parsed.spec.payload, spec.payload);
  EXPECT_EQ(parsed.header.get64(FieldId::kInPort), 7U);

  // The flattened header agrees with direct flattening.
  EXPECT_EQ(parsed.header, header_from_spec(parsed.spec, 7));

  // Spec equivalence: re-serializing the parsed spec reproduces the wire
  // bytes exactly (serialize ∘ parse is the identity on codec output).
  EXPECT_EQ(serialize_packet(parsed.spec), bytes);

  // The allocation-free span entry point agrees with the full parse.
  PacketHeader header;
  ASSERT_TRUE(parse_packet_header(bytes, 7, header));
  EXPECT_EQ(header, parsed.header);
}

PacketSpec tcp4_packet() {
  PacketSpec spec;
  spec.eth_src = MacAddress{0x020000000001ULL};
  spec.eth_dst = MacAddress{0x020000000002ULL};
  spec.eth_type = static_cast<std::uint16_t>(EtherType::kIpv4);
  spec.ipv4_src = Ipv4Address{10, 0, 0, 1};
  spec.ipv4_dst = Ipv4Address{10, 0, 0, 2};
  spec.ip_proto = static_cast<std::uint8_t>(IpProto::kTcp);
  spec.src_port = 12345;
  spec.dst_port = 80;
  spec.payload = {1, 2, 3};
  return spec;
}

PacketSpec vlan_udp4_packet() {
  PacketSpec spec = tcp4_packet();
  spec.vlan_id = 100;
  spec.vlan_pcp = 3;
  spec.ip_proto = static_cast<std::uint8_t>(IpProto::kUdp);
  return spec;
}

PacketSpec ipv6_packet() {
  PacketSpec spec;
  spec.eth_src = MacAddress{0x020000000003ULL};
  spec.eth_dst = MacAddress{0x020000000004ULL};
  spec.eth_type = static_cast<std::uint16_t>(EtherType::kIpv6);
  spec.ipv6_src = Ipv6Address{U128{0x20010DB800000000ULL, 1}};
  spec.ipv6_dst = Ipv6Address{U128{0x20010DB800000000ULL, 2}};
  spec.ip_proto = static_cast<std::uint8_t>(IpProto::kTcp);
  spec.src_port = 4444;
  spec.dst_port = 443;
  return spec;
}

PacketSpec plain_l2_packet() {
  PacketSpec spec;
  spec.eth_src = MacAddress{0x020000000005ULL};
  spec.eth_dst = MacAddress{0xFFFFFFFFFFFFULL};
  spec.eth_type = static_cast<std::uint16_t>(EtherType::kArp);
  spec.payload = {0xDE, 0xAD};
  return spec;
}

INSTANTIATE_TEST_SUITE_P(
    Stacks, PacketCodec,
    ::testing::Values(CodecCase{"tcp4", tcp4_packet()},
                      CodecCase{"vlan_udp4", vlan_udp4_packet()},
                      CodecCase{"ipv6", ipv6_packet()},
                      CodecCase{"plain_l2", plain_l2_packet()}),
    [](const ::testing::TestParamInfo<CodecCase>& info) {
      return info.param.name;
    });

// The ToS / traffic-class byte is DSCP (upper six bits) plus ECN (lower
// two); the 6-bit kIpTos field holds the DSCP. A TOS 0xB8 frame is DSCP 46
// (EF) on both IP versions, and an exact ip_tos == 46 rule matches it
// through the reference pipeline and the decomposed one alike.
TEST(PacketCodec, TosByteParsesToDscp) {
  auto v4 = serialize_packet(tcp4_packet());
  v4[15] = 0xB8;  // IPv4 ToS
  auto v6 = serialize_packet(ipv6_packet());
  v6[14] = 0x6B;  // version 6 | traffic class 0xB8 | flow label 0
  v6[15] = 0x80;

  FlowEntry entry;
  entry.id = 1;
  entry.priority = 10;
  entry.match.set(FieldId::kIpTos, FieldMatch::exact(std::uint64_t{46}));
  entry.instructions = output_instruction(9);
  ReferencePipeline reference({FlowTable{{entry}}});
  MultiTableLookup accelerated;
  accelerated.add_table(LookupTable::compile(FlowTable{{entry}}));

  for (const auto& bytes : {v4, v6}) {
    const auto parsed = parse_packet(bytes, 1);
    EXPECT_EQ(parsed.header.get64(FieldId::kIpTos), 46U);
    EXPECT_EQ(parsed.spec.ip_tos, 46U);
    EXPECT_EQ(serialize_packet(parsed.spec), bytes);
    const auto expected = reference.execute(parsed.header);
    EXPECT_EQ(expected.verdict, Verdict::kForwarded);
    EXPECT_EQ(expected.output_ports, std::vector<std::uint32_t>{9});
    EXPECT_EQ(accelerated.execute(parsed.header), expected);
  }
}

TEST(PacketCodec, RejectsTruncated) {
  const auto bytes = serialize_packet(tcp4_packet());
  const std::vector<std::uint8_t> truncated(bytes.begin(), bytes.begin() + 10);
  EXPECT_THROW((void)parse_packet(truncated, 0), std::invalid_argument);
  PacketHeader header;
  EXPECT_FALSE(parse_packet_header(truncated, 0, header));
}

// --- adversarial (not merely truncated) input --------------------------------
// Offsets below index into serialize_packet(tcp4_packet()): Ethernet
// 0..13, IPv4 header 14..33 (version/IHL 14, total length 16..17), L4
// 34..41, payload 42..44.

void push_u16(std::vector<std::uint8_t>& bytes, std::uint16_t value) {
  bytes.push_back(static_cast<std::uint8_t>(value >> 8));
  bytes.push_back(static_cast<std::uint8_t>(value));
}

void push_u32(std::vector<std::uint8_t>& bytes, std::uint32_t value) {
  push_u16(bytes, static_cast<std::uint16_t>(value >> 16));
  push_u16(bytes, static_cast<std::uint16_t>(value));
}

/// dst/src MACs (zeros) — the 12 bytes before the first EtherType.
std::vector<std::uint8_t> eth_prefix() { return std::vector<std::uint8_t>(12, 0); }

TEST(PacketCodecAdversarial, VlanStackIsCappedNotWalked) {
  const auto qinq = [](unsigned tags) {
    auto bytes = eth_prefix();
    for (unsigned i = 0; i < tags; ++i) {
      push_u16(bytes, static_cast<std::uint16_t>(EtherType::kVlan));
      push_u16(bytes, static_cast<std::uint16_t>(0x2000 | (100 + i)));
    }
    push_u16(bytes, static_cast<std::uint16_t>(EtherType::kArp));
    return bytes;
  };
  // Up to the cap, stacked tags parse; OpenFlow matches the outermost one.
  const auto parsed = parse_packet(qinq(kMaxVlanDepth), 0);
  EXPECT_EQ(parsed.spec.vlan_id, 100);
  EXPECT_EQ(parsed.spec.vlan_pcp, 1);
  EXPECT_EQ(parsed.spec.eth_type, static_cast<std::uint16_t>(EtherType::kArp));
  // One deeper is rejected, not walked.
  EXPECT_THROW((void)parse_packet(qinq(kMaxVlanDepth + 1), 0),
               std::invalid_argument);
  PacketHeader header;
  EXPECT_FALSE(parse_packet_header(qinq(kMaxVlanDepth + 1), 0, header));
}

TEST(PacketCodecAdversarial, MplsStackIsCappedNotWalked) {
  const auto stacked = [](unsigned shims) {
    auto bytes = eth_prefix();
    push_u16(bytes, static_cast<std::uint16_t>(EtherType::kMplsUnicast));
    for (unsigned i = 0; i < shims; ++i) {
      const bool bottom = i + 1 == shims;
      push_u32(bytes, ((1000 + i) << 12) | (bottom ? 1U << 8 : 0U) | 64U);
    }
    return bytes;
  };
  const auto parsed = parse_packet(stacked(kMaxMplsDepth), 0);
  EXPECT_EQ(parsed.spec.mpls_label, 1000U);  // outermost label
  EXPECT_THROW((void)parse_packet(stacked(kMaxMplsDepth + 1), 0),
               std::invalid_argument);
  // A shim that is cut off mid-stack is truncation, not a stack.
  auto cut = stacked(2);
  cut.resize(cut.size() - 2);
  EXPECT_THROW((void)parse_packet(cut, 0), std::invalid_argument);
}

TEST(PacketCodecAdversarial, Ipv4HeaderLengthsAreValidated) {
  const auto base = serialize_packet(tcp4_packet());

  auto bad_version = base;
  bad_version[14] = 0x55;
  EXPECT_THROW((void)parse_packet(bad_version, 0), std::invalid_argument);

  auto bad_ihl = base;
  bad_ihl[14] = 0x44;  // IHL 4 < 5: header shorter than its fixed fields
  EXPECT_THROW((void)parse_packet(bad_ihl, 0), std::invalid_argument);

  auto total_below_header = base;
  total_below_header[16] = 0;
  total_below_header[17] = 10;  // total length 10 < the 20-byte header
  EXPECT_THROW((void)parse_packet(total_below_header, 0),
               std::invalid_argument);

  auto total_beyond_buffer = base;
  total_beyond_buffer[16] = 0;
  total_beyond_buffer[17] = 200;  // claims 200 bytes; the buffer has 31
  EXPECT_THROW((void)parse_packet(total_beyond_buffer, 0),
               std::invalid_argument);

  auto ihl_beyond_total = base;
  ihl_beyond_total[14] = 0x4F;  // IHL 15: 60-byte header, total length 31
  EXPECT_THROW((void)parse_packet(ihl_beyond_total, 0), std::invalid_argument);
}

TEST(PacketCodecAdversarial, L4BytesBeyondClaimedLengthAreNotPorts) {
  // total length says the IPv4 payload ends at the header (no L4 room),
  // but trailing bytes follow: they are payload, not a TCP header — the
  // inner-header overrun the parser must not mis-attribute.
  auto bytes = serialize_packet(tcp4_packet());
  bytes[16] = 0;
  bytes[17] = 20;  // total length == IHL: zero L4 bytes claimed
  const auto parsed = parse_packet(bytes, 0);
  EXPECT_EQ(parsed.spec.src_port, std::nullopt);
  EXPECT_EQ(parsed.spec.dst_port, std::nullopt);
  EXPECT_FALSE(parsed.header.has(FieldId::kSrcPort));
  EXPECT_EQ(parsed.spec.payload.size(), 11U);  // old L4 + payload bytes
}

TEST(PacketCodecAdversarial, Ipv6PayloadLengthIsValidated) {
  auto bytes = serialize_packet(ipv6_packet());
  bytes[18] = 0xFF;  // payload length far beyond the buffer
  bytes[19] = 0xFF;
  EXPECT_THROW((void)parse_packet(bytes, 0), std::invalid_argument);
}

}  // namespace
}  // namespace ofmtl
