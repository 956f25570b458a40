// Cross-cutting property tests and failure injection: codec fuzzing (random
// bytes must parse or throw, never corrupt), prefix/range dualities, trie
// memory monotonicity, update-cost model consistency, and boundary values
// for the odd-width fields (13-bit VLAN, 3-bit PCP, 20-bit MPLS label).
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <span>

#include "core/builder.hpp"
#include "core/multibit_trie.hpp"
#include "core/update_engine.hpp"
#include "net/packet.hpp"
#include "workload/rng.hpp"
#include "workload/stanford_synth.hpp"
#include "workload/trace_gen.hpp"

namespace ofmtl {
namespace {

// ---- codec fuzzing ----

class CodecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecFuzz, RandomBytesNeverCorrupt) {
  workload::Rng rng(GetParam());
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> bytes(rng.below(80));
    for (auto& byte : bytes) byte = static_cast<std::uint8_t>(rng.next());
    try {
      const auto parsed = parse_packet(bytes, 1);
      // Whatever parsed must re-serialize without crashing; field values
      // must respect their widths.
      EXPECT_LE(parsed.header.get64(FieldId::kVlanId), 0xFFFU);
      EXPECT_LE(parsed.header.get64(FieldId::kEthType), 0xFFFFU);
      (void)serialize_packet(parsed.spec);
    } catch (const std::invalid_argument&) {
      // Truncated/malformed input is rejected cleanly — expected.
    }
  }
}

TEST_P(CodecFuzz, MutatedValidPacketsNeverCorrupt) {
  workload::Rng rng(GetParam() * 31);
  PacketSpec spec;
  spec.eth_src = MacAddress{0x020000000001ULL};
  spec.eth_dst = MacAddress{0x020000000002ULL};
  spec.vlan_id = 100;
  spec.eth_type = static_cast<std::uint16_t>(EtherType::kIpv4);
  spec.ipv4_src = Ipv4Address{10, 0, 0, 1};
  spec.ipv4_dst = Ipv4Address{10, 0, 0, 2};
  spec.ip_proto = static_cast<std::uint8_t>(IpProto::kTcp);
  spec.src_port = 1234;
  spec.dst_port = 80;
  const auto baseline = serialize_packet(spec);

  for (int trial = 0; trial < 2000; ++trial) {
    auto bytes = baseline;
    // Flip a few random bytes and/or truncate.
    for (int flips = 0; flips < 3; ++flips) {
      bytes[rng.below(bytes.size())] ^= static_cast<std::uint8_t>(rng.next());
    }
    if (rng.chance(0.3)) bytes.resize(rng.below(bytes.size() + 1));
    try {
      (void)parse_packet(bytes, 2);
    } catch (const std::invalid_argument&) {
    }
  }
}

void push_u16(std::vector<std::uint8_t>& bytes, std::uint16_t value) {
  bytes.push_back(static_cast<std::uint8_t>(value >> 8));
  bytes.push_back(static_cast<std::uint8_t>(value));
}

void push_u32(std::vector<std::uint8_t>& bytes, std::uint32_t value) {
  push_u16(bytes, static_cast<std::uint16_t>(value >> 16));
  push_u16(bytes, static_cast<std::uint16_t>(value));
}

/// One frame of the parser sweep; `wire_len` > 0 marks a snapped capture.
struct SweepFrame {
  std::vector<std::uint8_t> bytes;
  std::size_t wire_len = 0;
};

/// Fixed frames covering every layer and bound of the wire walk: plain
/// IPv4 TCP/UDP, QinQ at and past kMaxVlanDepth, MPLS at and past
/// kMaxMplsDepth, IPv4 with options, IPv6 TCP, and a snapped IPv4 record
/// whose wire length exceeds its capture.
std::vector<SweepFrame> sweep_frames() {
  PacketSpec tcp4;
  tcp4.eth_src = MacAddress{0x020000000001ULL};
  tcp4.eth_dst = MacAddress{0x020000000002ULL};
  tcp4.eth_type = static_cast<std::uint16_t>(EtherType::kIpv4);
  tcp4.ipv4_src = Ipv4Address{10, 0, 0, 1};
  tcp4.ipv4_dst = Ipv4Address{10, 0, 0, 2};
  tcp4.ip_proto = static_cast<std::uint8_t>(IpProto::kTcp);
  tcp4.ip_tos = 0x0A;  // DSCP 10: ToS byte 0x28
  tcp4.src_port = 1234;
  tcp4.dst_port = 80;
  tcp4.payload = {1, 2, 3, 4};
  const auto tcp4_bytes = serialize_packet(tcp4);

  PacketSpec udp4 = tcp4;
  udp4.ip_proto = static_cast<std::uint8_t>(IpProto::kUdp);
  udp4.src_port = 53;
  udp4.dst_port = 5353;

  PacketSpec tcp6;
  tcp6.eth_src = MacAddress{0x020000000003ULL};
  tcp6.eth_dst = MacAddress{0x020000000004ULL};
  tcp6.eth_type = static_cast<std::uint16_t>(EtherType::kIpv6);
  tcp6.ipv6_src = Ipv6Address{U128{0x20010DB800000000ULL, 1}};
  tcp6.ipv6_dst = Ipv6Address{U128{0x20010DB8FFFF0000ULL, 0x0123456789ABCDEFULL}};
  tcp6.ip_proto = static_cast<std::uint8_t>(IpProto::kTcp);
  tcp6.ip_tos = 46;  // DSCP EF: traffic class 0xB8
  tcp6.src_port = 4444;
  tcp6.dst_port = 443;
  tcp6.payload = {9, 8};

  // tcp4's bytes from its EtherType (offset 12) / its IPv4 header (14) on.
  const auto from = [&](std::size_t offset) {
    return std::vector<std::uint8_t>(tcp4_bytes.begin() + offset, tcp4_bytes.end());
  };
  const auto qinq = [&](unsigned tags) {
    std::vector<std::uint8_t> bytes(tcp4_bytes.begin(), tcp4_bytes.begin() + 12);
    for (unsigned i = 0; i < tags; ++i) {
      push_u16(bytes, static_cast<std::uint16_t>(EtherType::kVlan));
      push_u16(bytes, static_cast<std::uint16_t>(((i + 1) << 13) | (100 + i)));
    }
    const auto rest = from(12);
    bytes.insert(bytes.end(), rest.begin(), rest.end());
    return bytes;
  };
  const auto mpls = [&](unsigned shims) {
    std::vector<std::uint8_t> bytes(tcp4_bytes.begin(), tcp4_bytes.begin() + 12);
    push_u16(bytes, static_cast<std::uint16_t>(EtherType::kMplsUnicast));
    for (unsigned i = 0; i < shims; ++i) {
      const bool bottom = i + 1 == shims;
      push_u32(bytes, ((1000 + i) << 12) | (bottom ? 1U << 8 : 0U) | 64U);
    }
    const auto rest = from(14);
    bytes.insert(bytes.end(), rest.begin(), rest.end());
    return bytes;
  };
  // IHL 7: eight option bytes between the IPv4 header and the ports.
  auto options = tcp4_bytes;
  options[14] = 0x47;
  options[17] = static_cast<std::uint8_t>(options[17] + 8);
  options.insert(options.begin() + 34, {0x94, 0x04, 0, 0, 0x01, 0x01, 0x01, 0x00});

  PacketSpec snapped = tcp4;
  snapped.payload.assign(64, 0x5A);
  auto snapped_bytes = serialize_packet(snapped);
  const std::size_t snapped_wire = snapped_bytes.size();
  snapped_bytes.resize(40);  // cut inside the L4 header, as a snaplen would

  return {{tcp4_bytes},
          {serialize_packet(udp4)},
          {qinq(kMaxVlanDepth)},
          {qinq(kMaxVlanDepth + 1)},
          {mpls(kMaxMplsDepth)},
          {mpls(kMaxMplsDepth + 1)},
          {options},
          {serialize_packet(tcp6)},
          {snapped_bytes, snapped_wire}};
}

std::uint64_t digest_mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  h ^= h >> 31;
  h *= 0xBF58476D1CE4E5B9ULL;
  return h ^ (h >> 29);
}

// The allocation-free header parse and the throwing full parse are one
// wire walk: on every truncation and on seeded 1-3 byte mutations of the
// sweep frames, parse_packet_header accepts exactly when parse_packet does
// not throw, and both yield the same header. A snapped record is parsed
// against its wire length, which can only relax the length checks, so
// there the full parse (which sees the capture alone) accepting implies the
// header parse accepts. The digest pins every (accepted, fields) outcome
// of the sweep to the parser's recorded behaviour.
TEST_P(CodecFuzz, HeaderParseMatchesFullParse) {
  workload::Rng rng(GetParam() * 7919);
  std::uint64_t digest = 0;
  std::size_t accepted_count = 0;
  std::size_t corpus = 0;
  const auto check = [&](std::span<const std::uint8_t> bytes, std::size_t wire_len) {
    ++corpus;
    PacketHeader header;
    const bool accepted = parse_packet_header(bytes, 5, header, wire_len);
    std::optional<PacketHeader> full;
    try {
      full = parse_packet(bytes, 5).header;
    } catch (const std::invalid_argument&) {
    }
    if (wire_len > bytes.size()) {
      if (full) {
        ASSERT_TRUE(accepted);
        ASSERT_EQ(header, *full);
      }
    } else {
      ASSERT_EQ(accepted, full.has_value());
      if (accepted) ASSERT_EQ(header, *full);
    }
    digest = digest_mix(digest, accepted ? 1 : 0);
    if (!accepted) return;
    ++accepted_count;
    digest = digest_mix(digest, header.present_mask());
    for (std::size_t i = 0; i < kFieldCount; ++i) {
      const U128 value = header.get(static_cast<FieldId>(i));
      digest = digest_mix(digest_mix(digest, value.lo), value.hi);
    }
  };
  for (const auto& frame : sweep_frames()) {
    const std::span<const std::uint8_t> whole{frame.bytes};
    for (std::size_t len = 0; len <= whole.size(); ++len) {
      check(whole.first(len), frame.wire_len);
    }
    for (int trial = 0; trial < 2000; ++trial) {
      auto bytes = frame.bytes;
      const auto flips = 1 + rng.below(3);
      for (std::uint64_t f = 0; f < flips; ++f) {
        bytes[rng.below(bytes.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
      }
      check(bytes, frame.wire_len);
    }
  }
  EXPECT_GT(accepted_count, corpus / 4);  // the sweep is not all rejects
  const std::uint64_t expected[] = {0x7A123898B4A8AEA6ULL, 0x63B163DBFFC3C830ULL,
                                   0xB13534182C37D10BULL};
  EXPECT_EQ(digest, expected[GetParam() - 1]) << std::hex << digest;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz, ::testing::Values(1, 2, 3));

// ---- prefix/range duality ----

TEST(PrefixRangeDuality, PrefixIsItsOwnRangeCover) {
  workload::Rng rng(9);
  for (int trial = 0; trial < 200; ++trial) {
    const unsigned width = 12;
    const unsigned len = static_cast<unsigned>(rng.below(width + 1));
    const auto prefix = Prefix::from_value(rng.below(1ULL << width), len, width);
    const std::uint64_t lo = prefix.value64();
    const std::uint64_t hi = lo | low_mask(width - len);
    const auto cover = range_to_prefixes(ValueRange{lo, hi}, width);
    ASSERT_EQ(cover.size(), 1U);
    EXPECT_EQ(cover[0], prefix);
  }
}

TEST(PrefixRangeDuality, CoverSizeBounded) {
  // Classic bound: a range over w bits needs at most 2w-2 prefixes.
  workload::Rng rng(10);
  const unsigned width = 16;
  for (int trial = 0; trial < 300; ++trial) {
    std::uint64_t a = rng.below(1ULL << width);
    std::uint64_t b = rng.below(1ULL << width);
    if (a > b) std::swap(a, b);
    const auto cover = range_to_prefixes(ValueRange{a, b}, width);
    EXPECT_LE(cover.size(), 2U * width - 2U);
  }
}

// ---- trie memory monotonicity ----

TEST(TrieMonotonicity, NodesNeverShrinkOnInsert) {
  workload::Rng rng(11);
  auto trie = MultibitTrie::partition16();
  std::size_t previous = 0;
  for (int i = 0; i < 400; ++i) {
    trie.insert(
        Prefix::from_value(rng.below(0x10000),
                           1 + static_cast<unsigned>(rng.below(16)), 16),
        static_cast<Label>(i));
    const auto nodes = trie.stored_nodes(TrieStorage::kSparse);
    EXPECT_GE(nodes, previous);
    previous = nodes;
  }
}

TEST(TrieMonotonicity, RemoveThenReinsertRestoresLookup) {
  workload::Rng rng(12);
  auto trie = MultibitTrie::partition16();
  std::vector<std::pair<Prefix, Label>> inserted;
  std::set<std::pair<unsigned, std::uint64_t>> seen;
  for (int i = 0; inserted.size() < 100; ++i) {
    const auto prefix = Prefix::from_value(
        rng.below(0x10000), 1 + static_cast<unsigned>(rng.below(16)), 16);
    if (!seen.emplace(prefix.length(), prefix.value64()).second) continue;
    trie.insert(prefix, static_cast<Label>(i));
    inserted.emplace_back(prefix, static_cast<Label>(i));
  }
  // Capture, remove all, reinsert in reverse, and compare lookups.
  std::vector<std::vector<Label>> snapshot;
  for (std::uint64_t key = 0; key < 0x10000; key += 97) {
    trie.lookup_all(key, snapshot.emplace_back());
  }
  for (const auto& [prefix, label] : inserted) (void)trie.remove(prefix);
  for (auto it = inserted.rbegin(); it != inserted.rend(); ++it) {
    trie.insert(it->first, it->second);
  }
  std::size_t i = 0;
  std::vector<Label> labels;
  for (std::uint64_t key = 0; key < 0x10000; key += 97) {
    trie.lookup_all(key, labels);
    EXPECT_EQ(labels, snapshot[i++]) << key;
  }
}

// ---- update-cost model consistency ----

TEST(UpdateModel, FreshInsertDominatedByFanPlusDepth) {
  const auto strides = default_strides16();
  for (unsigned len = 0; len <= 16; ++len) {
    const auto words =
        fresh_insert_words(Prefix::from_value(0, len, 16), strides);
    EXPECT_GE(words, 1U);
    EXPECT_LE(words, 32U + 2U);  // max fan (root /0) + max pointer path
  }
}

TEST(UpdateModel, OptimizedWordsMatchStructureWrites) {
  const auto set = workload::generate_mac_filterset(workload::mac_target("bbrb"));
  const auto spec = build_app(set, TableLayout::kPerFieldTables);
  const auto pipeline = compile_app(spec);
  for (std::size_t t = 0; t < pipeline.table_count(); ++t) {
    const auto script =
        optimized_script(pipeline.table(t), UpdateScope::kAlgorithms);
    std::uint64_t expected = 0;
    for (const auto& search : pipeline.table(t).field_searches()) {
      expected += search.update_words();
    }
    EXPECT_EQ(script.word_count(), expected);
  }
}

// ---- odd-width field boundaries ----

TEST(FieldBoundaries, VlanIdThirteenBits) {
  LookupTable table({FieldId::kVlanId}, {});
  FlowEntry entry;
  entry.id = 1;
  entry.priority = 1;
  entry.match.set(FieldId::kVlanId,
                  FieldMatch::exact(std::uint64_t{0x1FFF}));  // max 13-bit
  entry.instructions = output_instruction(1);
  table.insert_entry(entry);
  PacketHeader h;
  h.set(FieldId::kVlanId, std::uint64_t{0x1FFF});
  ASSERT_NE(table.lookup(h), nullptr);
}

TEST(FieldBoundaries, MplsLabelTwentyBits) {
  LookupTable table({FieldId::kMplsLabel}, {});
  FlowEntry entry;
  entry.id = 1;
  entry.priority = 1;
  entry.match.set(FieldId::kMplsLabel, FieldMatch::exact(std::uint64_t{0xFFFFF}));
  entry.instructions = output_instruction(1);
  table.insert_entry(entry);
  PacketHeader h;
  h.set_mpls_label(0xFFFFF);
  ASSERT_NE(table.lookup(h), nullptr);
  h.set_mpls_label(0xFFFFE);
  EXPECT_EQ(table.lookup(h), nullptr);
}

TEST(FieldBoundaries, InPortFullThirtyTwoBits) {
  LookupTable table({FieldId::kInPort}, {});
  FlowEntry entry;
  entry.id = 1;
  entry.priority = 1;
  entry.match.set(FieldId::kInPort,
                  FieldMatch::exact(std::uint64_t{0xFFFFFFFF}));
  entry.instructions = output_instruction(1);
  table.insert_entry(entry);
  PacketHeader h;
  h.set_in_port(0xFFFFFFFFU);
  ASSERT_NE(table.lookup(h), nullptr);
}

// ---- layout-equivalence property over many routers ----

class LayoutSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LayoutSweep, PerFieldLayoutForwardsLikeSingleTable) {
  const auto& target = workload::kRoutingTargets[GetParam()];
  if (target.rules > 10000) GTEST_SKIP() << "large router covered elsewhere";
  const auto set = workload::generate_routing_filterset(target);
  const auto single = build_app(set, TableLayout::kSingleTable);
  const auto split = build_app(set, TableLayout::kPerFieldTables);
  const auto trace = workload::generate_trace(
      set, {.packets = 300, .hit_ratio = 0.8, .seed = GetParam()});
  for (const auto& header : trace) {
    const auto a = single.reference.execute(header);
    const auto b = split.reference.execute(header);
    EXPECT_EQ(a.verdict, b.verdict);
    EXPECT_EQ(a.output_ports, b.output_ports);
  }
}

INSTANTIATE_TEST_SUITE_P(Routers, LayoutSweep,
                         ::testing::Range<std::size_t>(0, workload::kFilterCount),
                         [](const auto& info) {
                           return std::string(
                               workload::kRoutingTargets[info.param].name);
                         });

}  // namespace
}  // namespace ofmtl
