// Classic-pcap reader/writer: all four magic variants (little/big endian ×
// microsecond/nanosecond) round-trip records bit-exactly, file save/open
// round-trips the buffer, a truncated final record is skipped gracefully
// (every complete record still served, truncated() raised), and corrupt
// captures are rejected rather than walked. parse_capture is swept over
// truncations and byte mutations: it never throws, and every record the
// reader yields comes out as a header or a malformed count.
#include <gtest/gtest.h>

#include <cstdio>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "trace/pcap.hpp"
#include "trace/wire_parse.hpp"

namespace ofmtl::trace {
namespace {

std::vector<std::uint8_t> frame_of(std::size_t length, std::uint8_t seed) {
  std::vector<std::uint8_t> bytes(length);
  std::iota(bytes.begin(), bytes.end(), seed);
  return bytes;
}

struct MagicCase {
  const char* name;
  PcapWriterConfig config;
};

class PcapMagics : public ::testing::TestWithParam<MagicCase> {};

TEST_P(PcapMagics, WriterReaderIdentity) {
  const auto& config = GetParam().config;
  // Nanosecond-resolution timestamps; the usec variants floor to the
  // microsecond (the file format has nowhere to keep the rest).
  const std::vector<std::uint64_t> stamps = {0, 1'729'000'123'456'789ULL,
                                             1'729'000'124'000'000ULL};
  PcapWriter writer(config);
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::size_t i = 0; i < stamps.size(); ++i) {
    frames.push_back(frame_of(60 + 7 * i, static_cast<std::uint8_t>(i)));
    writer.append(stamps[i], frames.back());
  }
  EXPECT_EQ(writer.record_count(), stamps.size());

  PcapReader reader{std::span<const std::uint8_t>(writer.buffer())};
  EXPECT_EQ(reader.nanosecond(), config.nanosecond);
  EXPECT_EQ(reader.byte_swapped(), config.byte_swapped);
  EXPECT_EQ(reader.link_type(), 1U);
  EXPECT_EQ(reader.snap_len(), config.snap_len);

  PcapRecord record;
  for (std::size_t i = 0; i < stamps.size(); ++i) {
    ASSERT_TRUE(reader.next(record)) << "record " << i;
    const std::uint64_t expected =
        config.nanosecond ? stamps[i] : stamps[i] / 1000 * 1000;
    EXPECT_EQ(record.ts_ns, expected) << "record " << i;
    EXPECT_EQ(record.orig_len, frames[i].size());
    EXPECT_EQ(std::vector<std::uint8_t>(record.bytes.begin(),
                                        record.bytes.end()),
              frames[i]);
  }
  EXPECT_FALSE(reader.next(record));
  EXPECT_FALSE(reader.truncated());
  EXPECT_EQ(reader.record_count(), stamps.size());

  // rewind() restarts iteration.
  reader.rewind();
  ASSERT_TRUE(reader.next(record));
  EXPECT_EQ(std::vector<std::uint8_t>(record.bytes.begin(), record.bytes.end()),
            frames[0]);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, PcapMagics,
    ::testing::Values(
        MagicCase{"usec_le", {.nanosecond = false, .byte_swapped = false}},
        MagicCase{"usec_be", {.nanosecond = false, .byte_swapped = true}},
        MagicCase{"nsec_le", {.nanosecond = true, .byte_swapped = false}},
        MagicCase{"nsec_be", {.nanosecond = true, .byte_swapped = true}}),
    [](const ::testing::TestParamInfo<MagicCase>& info) {
      return info.param.name;
    });

TEST(Pcap, FileSaveOpenRoundTrip) {
  PcapWriter writer({.nanosecond = true});
  const auto frame = frame_of(64, 1);
  writer.append(42, frame);
  const std::string path = "test_trace_pcap.tmp.pcap";
  writer.save(path);

  auto reader = PcapReader::open(path);
  PcapRecord record;
  ASSERT_TRUE(reader.next(record));
  EXPECT_EQ(record.ts_ns, 42U);
  EXPECT_EQ(std::vector<std::uint8_t>(record.bytes.begin(), record.bytes.end()),
            frame);
  EXPECT_FALSE(reader.next(record));
  std::remove(path.c_str());

  EXPECT_THROW((void)PcapReader::open("does_not_exist.pcap"),
               std::runtime_error);
}

TEST(Pcap, TruncatedFinalRecordIsSkippedGracefully) {
  PcapWriter writer;
  writer.append(1'000, frame_of(60, 1));  // 1 usec: survives usec flooring
  writer.append(2'000, frame_of(60, 2));
  const auto& full = writer.buffer();

  // Chop the capture at every byte boundary inside the final record: the
  // first record must always survive, the cut record must never surface.
  const std::size_t first_record_end = 24 + 16 + 60;
  for (std::size_t cut = first_record_end; cut < full.size(); ++cut) {
    PcapReader reader{{full.data(), cut}};
    PcapRecord record;
    ASSERT_TRUE(reader.next(record)) << "cut at " << cut;
    EXPECT_EQ(record.ts_ns, 1'000U);  // usec resolution
    EXPECT_FALSE(reader.next(record)) << "cut at " << cut;
    EXPECT_EQ(reader.truncated(), cut != first_record_end) << "cut at " << cut;
    EXPECT_EQ(reader.record_count(), 1U);
  }
}

TEST(Pcap, RejectsShortOrUnknownHeader) {
  EXPECT_THROW((PcapReader{std::span<const std::uint8_t>{}}),
               std::invalid_argument);
  const auto garbage = frame_of(24, 9);
  EXPECT_THROW((PcapReader{{garbage.data(), garbage.size()}}),
               std::invalid_argument);
  PcapWriter writer;
  EXPECT_THROW((PcapReader{{writer.buffer().data(), 10}}),
               std::invalid_argument);
}

TEST(Pcap, CorruptLengthStopsIteration) {
  PcapWriter writer;
  writer.append(1, frame_of(60, 1));
  auto bytes = writer.buffer();
  // Claim an incl_len far beyond the buffer (and the snap limit).
  bytes[24 + 8] = 0xFF;
  bytes[24 + 9] = 0xFF;
  bytes[24 + 10] = 0xFF;
  PcapReader reader{{bytes.data(), bytes.size()}};
  PcapRecord record;
  EXPECT_FALSE(reader.next(record));
  EXPECT_TRUE(reader.truncated());
}

TEST(Pcap, SnapLenCapsRecords) {
  PcapWriter writer({.snap_len = 32});
  const auto frame = frame_of(100, 3);
  writer.append(5, frame);
  PcapReader reader{std::span<const std::uint8_t>(writer.buffer())};
  PcapRecord record;
  ASSERT_TRUE(reader.next(record));
  EXPECT_EQ(record.bytes.size(), 32U);
  EXPECT_EQ(record.orig_len, 100U);
}

TEST(Pcap, ReadAllCollectsEveryRecord) {
  PcapWriter writer;
  for (std::uint8_t i = 0; i < 5; ++i) writer.append(i, frame_of(20, i));
  PcapReader reader{std::span<const std::uint8_t>(writer.buffer())};
  PcapRecord record;
  ASSERT_TRUE(reader.next(record));  // read_all rewinds first
  const auto all = reader.read_all();
  ASSERT_EQ(all.size(), 5U);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].bytes[0], i);
  }
}

/// A small capture of well-formed frames over the layers the parser walks:
/// VLAN, MPLS, IPv4 and IPv6, TCP and UDP.
std::vector<std::uint8_t> layered_capture() {
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
  PcapWriter writer;
  writer.append(1'000, serialize_packet(spec));
  spec.vlan_id.reset();
  spec.mpls_label = 77;
  spec.ip_proto = static_cast<std::uint8_t>(IpProto::kUdp);
  writer.append(2'000, serialize_packet(spec));
  spec.mpls_label.reset();
  spec.eth_type = static_cast<std::uint16_t>(EtherType::kIpv6);
  spec.ipv4_src.reset();
  spec.ipv4_dst.reset();
  spec.ipv6_src = Ipv6Address{U128{0x20010DB800000000ULL, 1}};
  spec.ipv6_dst = Ipv6Address{U128{0x20010DB800000000ULL, 2}};
  writer.append(3'000, serialize_packet(spec));
  return writer.take_buffer();
}

/// parse_capture over `bytes` never throws and accounts for every record
/// the reader yields. A global header the reader rejects is the reader's
/// case (RejectsShortOrUnknownHeader), not parse_capture's.
void expect_capture_accounted(std::span<const std::uint8_t> bytes,
                              const std::string& what) {
  std::optional<PcapReader> reader;
  try {
    reader.emplace(bytes);
  } catch (const std::invalid_argument&) {
    return;
  }
  ParsedCapture capture;
  EXPECT_NO_THROW(capture = parse_capture(*reader, 0)) << what;
  EXPECT_EQ(capture.headers.size() + capture.malformed, capture.frames)
      << what;
  EXPECT_EQ(capture.frames, reader->read_all().size()) << what;
}

TEST(ParseCaptureHostile, TruncationAtEveryCutPoint) {
  const auto full = layered_capture();
  PcapReader reader{std::span<const std::uint8_t>(full)};
  const auto whole = parse_capture(reader, 0);
  ASSERT_EQ(whole.frames, 3U);
  ASSERT_EQ(whole.malformed, 0U);
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    expect_capture_accounted({full.data(), cut}, "cut " + std::to_string(cut));
  }
}

TEST(ParseCaptureHostile, ByteMutationSweep) {
  const auto base = layered_capture();
  for (std::size_t offset = 0; offset < base.size(); ++offset) {
    for (const std::uint8_t mask : {0x01, 0x80, 0xFF}) {
      auto bytes = base;
      bytes[offset] ^= mask;
      expect_capture_accounted(bytes, "offset " + std::to_string(offset) +
                                          " mask " + std::to_string(mask));
    }
  }
}

}  // namespace
}  // namespace ofmtl::trace
