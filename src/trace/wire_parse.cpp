#include "trace/wire_parse.hpp"

#include <array>
#include <stdexcept>

#include "net/packet.hpp"
#include "trace/pcap.hpp"

namespace ofmtl::trace {

namespace {

constexpr std::size_t kCaptureWindow = 64;  ///< frames per parse_batch call

inline void prefetch_frame(const WireFrame& frame) {
#if defined(__GNUC__) || defined(__clang__)
  if (!frame.bytes.empty()) {
    __builtin_prefetch(frame.bytes.data());
    // Headers the parser walks span up to ~70 bytes (Ethernet + stacked
    // tags + IPv6 + L4); one extra line covers them on 64-byte-line parts.
    if (frame.bytes.size() > 64) __builtin_prefetch(frame.bytes.data() + 64);
  }
#else
  (void)frame;
#endif
}

}  // namespace

std::size_t parse_batch(std::span<const WireFrame> frames,
                        std::uint32_t in_port, std::span<PacketHeader> out,
                        ParseContext& ctx) {
  if (out.size() < frames.size()) {
    throw std::invalid_argument("parse_batch: out span too small");
  }
  ctx.bad_lanes.clear();

  const std::size_t warm =
      frames.size() < kParsePrefetchDistance ? frames.size()
                                             : kParsePrefetchDistance;
  for (std::size_t i = 0; i < warm; ++i) prefetch_frame(frames[i]);

  std::size_t valid = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (i + kParsePrefetchDistance < frames.size()) {
      prefetch_frame(frames[i + kParsePrefetchDistance]);
    }
    if (parse_packet_header(frames[i].bytes, in_port, out[i],
                            frames[i].wire_len)) {
      ++valid;
    } else {
      out[i] = PacketHeader{};
      ctx.bad_lanes.push_back(static_cast<std::uint32_t>(i));
    }
  }
  return valid;
}

ParsedCapture parse_capture(PcapReader& reader, std::uint32_t in_port) {
  ParsedCapture capture;
  std::array<WireFrame, kCaptureWindow> frames;
  std::array<PacketHeader, kCaptureWindow> parsed;
  ParseContext ctx;
  PcapRecord record;
  for (bool more = true; more;) {
    std::size_t n = 0;
    while (n < kCaptureWindow && (more = reader.next(record))) {
      frames[n++] = WireFrame(record.bytes, record.orig_len);
    }
    (void)parse_batch({frames.data(), n}, in_port, parsed, ctx);
    capture.frames += n;
    capture.malformed += ctx.bad_lanes.size();
    std::size_t next_bad = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (next_bad < ctx.bad_lanes.size() && ctx.bad_lanes[next_bad] == i) {
        ++next_bad;  // dropped lane
        continue;
      }
      capture.headers.push_back(parsed[i]);
    }
  }
  return capture;
}

}  // namespace ofmtl::trace
