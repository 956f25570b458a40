// Allocation-free batched wire parse: the trace-ingest front end that turns
// lane windows of raw frame bytes into PacketHeader lanes for the runtime,
// plus parse_capture, the whole-capture loop over it.
//
// Follows the hot-path idioms of docs/ARCHITECTURE.md: per-thread scratch
// that is cleared but never shrunk (SearchContext-style), software prefetch
// of upcoming lanes' frame bytes while the current lane parses, and no
// exceptions on the hot path — malformed lanes are recorded in the scratch
// and skipped, mirroring what a NIC would do with a runt frame. Parsed
// lanes are bitwise-identical to the scalar parse_packet header (the two
// share one layer-walk core; property-tested in tests/test_trace_replay).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/header.hpp"

namespace ofmtl::trace {

class PcapReader;

/// A view of one raw frame's bytes.
using FrameSpan = std::span<const std::uint8_t>;

/// One parse lane: the captured bytes plus the frame's original on-wire
/// length (pcap orig_len). When the capture was snap-length-capped,
/// wire_len > bytes.size() tells the parser to validate L3 length fields
/// against the wire rather than the capture, so snapped frames parse
/// gracefully (cut-off fields absent) instead of being rejected as
/// malformed. 0 means the capture is the whole frame.
struct WireFrame {
  WireFrame() = default;
  WireFrame(FrameSpan captured, std::uint32_t orig_len = 0)  // NOLINT: lanes
      : bytes(captured), wire_len(orig_len) {}               // build from spans
  FrameSpan bytes;
  std::uint32_t wire_len = 0;
};

/// Lanes ahead whose frame bytes are prefetched while the current lane
/// parses (frames sit scattered in the capture buffer, so the walk is not
/// hardware-prefetcher friendly on its own).
inline constexpr std::size_t kParsePrefetchDistance = 8;

/// Per-thread scratch of the batched wire parser. One instance per thread,
/// reused across batches; buffers are cleared, never shrunk, so a warmed
/// context stops allocating (counted in tests/test_trace_replay.cpp).
struct ParseContext {
  /// Lanes of the last parse_batch call that were rejected as malformed
  /// (ascending lane indices).
  std::vector<std::uint32_t> bad_lanes;
};

/// Parse frames[i] into out[i] (1:1 lanes; out.size() >= frames.size()).
/// Malformed lanes are recorded in ctx.bad_lanes and their out lane is
/// reset to an empty header. `in_port` seeds kInPort on every lane (a
/// capture is one ingress port's view). Returns the number of valid lanes.
std::size_t parse_batch(std::span<const WireFrame> frames,
                        std::uint32_t in_port, std::span<PacketHeader> out,
                        ParseContext& ctx);

/// One capture, parsed.
struct ParsedCapture {
  std::vector<PacketHeader> headers;  ///< capture order, malformed dropped
  std::uint64_t frames = 0;           ///< records the reader yielded
  std::uint64_t malformed = 0;        ///< frames parse_batch rejected
};

/// Parse every record of `reader` (from its current position) under
/// `in_port` through parse_batch, one window at a time. A capture is one
/// ingress port's view of the wire, so one in_port covers it. Malformed
/// frames are counted and dropped, never thrown:
/// headers.size() + malformed == frames.
[[nodiscard]] ParsedCapture parse_capture(PcapReader& reader,
                                          std::uint32_t in_port);

}  // namespace ofmtl::trace
