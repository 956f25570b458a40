// Synthetic→pcap export: serialize the header streams the workload
// generators produce (filter-set traces, Zipf streams) into classic pcap
// captures, so every synthetic scenario round-trips through the byte-level
// trace-ingest path (trace/pcap.hpp → trace/wire_parse.hpp → runtime).
//
// Synthetic headers range over field combinations raw Ethernet cannot
// carry (free-standing L4 ports, 13-bit VLAN IDs, kInPort...), so export
// wire-canonicalizes each header first (spec_from_header in net/packet.hpp
// documents the projection). replayed_headers() computes what a replay of
// the capture parses back to — the oracle side of the round-trip tests.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "flow/flow_entry.hpp"
#include "net/header.hpp"
#include "trace/pcap.hpp"

namespace ofmtl::workload {

/// The ingress port a single-port capture of this filter set's traffic
/// would arrive on: the first exact kInPort match in the set, or 0 when the
/// set does not match on the ingress port. Replay parses a whole capture
/// under one in_port (the wire does not carry it), so picking a port the
/// rules actually match keeps e.g. routing traces walking the full
/// two-table pipeline instead of missing at table 0. Shared by the CLI,
/// perfbench, and the replay tests so they cannot drift apart.
[[nodiscard]] std::uint32_t capture_in_port(const FilterSet& set);

struct TraceExportConfig {
  std::uint64_t base_ts_ns = 1'000'000'000ULL;  ///< first record timestamp
  std::uint64_t inter_packet_gap_ns = 1'000;    ///< synthetic spacing
  trace::PcapWriterConfig pcap;                 ///< endianness / precision
};

/// Serialize `headers` (wire-canonicalized) into an in-memory pcap capture;
/// the returned writer exposes the buffer and save(path).
[[nodiscard]] trace::PcapWriter export_trace(
    std::span<const PacketHeader> headers, const TraceExportConfig& config = {});

/// The headers a replay of the exported capture parses back to:
/// canonical_wire_header(headers[i], in_port) lane by lane.
[[nodiscard]] std::vector<PacketHeader> replayed_headers(
    std::span<const PacketHeader> headers, std::uint32_t in_port);

}  // namespace ofmtl::workload
