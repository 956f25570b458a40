// Seeded inputs of the three benchmark workloads: the rule set, a pcap
// capture of the packet stream, the OFP byte streams of the flow-mod
// batches, and the oracle verdict of every flow in the traffic pool. The
// program under test only ever sees these generated bytes and rules.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.hpp"
#include "flow/flow_entry.hpp"
#include "net/header.hpp"
#include "trace/wire_parse.hpp"

namespace perfbench {

enum class Workload : std::uint8_t { kRouteZipf, kAclUniform, kRouteChurn };

/// Parses a workload name; returns false when the name is unknown.
bool parse_workload(std::string_view name, Workload& out);
[[nodiscard]] std::string_view to_string(Workload workload);

/// Packets in one data batch, and the mods in one FLOW_MOD batch.
inline constexpr std::size_t kBatch = 256;
inline constexpr std::size_t kModsPerBatch = 16;

struct Inputs {
  Workload workload = Workload::kRouteZipf;
  std::uint64_t seed = 0;

  /// The generated rule set; every set-up compiles it from scratch.
  ofmtl::FilterSet rules;
  /// Ingress port every frame of the capture arrives on.
  std::uint32_t in_port = 0;

  /// Classic-pcap image of the packet stream, and one parse lane per
  /// record (views into `capture`).
  std::vector<std::uint8_t> capture;
  std::vector<ofmtl::trace::WireFrame> frames;
  /// Pool flow each frame was drawn from.
  std::vector<std::uint32_t> frame_flow;
  /// The header a correct parse of each pool flow yields.
  std::vector<ofmtl::PacketHeader> pool_headers;

  /// OFP HELLO; the FLOW_MODs adding rule set A (fed once, unmeasured);
  /// and the two FLOW_MOD batches the control path alternates between:
  /// [0] adds set B and deletes set A, [1] adds A and deletes B. Every
  /// measured batch thus holds the same mix of kModsPerBatch / 2 adds and
  /// kModsPerBatch / 2 deletes of /32 rules.
  std::vector<std::uint8_t> hello;
  std::vector<std::uint8_t> prime_mods;
  std::array<std::vector<std::uint8_t>, 2> mod_batches;

  /// FNV-1a of `capture`.
  std::uint64_t capture_hash = 0;

  Inputs() = default;
  Inputs(const Inputs&) = delete;             // `frames` view `capture`
  Inputs& operator=(const Inputs&) = delete;
  Inputs(Inputs&&) = default;                 // moving keeps the buffer
  Inputs& operator=(Inputs&&) = default;
};

/// Generates every input of `workload` from `seed`. Throws
/// std::runtime_error when the generated capture does not parse back.
[[nodiscard]] Inputs make_inputs(Workload workload, std::uint64_t seed);

/// Compiles the rule set the way the workload installs it: the routing
/// workloads through build_app + compile_app (per-field tables), the ACL
/// through LookupTable::compile into one table.
[[nodiscard]] ofmtl::MultiTableLookup compile_rules(const Inputs& inputs);

[[nodiscard]] std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes);

}  // namespace perfbench
