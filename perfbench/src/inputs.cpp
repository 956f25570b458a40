#include "inputs.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/builder.hpp"
#include "ofp/messages.hpp"
#include "trace/pcap.hpp"
#include "workload/acl_synth.hpp"
#include "workload/rng.hpp"
#include "workload/stanford_synth.hpp"
#include "workload/trace_export.hpp"
#include "workload/trace_gen.hpp"
#include "workload/zipf.hpp"

namespace perfbench {

using namespace ofmtl;

namespace {

// Frames in the capture; the closed loop cycles through them. 2^18 frames
// is about 21 MB of minimum-size records.
constexpr std::size_t kStreamFrames = std::size_t{1} << 18;
static_assert(kStreamFrames % kBatch == 0, "the loop reads whole batches");
constexpr std::size_t kRoutePoolFlows = 4096;
constexpr double kRouteZipfS = 1.1;
constexpr std::size_t kAclRules = 4000;
constexpr std::size_t kAclPoolFlows = 65536;
constexpr double kPoolHitRatio = 0.9;

/// Independent sub-seeds per input, so e.g. a new traffic draw never
/// shifts the rule set drawn from the same run seed.
struct Seeds {
  std::uint64_t rules, pool, stream, block;
  explicit Seeds(std::uint64_t seed) {
    std::uint64_t state = seed;
    rules = workload::splitmix64(state);
    pool = workload::splitmix64(state);
    stream = workload::splitmix64(state);
    block = workload::splitmix64(state);
  }
};

bool is_routing(Workload workload) { return workload != Workload::kAclUniform; }

/// A /24 block that no pool header's destination falls in: /32 rules in it
/// never match the traffic, so churning them leaves every verdict of the
/// static oracle valid.
std::uint32_t free_block(const std::vector<PacketHeader>& pool,
                         std::uint64_t seed) {
  std::vector<std::uint32_t> used;
  used.reserve(pool.size());
  for (const auto& header : pool) {
    used.push_back(static_cast<std::uint32_t>(header.get64(FieldId::kIpv4Dst)) >> 8);
  }
  std::sort(used.begin(), used.end());
  workload::Rng rng(seed);
  for (int attempt = 0; attempt < 1024; ++attempt) {
    const auto block = static_cast<std::uint32_t>(rng.between(0x010000, 0xDFFFFF));
    if (!std::binary_search(used.begin(), used.end(), block)) return block << 8;
  }
  throw std::runtime_error("no /24 block is free of pool traffic");
}

/// Appends one FLOW_MOD per entry to `bytes`, encoded back to back.
void encode_mods(std::span<const FlowEntry> entries, std::uint8_t table,
                 FlowModCommand command, std::uint32_t& xid,
                 std::vector<std::uint8_t>& bytes) {
  for (const auto& entry : entries) {
    ofp::FlowModMsg mod;
    mod.command = command;
    mod.table_id = table;
    mod.cookie = entry.id;
    mod.entry = entry;
    const auto frame = ofp::encode({xid++, mod});
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }
}

/// The churn rules, sets A and B of kModsPerBatch / 2 each: /32 routes (routing, table 1, behind the
/// capture port's metadata label) or /32 destination ACL rules (table 0)
/// inside `block`, with ids above every generated rule.
std::vector<FlowEntry> churn_entries(const Inputs& inputs, std::uint32_t block,
                                     std::uint8_t& table) {
  FlowEntryId next_id = 0;
  for (const auto& entry : inputs.rules.entries) {
    next_id = std::max(next_id, entry.id);
  }
  FlowEntry base;
  if (is_routing(inputs.workload)) {
    table = 1;
    // Read the capture port's metadata label and a forwarding action off
    // the tables build_app lays out, rather than re-deriving its labels.
    const auto spec = build_app(inputs.rules, TableLayout::kPerFieldTables);
    for (const auto& entry : spec.reference.table(0).entries()) {
      const auto& port = entry.match.get(FieldId::kInPort);
      if (port.kind == MatchKind::kExact && port.value.lo == inputs.in_port &&
          entry.instructions.write_metadata) {
        base.match.set(FieldId::kMetadata,
                       FieldMatch::exact(entry.instructions.write_metadata->value));
      }
    }
    base.instructions = spec.reference.table(1).entries().front().instructions;
    base.priority = 32;
  } else {
    table = 0;
    base.instructions = output_instruction(1);
    base.priority = 0xFFFF;
  }
  std::vector<FlowEntry> entries;
  for (std::uint32_t k = 0; k < kModsPerBatch; ++k) {
    FlowEntry entry = base;
    entry.id = next_id + 1 + k;
    entry.match.set(FieldId::kIpv4Dst,
                    FieldMatch::of_prefix(Prefix::from_value(block + k, 32, 32)));
    entries.push_back(std::move(entry));
  }
  return entries;
}

}  // namespace

bool parse_workload(std::string_view name, Workload& out) {
  for (const auto workload :
       {Workload::kRouteZipf, Workload::kAclUniform, Workload::kRouteChurn}) {
    if (name == to_string(workload)) {
      out = workload;
      return true;
    }
  }
  return false;
}

std::string_view to_string(Workload workload) {
  switch (workload) {
    case Workload::kRouteZipf:
      return "route_zipf";
    case Workload::kAclUniform:
      return "acl_uniform";
    case Workload::kRouteChurn:
      return "route_churn";
  }
  return "unknown";
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const auto byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

Inputs make_inputs(Workload workload, std::uint64_t seed) {
  const Seeds seeds(seed);
  Inputs inputs;
  inputs.workload = workload;
  inputs.seed = seed;

  std::vector<PacketHeader> pool;
  if (is_routing(workload)) {
    inputs.rules = workload::generate_filterset(workload::FilterApp::kRouting,
                                                "yoza", seeds.rules);
    pool = workload::generate_trace(
        inputs.rules,
        {.packets = kRoutePoolFlows, .hit_ratio = kPoolHitRatio, .seed = seeds.pool});
  } else {
    inputs.rules = workload::generate_acl({.rules = kAclRules, .seed = seeds.rules});
    pool = workload::generate_trace(
        inputs.rules,
        {.packets = kAclPoolFlows, .hit_ratio = kPoolHitRatio, .seed = seeds.pool});
  }
  inputs.in_port = workload::capture_in_port(inputs.rules);
  inputs.pool_headers = workload::replayed_headers(pool, inputs.in_port);

  inputs.frame_flow.resize(kStreamFrames);
  if (is_routing(workload)) {
    workload::ZipfSampler sampler(pool.size(), kRouteZipfS, seeds.stream);
    for (auto& flow : inputs.frame_flow) {
      flow = static_cast<std::uint32_t>(sampler.next());
    }
  } else {
    workload::Rng rng(seeds.stream);
    for (auto& flow : inputs.frame_flow) {
      flow = static_cast<std::uint32_t>(rng.below(pool.size()));
    }
  }
  std::vector<PacketHeader> stream;
  stream.reserve(kStreamFrames);
  for (const auto flow : inputs.frame_flow) stream.push_back(pool[flow]);
  inputs.capture = workload::export_trace(stream).take_buffer();
  inputs.capture_hash = fnv1a(inputs.capture);

  trace::PcapReader reader{std::span<const std::uint8_t>(inputs.capture)};
  for (const auto& record : reader.read_all()) {
    inputs.frames.emplace_back(record.bytes, record.orig_len);
  }
  if (inputs.frames.size() != kStreamFrames) {
    throw std::runtime_error("capture holds " + std::to_string(inputs.frames.size()) +
                             " frames, expected " + std::to_string(kStreamFrames));
  }

  const std::uint32_t block = free_block(inputs.pool_headers, seeds.block);
  std::uint8_t table = 0;
  const auto entries = churn_entries(inputs, block, table);
  const std::span<const FlowEntry> set_a = std::span(entries).first(kModsPerBatch / 2);
  const std::span<const FlowEntry> set_b = std::span(entries).last(kModsPerBatch / 2);
  std::uint32_t xid = 1;
  inputs.hello = ofp::encode({0, ofp::Hello{}});
  encode_mods(set_a, table, FlowModCommand::kAdd, xid, inputs.prime_mods);
  encode_mods(set_b, table, FlowModCommand::kAdd, xid, inputs.mod_batches[0]);
  encode_mods(set_a, table, FlowModCommand::kDelete, xid, inputs.mod_batches[0]);
  encode_mods(set_a, table, FlowModCommand::kAdd, xid, inputs.mod_batches[1]);
  encode_mods(set_b, table, FlowModCommand::kDelete, xid, inputs.mod_batches[1]);
  return inputs;
}

MultiTableLookup compile_rules(const Inputs& inputs) {
  if (is_routing(inputs.workload)) {
    return compile_app(build_app(inputs.rules, TableLayout::kPerFieldTables));
  }
  MultiTableLookup tables;
  tables.add_table(LookupTable::compile(FlowTable{inputs.rules.entries}));
  return tables;
}

}  // namespace perfbench
