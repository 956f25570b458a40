// Combined L2/L3 switch with a live control channel: a 3-table pipeline
// (VLAN admission -> MAC learning -> IPv4 routing for frames addressed to
// the router MAC), driven through SwitchModel flow-mods with idle timeouts.
// Shows the full library surface: multi-table Goto semantics, incremental
// updates on the decomposed structures, per-flow counters and expiry, and
// the live equivalence check against the reference pipeline.
//
//   $ ./l2l3_switch [ticks]
#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "core/switch_model.hpp"
#include "workload/rng.hpp"

int main(int argc, char** argv) {
  using namespace ofmtl;
  const std::uint64_t ticks =
      argc > 1 ? static_cast<std::uint64_t>(std::atoll(argv[1])) : 3000;

  constexpr std::uint64_t kRouterMac = 0x02000000FFFFULL;

  // Table 0: VLAN admission (known VLANs -> table 1).
  // Table 1: MAC learning; router MAC -> table 2.
  // Table 2: IPv4 longest-prefix routing.
  SwitchModel sw({{FieldId::kVlanId},
                  {FieldId::kEthDst},
                  {FieldId::kIpv4Dst}});

  FlowEntryId next_id = 1;
  std::uint64_t now = 0;
  // Every mod this program sends is well formed: a rejection is a bug here.
  const auto install = [&sw, &now](const FlowMod& mod) {
    if (sw.apply(mod, now) != FlowModStatus::kOk) {
      throw std::logic_error("flow-mod rejected");
    }
  };

  // Static configuration: admit VLANs 10/20, steer router-addressed frames.
  for (const std::uint16_t vlan : {10, 20}) {
    FlowMod mod;
    mod.table = 0;
    mod.entry.id = next_id++;
    mod.entry.priority = 1;
    mod.entry.match.set(FieldId::kVlanId, FieldMatch::exact(std::uint64_t{vlan}));
    mod.entry.instructions = goto_table_instruction(1);
    install(mod);
  }
  {
    FlowMod mod;
    mod.table = 1;
    mod.entry.id = next_id++;
    mod.entry.priority = 100;
    mod.entry.match.set(FieldId::kEthDst, FieldMatch::exact(kRouterMac));
    mod.entry.instructions = goto_table_instruction(2);
    install(mod);
  }
  // Routing table: a few static prefixes + default route.
  const struct {
    const char* cidr;
    unsigned len;
    std::uint32_t port;
  } routes[] = {
      {"10.1.0.0", 16, 31}, {"10.2.0.0", 16, 32}, {"10.2.3.0", 24, 33},
      {"0.0.0.0", 0, 30},
  };
  for (const auto& route : routes) {
    FlowMod mod;
    mod.table = 2;
    mod.entry.id = next_id++;
    mod.entry.priority = static_cast<std::uint16_t>(route.len);
    mod.entry.match.set(
        FieldId::kIpv4Dst,
        FieldMatch::of_prefix(Prefix::from_value(
            Ipv4Address::parse(route.cidr).value(), route.len, 32)));
    mod.entry.instructions = output_instruction(route.port);
    install(mod);
  }

  // Traffic: stations churn; MAC entries learned with idle timeout 50.
  workload::Rng rng(7);
  std::size_t l2_forwarded = 0, routed = 0, to_controller = 0, learned = 0,
              expired_total = 0, mismatches = 0;
  std::vector<std::pair<std::uint64_t, FlowEntryId>> station_macs;  // mac, id

  for (now = 1; now <= ticks; ++now) {
    PacketHeader h;
    h.set_vlan_id(rng.chance(0.5) ? 10 : 20);
    const std::uint64_t src_mac = 0x020000000000ULL | rng.below(40);
    h.set_eth_src(MacAddress{src_mac});
    if (rng.chance(0.3)) {
      h.set_eth_dst(MacAddress{kRouterMac});
      h.set_ipv4_dst(Ipv4Address{static_cast<std::uint32_t>(
          (0x0A010000 + rng.below(0x2FFFF)) & 0xFFFFFFFF)});
    } else if (!station_macs.empty() && rng.chance(0.7)) {
      h.set_eth_dst(MacAddress{station_macs[rng.below(station_macs.size())].first});
    } else {
      h.set_eth_dst(MacAddress{0x020000000000ULL | rng.below(40)});
    }

    const auto result = sw.process(h, 64 + rng.below(1400), now);
    if (sw.process_reference(h) != result) ++mismatches;
    switch (result.verdict) {
      case Verdict::kForwarded:
        (result.visited_tables.size() == 3 ? routed : l2_forwarded) += 1;
        break;
      case Verdict::kToController: {
        ++to_controller;
        // Controller learns the source MAC with an idle timeout.
        bool known = false;
        for (const auto& [mac, id] : station_macs) known |= mac == src_mac;
        if (!known) {
          FlowMod mod;
          mod.table = 1;
          mod.entry.id = next_id++;
          mod.entry.priority = 1;
          mod.entry.match.set(FieldId::kEthDst, FieldMatch::exact(src_mac));
          mod.entry.instructions =
              output_instruction(1 + static_cast<std::uint32_t>(src_mac % 16));
          mod.timeouts.idle_timeout = 50;
          install(mod);
          station_macs.emplace_back(src_mac, mod.entry.id);
          ++learned;
        }
        break;
      }
      case Verdict::kDropped:
        break;
    }

    if (now % 25 == 0) {
      const auto evicted = sw.sweep_timeouts(now);
      expired_total += evicted.size();
      for (const auto& [flow, timeout] : evicted) {
        std::erase_if(station_macs, [&flow](const auto& pair) {
          return pair.second == flow.id;
        });
      }
    }
  }

  std::cout << "L2/L3 switch after " << ticks << " ticks:\n";
  std::cout << "  L2 forwarded        : " << l2_forwarded << "\n";
  std::cout << "  routed (3 tables)   : " << routed << "\n";
  std::cout << "  to controller       : " << to_controller << " (learned "
            << learned << " MACs)\n";
  std::cout << "  idle-expired        : " << expired_total << "\n";
  std::cout << "  live entries        : " << sw.entry_count() << "\n";
  std::cout << "  ref-vs-decomposed mismatches: " << mismatches
            << " (must be 0)\n\n";
  sw.pipeline().memory_report("l2l3").print(std::cout);
  return mismatches == 0 ? 0 : 1;
}
