// OFP control-plane soak: N concurrent scripted controllers fire M flow-mods
// each at a live OfpServer through seeded fault injection — fragmented
// writes, byte-at-a-time delivery, mid-message RSTs with reconnect-and-
// replay — and the resulting classifier state must converge BITWISE to an
// oracle built by applying the same logical mods sequentially.
//
// Convergence protocol (what makes exact assertions possible under faults):
//   - each session owns a disjoint flow-entry id range, so replays cannot
//     collide across sessions;
//   - mods go out in small chunks, each fenced by an echo barrier; the
//     session answers frames in order, so the echo reply proves every mod
//     in the chunk was applied — a checkpoint;
//   - on connection loss, only the unconfirmed chunk is replayed — duplicate
//     adds / re-deletes earn ERROR replies but leave the same final state
//     (idempotent replay), and checkpointing keeps forward progress even at
//     RST rates where a full-phase replay would never finish.
//
//   ofp_soak [--sessions 4] [--mods 200] [--fault light|heavy|none]
//            [--seed 1] [--json]
//   ofp_soak --failover [--mods 200] [--kill-every 5] [--fault ...]
//            [--seed 1] [--json]
//
// --failover runs the controller-failover scenario instead: a master and a
// standby slave, with a seeded chaos scheduler killing the master mid-batch
// every N chunks. Each kill must promote the standby (unsolicited
// ROLE_REPLY), resync the flow table against the survivor's confirmed
// intent (stale uncheckpointed entries GC'd, lost entries re-sent), and
// continue from the checkpoint — converging bitwise with zero dropped mods.
//
// Exit 1 on any divergence from the oracle or any session that never
// converged. --json writes BENCH_ofp_soak.json (flow-mods/sec plus the two
// zero-ceiling robustness metrics soak/desyncs and soak/dropped_sessions),
// or BENCH_ofp_failover.json in --failover mode (failover/desyncs and
// failover/dropped_mods zero-gated, promotions/resyncs counted).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "../bench/bench_common.hpp"
#include "ofp/server/flow_mod_sink.hpp"
#include "ofp/server/server.hpp"
#include "runtime/snapshot.hpp"
#include "support/ofp/chaos.hpp"
#include "support/ofp/fault_injection.hpp"
#include "workload/rng.hpp"

namespace {

using namespace ofmtl;
using namespace ofmtl::ofp;
using server::apply_mods;
using server::OfpServer;
using server::PendingFlowMod;
using server::ServerConfig;
using testing::FaultLevel;
using testing::make_fault;
using testing::ScriptedController;

struct Options {
  std::uint32_t sessions = 4;
  std::uint32_t mods = 200;  // adds per session; every 3rd is deleted after
  FaultLevel fault = FaultLevel::kLight;
  std::uint64_t seed = 1;
  bool json = false;
  bool failover = false;
  std::uint32_t kill_every = 5;  ///< kill the master every N chunks
  int stats_port = -1;  ///< -1 off, 0 ephemeral (bound port printed)
  std::uint32_t linger_ms = 0;  ///< keep the server up after the soak, so
                                ///< an external scraper can hit the stats
                                ///< endpoint (CI smoke)
};

[[noreturn]] void usage_and_exit() {
  std::cerr << "usage: ofp_soak [--sessions N] [--mods M] "
               "[--fault light|heavy|none] [--seed S] [--json]\n"
               "       ofp_soak --failover [--mods M] [--kill-every N] "
               "[--fault light|heavy|none] [--seed S] [--json]\n"
               "common: [--stats-port P] [--linger-ms T]  (P=0 binds an\n"
               "ephemeral stats port, printed as STATS_PORT=<n>; T keeps\n"
               "the server up after the soak for external scrapes)\n";
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_and_exit();
      return argv[++i];
    };
    if (arg == "--sessions") {
      opt.sessions = static_cast<std::uint32_t>(std::stoul(value()));
    } else if (arg == "--mods") {
      opt.mods = static_cast<std::uint32_t>(std::stoul(value()));
    } else if (arg == "--fault") {
      const auto v = value();
      if (v == "light") opt.fault = FaultLevel::kLight;
      else if (v == "heavy") opt.fault = FaultLevel::kHeavy;
      else if (v == "none") opt.fault = FaultLevel::kNone;
      else usage_and_exit();
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--failover") {
      opt.failover = true;
    } else if (arg == "--kill-every") {
      opt.kill_every = static_cast<std::uint32_t>(std::stoul(value()));
    } else if (arg == "--stats-port") {
      opt.stats_port = static_cast<int>(std::stol(value()));
    } else if (arg == "--linger-ms") {
      opt.linger_ms = static_cast<std::uint32_t>(std::stoul(value()));
    } else {
      usage_and_exit();
    }
  }
  // kill_every == 1 is degenerate: every replay attempt is killed too, so no
  // chunk can ever confirm.
  if (opt.sessions == 0 || opt.mods == 0 || opt.kill_every < 2) {
    usage_and_exit();
  }
  return opt;
}

MultiTableLookup make_tables() {
  MultiTableLookup tables;
  tables.add_table(LookupTable({FieldId::kEthDst}, {}));
  return tables;
}

/// Deterministic cookie per flow id — what lets a failed-over controller
/// describe its full-table intent to the resync protocol without having
/// stored anything but the id range it owns.
constexpr std::uint64_t cookie_of(std::uint32_t id) {
  return 0x9E3779B97F4A7C15ULL * (std::uint64_t{id} + 1);
}

FlowModMsg make_mod(std::uint32_t id, FlowModCommand command) {
  FlowModMsg mod;
  mod.command = command;
  mod.table_id = 0;
  mod.cookie = cookie_of(id);
  mod.entry.id = id;
  mod.entry.priority = static_cast<std::uint16_t>(1 + id % 8);
  mod.entry.match.set(FieldId::kEthDst, FieldMatch::exact(std::uint64_t{id}));
  mod.entry.instructions = output_instruction(id % 1024);
  return mod;
}

bool deleted_after_add(std::uint32_t id) { return id % 3 == 0; }

/// One controller session's life: adds (phase 1), deletes of the subset
/// (phase 2). Mods go out in small chunks, each fenced by an echo barrier —
/// a confirmed chunk is a checkpoint, so a connection loss replays only the
/// unconfirmed chunk (duplicate replays earn ERROR replies, state is
/// unchanged). Checkpointing is what guarantees forward progress even when
/// the per-frame RST probability makes a full-phase replay hopeless.
struct ControllerOutcome {
  bool converged = false;
  std::uint32_t reconnects = 0;
  std::size_t errors_seen = 0;
};

constexpr std::uint32_t kChunkMods = 16;

ControllerOutcome run_controller(std::uint16_t port, std::uint32_t base,
                                 const Options& opt, std::uint64_t seed) {
  workload::Rng rng(seed);
  ScriptedController controller;
  ControllerOutcome outcome;
  bool connected = false;

  // Deliver + confirm one chunk of ids, reconnecting and replaying until
  // the barrier proves it applied. False when attempts run out.
  int connect_fails = 0, send_fails = 0, barrier_fails = 0;
  const auto run_chunk = [&](std::span<const std::uint32_t> ids,
                             FlowModCommand command) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      if (!connected) {
        if (!controller.connect(port)) {
          // Refused connects are transient: an RST'd predecessor may not be
          // reaped yet, so the server can sit at its session cap for a poll
          // cycle. Back off instead of burning the budget in a tight loop.
          connect_fails++;
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          continue;
        }
        connected = true;
        outcome.reconnects++;
      }
      bool alive = true;
      for (const auto id : ids) {
        const auto frame = encode({controller.next_xid(), make_mod(id, command)});
        if (!controller.send(frame, make_fault(rng, frame.size(), opt.fault))) {
          alive = false;
          send_fails++;
          break;
        }
      }
      if (alive) {
        const auto barrier = controller.barrier();
        outcome.errors_seen += barrier.errors_seen;
        if (barrier.ok) return true;
        barrier_fails++;
      }
      connected = false;  // transport died; replay this chunk on a new one
    }
    std::cerr << "ofp_soak: chunk gave up (connect_fails=" << connect_fails
              << " send_fails=" << send_fails
              << " barrier_fails=" << barrier_fails << ")\n";
    return false;
  };

  for (const auto command : {FlowModCommand::kAdd, FlowModCommand::kDelete}) {
    std::vector<std::uint32_t> ids;
    for (std::uint32_t i = 0; i < opt.mods; ++i) {
      const std::uint32_t id = base + i;
      if (command == FlowModCommand::kDelete && !deleted_after_add(id)) continue;
      ids.push_back(id);
    }
    for (std::size_t off = 0; off < ids.size(); off += kChunkMods) {
      const auto n = std::min<std::size_t>(kChunkMods, ids.size() - off);
      if (!run_chunk({ids.data() + off, n}, command)) return outcome;
    }
  }
  outcome.converged = true;
  if (outcome.reconnects > 0) outcome.reconnects--;  // first connect is free
  return outcome;
}

// --- failover scenario -----------------------------------------------------
//
// One master drives the same add/delete phases as the plain soak while a
// slave stands by; a seeded ChaosScheduler kills the master mid-batch every
// --kill-every chunks (plus whatever the byte-level fault plan RSTs on its
// own). Every death must produce, in order:
//   1. an unsolicited ROLE_REPLY promoting the standby (lowest-id slave),
//   2. a resync of the survivor's confirmed intent — entries the dead
//      master applied past its last checkpoint are GC'd (cookie-stamped
//      journal diff), entries the intent claims but the table lost are
//      reported missing and re-sent,
//   3. replay of the unconfirmed chunk through the new master.
// At the end the classifier must match the oracle bitwise AND a final
// full-intent resync audit must report nothing to delete and nothing
// missing (journal == digest == published table).
//
// Determinism boundary: the chaos decision stream (which chunks are killed,
// where frames are cut) replays bit-identically from --seed. How many mods
// of a partially delivered chunk the server applies before the RST lands is
// a real-TCP race, so per-run GC'd/restored counts may wobble — the
// convergence result may not: every seed must end bitwise-equal, zero drops.

/// Print the bound stats port (machine-readable, for the CI smoke) as soon
/// as the server is up, and hold the server open afterwards long enough for
/// an external scraper to hit the endpoint.
void announce_stats_port(const OfpServer& server, const Options& opt) {
  if (opt.stats_port < 0) return;
  std::cout << "STATS_PORT=" << server.stats_port() << std::endl;
}

void linger_after_soak(const Options& opt) {
  if (opt.linger_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(opt.linger_ms));
  }
}

int run_failover(const Options& opt) {
  runtime::SnapshotClassifier classifier(make_tables());
  ServerConfig config;
  config.max_sessions = 16;
  config.session.echo_interval_ms = 30'000;  // the scenario drives echoes
  config.stats_port = opt.stats_port;
  OfpServer server(server::make_classifier_sink(classifier), config);
  if (!server.start()) {
    std::cerr << "ofp_soak: server failed to start\n";
    return 1;
  }
  announce_stats_port(server, opt);

  testing::ChaosProfile profile;
  profile.kill_every = opt.kill_every;
  profile.stall_p = 0.10;  // occasional short silences between chunks
  profile.max_stall_ms = 5;
  testing::ChaosScheduler chaos(opt.seed, profile);
  workload::Rng rng(opt.seed * 104729 + 17);

  std::uint64_t generation = 0;
  ScriptedController master;
  ScriptedController standby;

  // Connect (retrying refused connects: a freshly RST'd predecessor may not
  // be reaped yet) and claim `role` under a fresh generation.
  const auto connect_as = [&](ScriptedController& controller, Role role) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      if (!controller.connect(server.port())) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        continue;
      }
      const auto reply = controller.request_role(role, ++generation);
      if (reply.has_value() && reply->role == role) return true;
      controller.socket().close();
    }
    return false;
  };

  std::uint32_t promotions = 0;
  std::uint32_t resyncs = 0;
  std::uint32_t resync_deleted = 0;
  std::uint32_t resync_restored = 0;
  std::uint32_t kills = 0;
  std::size_t errors_seen = 0;
  // id -> cookie of every entry whose mod was CONFIRMED through an echo
  // barrier — the survivor's full-table intent. Nothing else survives a
  // master's death, by construction.
  std::unordered_map<std::uint32_t, std::uint64_t> confirmed;

  const auto intent_of = [&confirmed] {
    std::vector<ResyncEntry> intent;
    intent.reserve(confirmed.size());
    for (const auto& [id, cookie] : confirmed) {
      intent.push_back({0, id, cookie});
    }
    std::sort(intent.begin(), intent.end(),
              [](const ResyncEntry& a, const ResyncEntry& b) {
                return a.entry_id < b.entry_id;
              });
    return intent;
  };

  // The master just died: await the promotion notice on the standby, resync
  // it against the confirmed intent, re-add whatever the table lost, then
  // bring up a fresh standby for the next failure.
  const auto fail_over = [&]() {
    const auto notice = standby.await_promotion();
    if (!notice.has_value() || notice->role != Role::kMaster) return false;
    promotions++;
    const auto verdict = standby.resync(intent_of());
    if (!verdict.has_value()) return false;
    resyncs++;
    resync_deleted += verdict->deleted;
    // Re-apply mods the table lost: a partially applied delete chunk removed
    // entries the checkpointed intent still claims.
    for (const auto& entry : verdict->missing) {
      const auto frame = encode(
          {standby.next_xid(), make_mod(entry.entry_id, FlowModCommand::kAdd)});
      if (!standby.send(frame, {})) return false;
      resync_restored++;
    }
    if (!verdict->missing.empty() && !standby.barrier().ok) return false;
    master = std::move(standby);
    standby = ScriptedController{};
    return connect_as(standby, Role::kSlave);
  };

  // Deliver + confirm one chunk through the current master, failing over and
  // replaying from the checkpoint whenever the transport dies — whether the
  // chaos scheduler ordered the kill or the byte-level fault plan RST'd.
  const auto run_chunk = [&](std::span<const std::uint32_t> ids,
                             FlowModCommand command) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const auto decision = chaos.decide(testing::ChaosEdge::kChunkSent);
      // Mid-batch kill: deliver half the chunk, cut the next frame in the
      // middle, hard-RST.
      const std::size_t kill_at = decision.action == testing::ChaosAction::kKill
                                      ? ids.size() / 2
                                      : ids.size() + 1;
      bool alive = true;
      for (std::size_t i = 0; i < ids.size(); ++i) {
        const auto frame =
            encode({master.next_xid(), make_mod(ids[i], command)});
        if (i == kill_at) {
          testing::FrameFault cut;
          cut.cut = frame.size() / 2;
          (void)master.send(frame, cut);
          kills++;
          alive = false;
          break;
        }
        if (!master.send(frame, make_fault(rng, frame.size(), opt.fault))) {
          alive = false;
          break;
        }
      }
      if (alive && decision.action == testing::ChaosAction::kStall) {
        std::this_thread::sleep_for(std::chrono::milliseconds(decision.param_ms));
      }
      if (alive) {
        const auto barrier = master.barrier();
        errors_seen += barrier.errors_seen;
        if (barrier.ok) {
          // Checkpoint: the barrier proved every mod in the chunk applied.
          for (const auto id : ids) {
            if (command == FlowModCommand::kAdd) {
              confirmed[id] = cookie_of(id);
            } else {
              confirmed.erase(id);
            }
          }
          return true;
        }
      }
      if (!fail_over()) return false;
    }
    std::cerr << "ofp_soak: failover chunk gave up after 64 attempts\n";
    return false;
  };

  if (!connect_as(master, Role::kMaster) ||
      !connect_as(standby, Role::kSlave)) {
    std::cerr << "ofp_soak: failover bring-up failed\n";
    return 1;
  }

  const auto start = std::chrono::steady_clock::now();
  bool completed = true;
  for (const auto command : {FlowModCommand::kAdd, FlowModCommand::kDelete}) {
    if (!completed) break;
    std::vector<std::uint32_t> ids;
    for (std::uint32_t i = 0; i < opt.mods; ++i) {
      const std::uint32_t id = 1 + i;
      if (command == FlowModCommand::kDelete && !deleted_after_add(id)) continue;
      ids.push_back(id);
    }
    for (std::size_t off = 0; off < ids.size() && completed; off += kChunkMods) {
      const auto n = std::min<std::size_t>(kChunkMods, ids.size() - off);
      completed = run_chunk({ids.data() + off, n}, command);
    }
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::uint64_t desyncs = 0;
  if (!completed) desyncs++;  // an abandoned run can never claim convergence

  // Final audit: a full-intent resync must find nothing stale and nothing
  // missing — journal, digest, and published table all agree.
  if (completed) {
    const auto audit = master.resync(intent_of());
    if (!audit.has_value() || audit->deleted != 0 || !audit->missing.empty()) {
      std::cerr << "ofp_soak: final resync audit diverged (deleted="
                << (audit.has_value() ? audit->deleted : 0) << ", missing="
                << (audit.has_value() ? audit->missing.size() : 0) << ")\n";
      desyncs++;
    }
  }

  // Oracle + bitwise comparison, exactly as the plain soak does it.
  auto oracle = make_tables();
  for (int phase = 0; phase < 2; ++phase) {
    for (std::uint32_t i = 0; i < opt.mods; ++i) {
      const std::uint32_t id = 1 + i;
      if (phase == 1 && !deleted_after_add(id)) continue;
      std::vector<PendingFlowMod> one(1);
      one[0].xid = 1;
      one[0].mod = make_mod(id, phase == 0 ? FlowModCommand::kAdd
                                           : FlowModCommand::kDelete);
      std::vector<ErrorCode> result(1, ErrorCode::kNone);
      apply_mods(oracle, one, result);
      if (result[0] != ErrorCode::kNone) {
        std::cerr << "ofp_soak: oracle rejected mod id " << id << "\n";
        return 1;
      }
    }
  }
  std::uint64_t dropped_mods = 0;
  {
    const auto guard = classifier.acquire();
    for (std::uint32_t i = 0; i < opt.mods; ++i) {
      const std::uint32_t id = 1 + i;
      const bool want = oracle.contains_entry(0, id);
      const bool have = guard.tables().contains_entry(0, id);
      if (want != have) {
        desyncs++;
        if (want) dropped_mods++;  // an intended entry never made it
        continue;
      }
      PacketHeader probe;
      probe.set(FieldId::kEthDst, std::uint64_t{id});
      if (guard.tables().execute(probe) != oracle.execute(probe)) desyncs++;
    }
  }

  const auto stats = server.stats();
  // Linger while the server (and its stats endpoint) is still up, so a
  // scraper that just read STATS_PORT= has a window to pull /metrics.
  linger_after_soak(opt);
  server.stop();

  const double mods_per_sec =
      elapsed_s > 0 ? static_cast<double>(stats.flow_mods_ok +
                                          stats.flow_mods_failed) /
                          elapsed_s
                    : 0.0;
  std::cout << "ofp_soak --failover: mods=" << opt.mods << " kill_every="
            << opt.kill_every << " fault="
            << (opt.fault == FaultLevel::kHeavy
                    ? "heavy"
                    : opt.fault == FaultLevel::kLight ? "light" : "none")
            << " seed=" << opt.seed << "\n"
            << "  kills " << kills << ", promotions " << promotions
            << " (server " << stats.promotions << "), resyncs " << resyncs
            << " (server " << stats.resyncs << "), stale GC'd "
            << resync_deleted << ", restored " << resync_restored << "\n"
            << "  applied ok " << stats.flow_mods_ok << ", rejected "
            << stats.flow_mods_failed << " (replay duplicates), "
            << mods_per_sec << " mods/s, error replies consumed "
            << errors_seen << "\n"
            << "  desyncs " << desyncs << ", dropped mods " << dropped_mods
            << "\n";

  if (opt.json) {
    bench::BenchMetadata metadata = bench::common_metadata();
    metadata.emplace_back("scenario", "failover");
    metadata.emplace_back("mods", std::to_string(opt.mods));
    metadata.emplace_back("kill_every", std::to_string(opt.kill_every));
    metadata.emplace_back("fault", opt.fault == FaultLevel::kHeavy
                                       ? "heavy"
                                       : opt.fault == FaultLevel::kLight
                                             ? "light"
                                             : "none");
    metadata.emplace_back("seed", std::to_string(opt.seed));
    bench::write_bench_json(
        "ofp_failover", "mixed",
        {{"failover/flow_mods_per_sec", mods_per_sec},
         {"failover/desyncs", static_cast<double>(desyncs)},
         {"failover/dropped_mods", static_cast<double>(dropped_mods)},
         {"failover/promotions", static_cast<double>(promotions)},
         {"failover/resyncs", static_cast<double>(resyncs)}},
        metadata);
  }

  if (!completed || desyncs != 0 || dropped_mods != 0) {
    std::cerr << "ofp_soak: failover FAILED (completed=" << completed
              << ", desyncs=" << desyncs << ", dropped_mods=" << dropped_mods
              << ")\n";
    return 1;
  }
  std::cout << "ofp_soak: failover converged bitwise to the oracle through "
            << promotions << " promotions\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  if (opt.failover) return run_failover(opt);

  runtime::SnapshotClassifier classifier(make_tables());
  ServerConfig config;
  // Headroom for reconnect churn: an RST'd session lingers until the event
  // loop reaps it, so under heavy faults the live count briefly exceeds the
  // number of controller threads.
  config.max_sessions = opt.sessions * 2 + 8;
  config.session.echo_interval_ms = 30'000;  // soak drives its own echoes
  config.stats_port = opt.stats_port;
  OfpServer server(server::make_classifier_sink(classifier), config);
  if (!server.start()) {
    std::cerr << "ofp_soak: server failed to start\n";
    return 1;
  }
  announce_stats_port(server, opt);

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  std::vector<ControllerOutcome> outcomes(opt.sessions);
  for (std::uint32_t s = 0; s < opt.sessions; ++s) {
    threads.emplace_back([&, s] {
      const std::uint32_t base = 1 + s * opt.mods;
      outcomes[s] = run_controller(server.port(), base, opt,
                                   opt.seed * 7919 + s);
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  // Oracle: the same logical mods applied sequentially, no transport at all.
  auto oracle = make_tables();
  std::uint64_t logical_mods = 0;
  for (std::uint32_t s = 0; s < opt.sessions; ++s) {
    const std::uint32_t base = 1 + s * opt.mods;
    for (int phase = 0; phase < 2; ++phase) {
      for (std::uint32_t i = 0; i < opt.mods; ++i) {
        const std::uint32_t id = base + i;
        if (phase == 1 && !deleted_after_add(id)) continue;
        std::vector<PendingFlowMod> one(1);
        one[0].xid = 1;
        one[0].mod = make_mod(id, phase == 0 ? FlowModCommand::kAdd
                                             : FlowModCommand::kDelete);
        std::vector<ErrorCode> result(1, ErrorCode::kNone);
        apply_mods(oracle, one, result);
        if (result[0] != ErrorCode::kNone) {
          std::cerr << "ofp_soak: oracle rejected mod id " << id << "\n";
          return 1;
        }
        logical_mods++;
      }
    }
  }

  // Bitwise convergence: membership and execution must agree entry by entry.
  std::uint64_t desyncs = 0;
  std::uint32_t dropped = 0;
  std::uint32_t reconnects = 0;
  std::size_t errors_seen = 0;
  for (const auto& outcome : outcomes) {
    if (!outcome.converged) dropped++;
    reconnects += outcome.reconnects;
    errors_seen += outcome.errors_seen;
  }
  {
    const auto guard = classifier.acquire();
    for (std::uint32_t s = 0; s < opt.sessions; ++s) {
      const std::uint32_t base = 1 + s * opt.mods;
      for (std::uint32_t i = 0; i < opt.mods; ++i) {
        const std::uint32_t id = base + i;
        if (guard.tables().contains_entry(0, id) !=
            oracle.contains_entry(0, id)) {
          desyncs++;
          continue;
        }
        PacketHeader probe;
        probe.set(FieldId::kEthDst, std::uint64_t{id});
        if (guard.tables().execute(probe) != oracle.execute(probe)) desyncs++;
      }
    }
  }

  const auto stats = server.stats();
  // Linger while the server (and its stats endpoint) is still up, so a
  // scraper that just read STATS_PORT= has a window to pull /metrics.
  linger_after_soak(opt);
  server.stop();

  const double mods_per_sec =
      elapsed_s > 0 ? static_cast<double>(stats.flow_mods_ok +
                                          stats.flow_mods_failed) /
                          elapsed_s
                    : 0.0;
  std::cout << "ofp_soak: sessions=" << opt.sessions << " mods=" << opt.mods
            << " fault="
            << (opt.fault == FaultLevel::kHeavy
                    ? "heavy"
                    : opt.fault == FaultLevel::kLight ? "light" : "none")
            << " seed=" << opt.seed << "\n"
            << "  logical mods " << logical_mods << ", applied ok "
            << stats.flow_mods_ok << ", rejected " << stats.flow_mods_failed
            << " (replay duplicates), " << mods_per_sec << " mods/s\n"
            << "  reconnects " << reconnects << ", error replies consumed "
            << errors_seen << ", sessions accepted "
            << stats.sessions_accepted << ", closed " << stats.sessions_closed
            << "\n"
            << "  desyncs " << desyncs << ", dropped sessions " << dropped
            << "\n";

  if (opt.json) {
    bench::BenchMetadata metadata = bench::common_metadata();
    metadata.emplace_back("sessions", std::to_string(opt.sessions));
    metadata.emplace_back("mods_per_session", std::to_string(opt.mods));
    metadata.emplace_back("fault", opt.fault == FaultLevel::kHeavy
                                       ? "heavy"
                                       : opt.fault == FaultLevel::kLight
                                             ? "light"
                                             : "none");
    metadata.emplace_back("seed", std::to_string(opt.seed));
    bench::write_bench_json(
        "ofp_soak", "mixed",
        {{"soak/flow_mods_per_sec", mods_per_sec},
         {"soak/desyncs", static_cast<double>(desyncs)},
         {"soak/dropped_sessions", static_cast<double>(dropped)},
         {"soak/reconnects", static_cast<double>(reconnects)}},
        metadata);
  }

  if (desyncs != 0 || dropped != 0) {
    std::cerr << "ofp_soak: FAILED (desyncs=" << desyncs
              << ", dropped=" << dropped << ")\n";
    return 1;
  }
  std::cout << "ofp_soak: converged bitwise to the oracle\n";
  return 0;
}
