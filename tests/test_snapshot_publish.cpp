// The left-right SnapshotClassifier: a publish returns while a read guard
// pins the old side, and the next publish waits for that guard before it
// catches the side up; flow-mods must land on both sides exactly once (none
// lost, none duplicated) under concurrent readers; update() runs its
// closure once, and what the op log cannot replay converges by clone; each
// side serves what a fresh compile serves under churn; and — the O(delta)
// publish property — the cost of a publish must not scale with table size
// (checked by counting allocations with tests/alloc_counter.hpp). Run under
// -fsanitize=thread as well (no test changes needed).
#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <map>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/snapshot.hpp"
#include "alloc_counter.hpp"

namespace ofmtl {
namespace {

using runtime::SnapshotClassifier;

FlowEntry em_entry(FlowEntryId id, std::uint64_t mac, std::uint32_t port,
                   std::uint16_t priority = 100) {
  FlowEntry entry;
  entry.id = id;
  entry.priority = priority;
  entry.match.set(FieldId::kEthDst, FieldMatch::exact(mac));
  entry.instructions = output_instruction(port);
  return entry;
}

/// One exact-match table of `n` MAC entries (ids 1..n match MACs 1..n).
MultiTableLookup make_em_tables(std::size_t n) {
  std::vector<FlowEntry> entries;
  entries.reserve(n);
  for (std::size_t i = 1; i <= n; ++i) {
    entries.push_back(em_entry(static_cast<FlowEntryId>(i), i,
                               static_cast<std::uint32_t>(i % 1024)));
  }
  MultiTableLookup tables;
  tables.add_table(LookupTable({FieldId::kEthDst}, std::move(entries)));
  return tables;
}

PacketHeader mac_header(std::uint64_t mac) {
  PacketHeader header;
  header.set(FieldId::kEthDst, mac);
  return header;
}

TEST(SnapshotClassifier, ReadGuardPinsSideWhileWriterWaits) {
  SnapshotClassifier classifier(make_em_tables(16));
  const PacketHeader probe = mac_header(9999);
  const PacketHeader second_probe = mac_header(8888);

  std::atomic<bool> published{false};
  std::thread writer;
  {
    const auto guard = classifier.acquire();
    EXPECT_EQ(guard.epoch(), 0u);
    EXPECT_EQ(guard.tables().execute(probe).verdict, Verdict::kToController);

    // Publish 1 runs on the other side and swaps: it returns although the
    // guard still pins the pre-publish side. (It waits only for readers of
    // the side it writes, so calling it here cannot self-deadlock.)
    ASSERT_EQ(classifier.apply(FlowModCommand::kAdd, 0, em_entry(500, 9999, 7)),
              FlowModStatus::kOk);
    EXPECT_EQ(classifier.epoch(), 1u);
    EXPECT_EQ(classifier.acquire().tables().execute(probe).verdict,
              Verdict::kForwarded);
    // The pinned side still serves epoch 0.
    EXPECT_EQ(guard.tables().execute(probe).verdict, Verdict::kToController);
    EXPECT_EQ(guard.epoch(), 0u);

    // Publish 2 must first catch the pinned side up, so it blocks until the
    // guard departs, and never touches the pinned replica meanwhile.
    writer = std::thread([&] {
      EXPECT_EQ(classifier.apply(FlowModCommand::kAdd, 0,
                                 em_entry(501, 8888, 8)),
                FlowModStatus::kOk);
      published.store(true, std::memory_order_release);
    });
    // Give the writer ample time to reach the wait.
    for (int i = 0; i < 50 && !published.load(std::memory_order_acquire);
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_FALSE(published.load(std::memory_order_acquire))
        << "publish 2 returned while a read guard pinned the side it writes";
    EXPECT_EQ(guard.tables().execute(probe).verdict, Verdict::kToController);
    EXPECT_EQ(guard.tables().execute(second_probe).verdict,
              Verdict::kToController);
    EXPECT_EQ(guard.epoch(), 0u);
  }  // guard departs: publish 2 may now catch up and finish
  writer.join();
  EXPECT_TRUE(published.load(std::memory_order_acquire));
  const auto fresh = classifier.acquire();
  EXPECT_EQ(fresh.epoch(), 2u);
  for (const auto& [header, port] :
       {std::pair{probe, 7u}, std::pair{second_probe, 8u}}) {
    const auto result = fresh.tables().execute(header);
    ASSERT_EQ(result.verdict, Verdict::kForwarded);
    ASSERT_EQ(result.output_ports.size(), 1u);
    EXPECT_EQ(result.output_ports[0], port);
  }
}

TEST(SnapshotClassifier, UpdateRunsItsClosureOnce) {
  SnapshotClassifier classifier(make_em_tables(8));
  int calls = 0;
  for (std::uint64_t k = 1; k <= 3; ++k) {
    classifier.update([&](MultiTableLookup& tables) {
      ++calls;
      EXPECT_EQ(tables.apply(FlowModCommand::kAdd, 0,
                             em_entry(100 + k, 5000 + k, 1)),
                FlowModStatus::kOk);
    });
    EXPECT_EQ(calls, static_cast<int>(k)) << "update " << k;
  }
  // Each side ran some of the updates and replayed the rest: the side that
  // ran the last one, then (after an empty publish) the other side, hold
  // all three.
  for (int publish = 0; publish < 2; ++publish) {
    const auto guard = classifier.acquire();
    for (std::uint64_t k = 1; k <= 3; ++k) {
      EXPECT_TRUE(guard.tables().contains_entry(0, 100 + k))
          << "publish " << publish << " entry " << k;
    }
    classifier.update([](MultiTableLookup&) {});
  }
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(classifier.epoch(), 5u);
}

TEST(SnapshotClassifier, UnloggableUpdatesConvergeThroughClone) {
  SnapshotClassifier classifier(make_em_tables(8));
  // add_table cannot be replayed: the next publish levels the other side
  // by clone, so an apply to the new table succeeds on either side.
  classifier.update([](MultiTableLookup& tables) {
    tables.add_table(LookupTable({FieldId::kEthDst}, {em_entry(1, 42, 3)}));
  });
  ASSERT_EQ(classifier.apply(FlowModCommand::kAdd, 1, em_entry(2, 43, 4)),
            FlowModStatus::kOk);
  classifier.update([](MultiTableLookup&) {});
  for (int publish = 0; publish < 2; ++publish) {
    const auto guard = classifier.acquire();
    ASSERT_EQ(guard.tables().table_count(), 2u) << "publish " << publish;
    EXPECT_TRUE(guard.tables().contains_entry(1, 1));
    EXPECT_TRUE(guard.tables().contains_entry(1, 2));
    classifier.update([](MultiTableLookup&) {});
  }

  // A whole-side assignment replaces the content outright; later mods
  // recorded by the same callable still reach both sides.
  classifier.update([](MultiTableLookup& tables) {
    tables = make_em_tables(4);
    EXPECT_EQ(tables.apply(FlowModCommand::kAdd, 0, em_entry(77, 7700, 5)),
              FlowModStatus::kOk);
  });
  ASSERT_EQ(classifier.apply(FlowModCommand::kDelete, 0, {.id = 2}),
            FlowModStatus::kOk);
  const MultiTableLookup expected = [] {
    auto tables = make_em_tables(4);
    EXPECT_EQ(tables.apply(FlowModCommand::kAdd, 0, em_entry(77, 7700, 5)),
              FlowModStatus::kOk);
    EXPECT_EQ(tables.apply(FlowModCommand::kDelete, 0, {.id = 2}),
              FlowModStatus::kOk);
    return tables;
  }();
  for (int publish = 0; publish < 2; ++publish) {
    classifier.update([](MultiTableLookup&) {});
    const auto guard = classifier.acquire();
    ASSERT_EQ(guard.tables().table_count(), 1u) << "publish " << publish;
    for (std::uint64_t mac = 0; mac <= 16; ++mac) {
      EXPECT_EQ(guard.tables().execute(mac_header(mac)),
                expected.execute(mac_header(mac)))
          << "publish " << publish << " mac " << mac;
    }
    EXPECT_EQ(guard.tables().execute(mac_header(7700)),
              expected.execute(mac_header(7700)));
  }
}

TEST(SnapshotClassifier, EachSideServesAFreshCompileUnderChurn) {
  // Random batches of adds, modifies and deletes, one publish each, while
  // readers churn guards. Consecutive publishes write alternate sides, so
  // comparing every epoch with a fresh compile of the same rules checks
  // both the side that ran each batch and the side that replayed it.
  constexpr std::size_t kPublishes = 120;
  constexpr std::size_t kMacs = 48;
  std::vector<PacketHeader> probes;
  for (std::uint64_t mac = 0; mac < kMacs; ++mac) {
    probes.push_back(mac_header(mac));
  }
  std::map<FlowEntryId, FlowEntry> live;
  const auto fresh_results = [&] {
    std::vector<FlowEntry> entries;
    for (const auto& [id, entry] : live) entries.push_back(entry);
    MultiTableLookup tables;
    tables.add_table(LookupTable({FieldId::kEthDst}, std::move(entries)));
    std::vector<ExecutionResult> results;
    for (const auto& probe : probes) results.push_back(tables.execute(probe));
    return results;
  };
  MultiTableLookup initial;
  initial.add_table(LookupTable({FieldId::kEthDst}, {}));
  SnapshotClassifier classifier(std::move(initial));
  // expected[e] is written before epoch e is published, and a reader sees
  // epoch e only through the swap that publishes it.
  std::vector<std::vector<ExecutionResult>> expected(kPublishes + 1);
  expected[0] = fresh_results();

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const auto guard = classifier.acquire();
        const auto& want = expected[guard.epoch()];
        for (std::size_t i = 0; i < probes.size(); ++i) {
          if (guard.tables().execute(probes[i]) != want[i]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  // A failed ASSERT leaves the lambda, so the readers are always joined.
  const auto churn = [&] {
    std::mt19937_64 rng(7);
    FlowEntryId next_id = 1;
    for (std::size_t epoch = 1; epoch <= kPublishes; ++epoch) {
      struct Mod {
        FlowModCommand command;
        FlowEntry entry;
      };
      std::vector<Mod> batch;
      const std::size_t mods = 1 + rng() % 6;
      for (std::size_t m = 0; m < mods; ++m) {
        const auto roll = rng() % 3;
        const auto fresh_entry = [&](FlowEntryId id) {
          // Distinct priorities: the winner never depends on insertion order.
          return em_entry(id, rng() % kMacs,
                          static_cast<std::uint32_t>(rng() % 64),
                          static_cast<std::uint16_t>(id));
        };
        if (roll == 0 || live.empty()) {
          batch.push_back({FlowModCommand::kAdd, fresh_entry(next_id++)});
        } else {
          auto it = live.begin();
          std::advance(it, static_cast<long>(rng() % live.size()));
          if (roll == 1) {
            batch.push_back({FlowModCommand::kModify, fresh_entry(it->first)});
          } else {
            batch.push_back({FlowModCommand::kDelete, {.id = it->first}});
          }
        }
        const auto& mod = batch.back();
        if (mod.command == FlowModCommand::kDelete) {
          live.erase(mod.entry.id);
        } else {
          live[mod.entry.id] = mod.entry;
        }
      }
      expected[epoch] = fresh_results();
      if (epoch % 5 == 0 && batch.size() == 1) {
        ASSERT_EQ(classifier.apply(batch[0].command, 0, batch[0].entry),
                  FlowModStatus::kOk);
      } else {
        classifier.update([&](MultiTableLookup& tables) {
          for (const auto& mod : batch) {
            EXPECT_EQ(tables.apply(mod.command, 0, mod.entry),
                      FlowModStatus::kOk);
          }
        });
      }
      const auto guard = classifier.acquire();
      ASSERT_EQ(guard.epoch(), epoch);
      for (std::size_t i = 0; i < probes.size(); ++i) {
        ASSERT_EQ(guard.tables().execute(probes[i]), expected[epoch][i])
            << "epoch " << epoch << " mac " << i;
      }
    }
  };
  churn();
  stop.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(SnapshotClassifier, NoLostOrDuplicatedFlowModsUnderChurn) {
  constexpr std::size_t kMods = 64;
  constexpr std::size_t kReaders = 3;
  SnapshotClassifier classifier(make_em_tables(32));

  // Readers churn guards and probe continuously while the writer streams
  // distinct inserts; every guard must see a consistent side (an entry is
  // present iff its id <= the guard's epoch).
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  std::atomic<std::size_t> inconsistencies{0};
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const auto guard = classifier.acquire();
        const std::uint64_t epoch = guard.epoch();
        // Entry k (inserted at epoch k) matches MAC 1000+k.
        for (std::uint64_t k = 1; k <= kMods; ++k) {
          const auto result = guard.tables().execute(mac_header(1000 + k));
          const bool present = result.verdict == Verdict::kForwarded;
          if (present != (k <= epoch)) {
            inconsistencies.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  for (std::size_t k = 1; k <= kMods; ++k) {
    ASSERT_EQ(classifier.apply(
                  FlowModCommand::kAdd, 0,
                  em_entry(static_cast<FlowEntryId>(10000 + k), 1000 + k, 42)),
              FlowModStatus::kOk);
  }
  stop.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(inconsistencies.load(), 0u)
      << "a guard observed a side inconsistent with its epoch";
  EXPECT_EQ(classifier.epoch(), kMods);
  // None lost, none duplicated: each id removes exactly once, and the
  // removal lands on BOTH sides (two consecutive epochs read the two sides).
  for (std::size_t k = 1; k <= kMods; ++k) {
    const auto id = static_cast<FlowEntryId>(10000 + k);
    EXPECT_EQ(classifier.apply(FlowModCommand::kDelete, 0, {.id = id}),
              FlowModStatus::kOk)
        << "lost flow-mod " << k;
    EXPECT_EQ(classifier.apply(FlowModCommand::kDelete, 0, {.id = id}),
              FlowModStatus::kUnknownEntry)
        << "duplicated flow-mod " << k;
    EXPECT_EQ(classifier.acquire().tables().execute(mac_header(1000 + k)).verdict,
              Verdict::kToController);
  }
  EXPECT_EQ(classifier.epoch(), 2 * kMods);
}

TEST(SnapshotClassifier, RejectsBadFlowModsWithoutPublishing) {
  // Routine rejections (duplicate id, unknown table, absent id) come back
  // as statuses from checks that run before the in-place apply: no epoch,
  // no side divergence, and no O(table) resync.
  SnapshotClassifier classifier(make_em_tables(8));
  EXPECT_EQ(classifier.apply(FlowModCommand::kAdd, 0, em_entry(3, 12345, 1)),
            FlowModStatus::kDuplicateEntry);  // id 3 already live
  EXPECT_EQ(classifier.apply(FlowModCommand::kAdd, 7, em_entry(999, 1, 1)),
            FlowModStatus::kBadTable);  // no table 7
  EXPECT_EQ(classifier.apply(FlowModCommand::kDelete, 7, {.id = 1}),
            FlowModStatus::kBadTable);
  EXPECT_EQ(classifier.apply(FlowModCommand::kDelete, 0, {.id = 999}),
            FlowModStatus::kUnknownEntry);
  EXPECT_EQ(classifier.epoch(), 0u);
  EXPECT_EQ(classifier.apply(FlowModCommand::kAdd, 0, em_entry(999, 777, 5)),
            FlowModStatus::kOk);  // still functional
  EXPECT_EQ(classifier.epoch(), 1u);
  EXPECT_EQ(classifier.acquire().tables().execute(mac_header(777)).verdict,
            Verdict::kForwarded);
}

TEST(SnapshotClassifier, ConsecutivePublishesConvergeBothSides) {
  constexpr std::size_t kEntries = 48;
  SnapshotClassifier classifier(make_em_tables(kEntries));
  std::vector<PacketHeader> trace;
  for (std::size_t i = 1; i <= kEntries + 4; ++i) trace.push_back(mac_header(i));

  std::vector<ExecutionResult> baseline;
  {
    const auto guard = classifier.acquire();
    for (const auto& header : trace) {
      baseline.push_back(guard.tables().execute(header));
    }
  }
  // Each toggle publishes twice; consecutive acquires therefore alternate
  // sides. After any toggle the logical content is back to the baseline —
  // if a side missed an op, some epoch would serve diverged results.
  for (int toggle = 0; toggle < 3; ++toggle) {
    ASSERT_EQ(classifier.apply(FlowModCommand::kAdd, 0,
                               em_entry(777, 50000, 9, 60000)),
              FlowModStatus::kOk);
    ASSERT_EQ(classifier.apply(FlowModCommand::kDelete, 0, {.id = 777}),
              FlowModStatus::kOk);
    const auto guard = classifier.acquire();
    for (std::size_t i = 0; i < trace.size(); ++i) {
      ASSERT_EQ(guard.tables().execute(trace[i]), baseline[i])
          << "toggle " << toggle << " packet " << i;
    }
  }
}

TEST(SnapshotClassifier, PublishCostIndependentOfTableSize) {
  // The left-right writer applies flow-mods in place on both sides; the
  // number of heap allocations a publish performs must track the delta (one
  // entry), not the table. Compare a warmed toggle loop on a small vs a
  // 16x larger table and require the same allocation budget (within 2x
  // slack for amortized flat-table maintenance).
  constexpr std::size_t kSmall = 1000;
  constexpr std::size_t kLarge = 16000;
  constexpr std::size_t kToggles = 100;
  const auto toggles_allocs = [](std::size_t table_size) {
    SnapshotClassifier classifier(make_em_tables(table_size));
    const FlowEntry entry = em_entry(900001, 77777, 3);
    // Warm: first toggle pays one-time high-water growth.
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(classifier.apply(FlowModCommand::kAdd, 0, entry),
                FlowModStatus::kOk);
      EXPECT_EQ(classifier.apply(FlowModCommand::kDelete, 0, entry),
                FlowModStatus::kOk);
    }
    const std::size_t before = g_allocations.load();
    for (std::size_t i = 0; i < kToggles; ++i) {
      EXPECT_EQ(classifier.apply(FlowModCommand::kAdd, 0, entry),
                FlowModStatus::kOk);
      EXPECT_EQ(classifier.apply(FlowModCommand::kDelete, 0, entry),
                FlowModStatus::kOk);
    }
    return g_allocations.load() - before;
  };
  const std::size_t small = toggles_allocs(kSmall);
  const std::size_t large = toggles_allocs(kLarge);
  // Publishes allocate (map nodes, signature scratch) but must not scale
  // with table size.
  EXPECT_LE(large, 2 * small + 64)
      << "publish allocations grew with table size: " << small << " -> "
      << large << " over " << kToggles << " toggles";
}

}  // namespace
}  // namespace ofmtl
