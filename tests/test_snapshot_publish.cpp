// The left-right SnapshotClassifier: read guards must pin one side while
// the writer waits, flow-mods must land on both sides exactly once (none
// lost, none duplicated) under concurrent readers, consecutive publishes
// must converge the two replicas to identical behaviour, and — the O(delta)
// publish property — the cost of a publish must not scale with table size
// (checked by counting allocations with tests/alloc_counter.hpp). Run under
// -fsanitize=thread as well (no test changes needed).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
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

  std::atomic<bool> published{false};
  std::thread writer;
  {
    const auto guard = classifier.acquire();
    EXPECT_EQ(guard.epoch(), 0u);
    EXPECT_EQ(guard.tables().execute(probe).verdict, Verdict::kToController);

    // The writer must block on the held guard: it may swap the active side,
    // but it cannot complete the publish (and must never touch the pinned
    // replica) until the guard departs.
    writer = std::thread([&] {
      EXPECT_EQ(classifier.apply(FlowModCommand::kAdd, 0,
                                 em_entry(500, 9999, 7)),
                FlowModStatus::kOk);
      published.store(true, std::memory_order_release);
    });
    // Give the writer ample time to reach the reader drain.
    for (int i = 0; i < 50 && !published.load(std::memory_order_acquire);
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_FALSE(published.load(std::memory_order_acquire))
        << "apply returned while a read guard pinned a side";
    // The pinned replica still serves the pre-publish state.
    EXPECT_EQ(guard.tables().execute(probe).verdict, Verdict::kToController);
    EXPECT_EQ(guard.epoch(), 0u);
  }  // guard departs: the writer may now finish the publish
  writer.join();
  EXPECT_TRUE(published.load(std::memory_order_acquire));
  const auto fresh = classifier.acquire();
  EXPECT_EQ(fresh.epoch(), 1u);
  const auto result = fresh.tables().execute(probe);
  ASSERT_EQ(result.verdict, Verdict::kForwarded);
  ASSERT_EQ(result.output_ports.size(), 1u);
  EXPECT_EQ(result.output_ports[0], 7u);
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
