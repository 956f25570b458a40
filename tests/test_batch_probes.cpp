// The batched probe stages — ExactMatchLut::lookup_batch and
// IndexCalculator::query_batch — must agree with an independent reference
// over randomized structures and query mixes (the LUT's scalar lookup, a
// brute-force signature-cover oracle, a linear FlowTable), and be
// allocation-free in steady state (counted by tests/alloc_counter.hpp).
// The range matcher, which has only a scalar lookup, is checked
// against brute force here too.
//
// Every property additionally runs twice — once on the compiled vector
// backend, once with the SWAR kernels forced — and the SimdSwarIdentity
// suite compares the two backends' raw kernel outputs directly on random and
// adversarial (duplicate-tag, full-group, tombstone-heavy) inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <vector>

#include "classifier/range_matcher.hpp"
#include "core/flat_hash.hpp"
#include "core/index_table.hpp"
#include "core/lookup_table.hpp"
#include "core/lut.hpp"
#include "core/simd.hpp"
#include "workload/rng.hpp"
#include "alloc_counter.hpp"

namespace ofmtl {
namespace {

using workload::Rng;

/// Run a property once per kernel backend: the compiled vector path, then
/// the portable SWAR path forced. Identical assertions on both runs make
/// every batch-vs-scalar property a backend-identity property too.
template <typename F>
void run_both_backends(F&& property) {
  {
    SCOPED_TRACE(std::string("backend=") +
                 simd::to_string(simd::active_level()));
    property();
  }
  simd::ScopedForceSwar forced(true);
  SCOPED_TRACE("backend=forced-swar");
  property();
}

/// Random present/absent query mix: half the keys are stored values, half
/// are fresh draws (almost surely absent).
std::vector<U128> make_query_values(Rng& rng, const std::vector<U128>& stored,
                                    std::size_t count) {
  std::vector<U128> queries;
  queries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (i % 2 == 0 && !stored.empty()) {
      queries.push_back(stored[rng.below(stored.size())]);
    } else {
      queries.push_back(U128{rng.next() & 0xFFFF, rng.next()});
    }
  }
  return queries;
}

void expect_lut_batch_matches_scalar(ExactMatchLut& lut, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<U128> stored;
  for (int i = 0; i < 300; ++i) {
    U128 value{rng.next() & 0xFFFF, rng.next()};
    lut.insert(value);
    stored.push_back(value);
  }
  // Churn: remove a third, re-insert a few (exercises tombstones).
  for (std::size_t i = 0; i < stored.size(); i += 3) lut.remove(stored[i]);
  for (std::size_t i = 0; i < stored.size(); i += 9) lut.insert(stored[i]);

  const auto queries = make_query_values(rng, stored, 513);
  std::vector<Label> batch(queries.size());
  for (const std::size_t window :
       {std::size_t{1}, std::size_t{5}, std::size_t{8}, queries.size()}) {
    for (std::size_t base = 0; base < queries.size(); base += window) {
      const std::size_t n = std::min(window, queries.size() - base);
      lut.lookup_batch({queries.data() + base, n}, {batch.data() + base, n});
    }
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const auto scalar = lut.lookup(queries[i]);
      ASSERT_EQ(batch[i], scalar.value_or(kNoLabel))
          << "window=" << window << " query=" << i;
    }
  }
}

TEST(BatchProbes, ExactMatchLutMatchesScalar) {
  run_both_backends([] {
    ExactMatchLut lut(128);
    expect_lut_batch_matches_scalar(lut, 4242);
  });
}

TEST(BatchProbes, ExactMatchLutSteadyStateAllocationFree) {
  ExactMatchLut lut(64);
  Rng rng(7);
  std::vector<U128> stored;
  for (int i = 0; i < 200; ++i) {
    stored.push_back(U128{rng.next()});
    lut.insert(stored.back());
  }
  const auto queries = make_query_values(rng, stored, 256);
  std::vector<Label> out(queries.size());
  lut.lookup_batch(queries, out);
  const std::size_t before = g_allocations.load();
  for (int pass = 0; pass < 8; ++pass) lut.lookup_batch(queries, out);
  EXPECT_EQ(g_allocations.load(), before);
}

/// RangeMatcher::lookup against brute force over the live ranges: every
/// range containing the key, narrowest first (ties by label), on random keys
/// and on every interval edge.
TEST(BatchProbes, RangeMatcherMatchesBruteForce) {
  const std::uint64_t max = low_mask(16);
  RangeMatcher ranges(16);
  Rng rng(99);
  std::vector<ValueRange> added;
  std::map<std::pair<std::uint64_t, std::uint64_t>, int> live;  // refs
  for (int i = 0; i < 120; ++i) {
    const std::uint64_t lo = rng.next() & max;
    const std::uint64_t hi = std::min<std::uint64_t>(max, lo + rng.below(2000));
    ranges.add({lo, hi});
    added.push_back({lo, hi});
    ++live[{lo, hi}];
  }
  for (std::size_t i = 0; i < added.size(); i += 4) {
    ranges.remove(added[i]);
    --live[{added[i].lo, added[i].hi}];
  }

  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 511; ++i) keys.push_back(rng.next() & max);
  keys.push_back(0);
  keys.push_back(max);
  for (const ValueRange& range : added) {
    keys.push_back(range.lo);
    keys.push_back(range.hi);
    if (range.hi < max) keys.push_back(range.hi + 1);
  }
  for (const std::uint64_t key : keys) {
    std::vector<std::pair<std::uint64_t, std::uint32_t>> expected;
    for (const auto& [bounds, refs] : live) {
      if (refs == 0 || key < bounds.first || key > bounds.second) continue;
      const ValueRange range{bounds.first, bounds.second};
      expected.emplace_back(range.span(), *ranges.find(range));
    }
    std::sort(expected.begin(), expected.end());
    std::vector<std::uint32_t> labels;
    for (const auto& [span, label] : expected) labels.push_back(label);
    ASSERT_EQ(ranges.lookup(key), labels) << "key=" << key;
  }
}

/// The distinct rule indices of a match list (order and duplicates are
/// unspecified: a label listed twice matches its rules twice).
std::vector<std::uint32_t> as_set(std::vector<std::uint32_t> matches) {
  std::sort(matches.begin(), matches.end());
  matches.erase(std::unique(matches.begin(), matches.end()), matches.end());
  return matches;
}

/// Randomized signatures over a configurable arity; candidates drawn so a
/// fraction resolves to real rules (nested LPM-style multi-candidate lists).
/// Every lane of a 37-lane batch, and the same lane queried as a one-lane
/// batch, must match exactly the live rules whose signature its candidates
/// cover (brute force).
void expect_index_batch_matches_oracle(std::size_t algorithms,
                                       std::uint64_t seed) {
  Rng rng(seed);
  IndexCalculator calc(algorithms);
  constexpr std::size_t kLabelSpace = 12;
  std::map<std::uint32_t, std::vector<Label>> live;
  for (std::uint32_t rule = 0; rule < 160; ++rule) {
    std::vector<Label> signature;
    for (std::size_t a = 0; a < algorithms; ++a) {
      signature.push_back(static_cast<Label>(rng.below(kLabelSpace)));
    }
    calc.add_rule(signature, rule);
    live.emplace(rule, std::move(signature));
  }
  for (std::uint32_t rule = 0; rule < 160; rule += 5) {
    calc.remove_rule(live.at(rule), rule);  // exercise ref-count drops
    live.erase(rule);
  }

  constexpr std::size_t kLanes = 37;  // deliberately not a lane-window multiple
  SearchContext ctx;
  ctx.begin(kLanes, algorithms);
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    for (std::size_t a = 0; a < algorithms; ++a) {
      LabelList& slot = ctx.slot(lane, a);
      slot.clear();
      const std::size_t count = 1 + rng.below(3);
      for (std::size_t c = 0; c < count; ++c) {
        slot.push_back(static_cast<Label>(rng.below(kLabelSpace)));
      }
    }
  }
  calc.query_batch(ctx);
  SearchContext one_lane;
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    const auto candidates = ctx.packet_candidates(lane);
    std::vector<std::uint32_t> expected;
    for (const auto& [rule, signature] : live) {
      bool covered = true;
      for (std::size_t a = 0; a < algorithms && covered; ++a) {
        covered = std::find(candidates[a].begin(), candidates[a].end(),
                            signature[a]) != candidates[a].end();
      }
      if (covered) expected.push_back(rule);
    }
    ASSERT_EQ(as_set(ctx.lane_matches(lane)), expected)
        << "algorithms=" << algorithms << " lane=" << lane;
    one_lane.begin(1, algorithms);
    for (std::size_t a = 0; a < algorithms; ++a) {
      one_lane.slot(0, a) = candidates[a];
    }
    calc.query_batch(one_lane);
    ASSERT_EQ(as_set(one_lane.lane_matches(0)), expected)
        << "one-lane batch, algorithms=" << algorithms << " lane=" << lane;
  }
}

TEST(BatchProbes, IndexCalculatorMatchesOracle) {
  run_both_backends([] {
    expect_index_batch_matches_oracle(1, 11);
    expect_index_batch_matches_oracle(2, 22);
    expect_index_batch_matches_oracle(4, 33);
    expect_index_batch_matches_oracle(7, 44);
  });
}

TEST(BatchProbes, IndexCalculatorSteadyStateAllocationFree) {
  Rng rng(123);
  constexpr std::size_t kAlgorithms = 4;
  IndexCalculator calc(kAlgorithms);
  for (std::uint32_t rule = 0; rule < 100; ++rule) {
    std::vector<Label> signature;
    for (std::size_t a = 0; a < kAlgorithms; ++a) {
      signature.push_back(static_cast<Label>(rng.below(8)));
    }
    calc.add_rule(signature, rule);
  }
  constexpr std::size_t kLanes = 64;
  SearchContext ctx;
  ctx.begin(kLanes, kAlgorithms);
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    for (std::size_t a = 0; a < kAlgorithms; ++a) {
      LabelList& slot = ctx.slot(lane, a);
      slot.clear();
      slot.push_back(static_cast<Label>(rng.below(8)));
      slot.push_back(static_cast<Label>(rng.below(8)));
    }
  }
  for (int pass = 0; pass < 2; ++pass) calc.query_batch(ctx);  // warm
  const std::size_t before = g_allocations.load();
  for (int pass = 0; pass < 8; ++pass) calc.query_batch(ctx);
  EXPECT_EQ(g_allocations.load(), before);
}

TEST(BatchProbes, RangeFieldLookupTableBatchMatchesLinearTable) {
  // End-to-end through LookupTable with an RM field (the app-level tests
  // only cover EM/LPM fields): rules on src-port ranges + dst exact.
  Rng rng(777);
  std::vector<FlowEntry> entries;
  for (std::uint32_t i = 0; i < 60; ++i) {
    FlowEntry entry;
    entry.id = i + 1;
    entry.priority = static_cast<std::uint16_t>(rng.below(100));
    const std::uint64_t lo = rng.below(0x10000);
    const std::uint64_t hi = std::min<std::uint64_t>(0xFFFF, lo + rng.below(9000));
    entry.match.set(FieldId::kSrcPort, FieldMatch::of_range(lo, hi));
    if (i % 3 == 0) {
      entry.match.set(FieldId::kEthType, FieldMatch::exact(0x0800 + i % 4));
    }
    entry.instructions = output_instruction(i % 8);
    entries.push_back(std::move(entry));
  }
  LookupTable table({FieldId::kEthType, FieldId::kSrcPort}, entries);
  const FlowTable linear(entries);

  std::vector<PacketHeader> headers;
  for (int i = 0; i < 257; ++i) {
    PacketHeader header;
    header.set_src_port(static_cast<std::uint16_t>(rng.below(0x10000)));
    header.set_eth_type(static_cast<std::uint16_t>(0x0800 + rng.below(6)));
    headers.push_back(header);
  }
  std::vector<const PacketHeader*> ptrs;
  for (const auto& header : headers) ptrs.push_back(&header);
  std::vector<const FlowEntry*> batch(headers.size());
  SearchContext ctx;
  table.lookup_batch({ptrs.data(), ptrs.size()}, {batch.data(), batch.size()},
                     ctx);
  const auto id = [](const FlowEntry* entry) {  // -1: miss
    return entry == nullptr ? std::int64_t{-1} : std::int64_t{entry->id};
  };
  for (std::size_t i = 0; i < headers.size(); ++i) {
    ASSERT_EQ(id(batch[i]), id(linear.lookup(headers[i]))) << "packet=" << i;
    ASSERT_EQ(table.lookup(headers[i]), batch[i]) << "packet=" << i;
  }
}

// --- backend identity: vector kernels vs SWAR, bit for bit ------------------

TEST(SimdSwarIdentity, TagGroupKernelsRandomAndAdversarial) {
  Rng rng(31337);
  std::vector<std::array<std::uint8_t, detail::kTagGroup>> groups;
  // Random groups.
  for (int i = 0; i < 2000; ++i) {
    std::array<std::uint8_t, detail::kTagGroup> group;
    for (auto& byte : group) byte = static_cast<std::uint8_t>(rng.next());
    groups.push_back(group);
  }
  // Adversarial: all-empty, all-deleted, full of one duplicate tag, a full
  // group with the probe tag at every boundary position, and 0x7F/0x80
  // straddles (the live/special cut sits on the byte's top bit).
  groups.push_back({});  // all zero tags
  std::array<std::uint8_t, detail::kTagGroup> g;
  g.fill(detail::kTagEmpty);
  groups.push_back(g);
  g.fill(detail::kTagDeleted);
  groups.push_back(g);
  g.fill(0x42);
  groups.push_back(g);
  g.fill(0x7F);
  g[0] = 0x80;
  g[15] = 0x80;
  groups.push_back(g);
  for (const auto& group : groups) {
    for (const std::uint8_t tag :
         {std::uint8_t{0x00}, std::uint8_t{0x42}, std::uint8_t{0x7F},
          static_cast<std::uint8_t>(rng.next() & 0x7F)}) {
      ASSERT_EQ(simd::match_bytes16(group.data(), tag),
                simd::match_bytes16_swar(group.data(), tag));
    }
    ASSERT_EQ(simd::match_special16(group.data()),
              simd::match_special16_swar(group.data()));
  }
}

/// Adversarial flat-hash load: every stored value shares one 7-bit tag (so
/// every group compare reports candidate hits that only the key verify can
/// reject), then heavy churn leaves the table tombstone-ridden.
TEST(SimdSwarIdentity, DuplicateTagTombstoneHeavyLut) {
  run_both_backends([] {
    Rng rng(2025);
    ExactMatchLut lut(64);
    std::vector<U128> stored;
    while (stored.size() < 150) {
      const U128 value{rng.next() & 0xFFFF, rng.next()};
      if (detail::tag_of(detail::U128Hash{}(value)) != 0x21) continue;
      lut.insert(value);
      stored.push_back(value);
    }
    // Tombstone-heavy: drop 80%, re-add a sprinkle.
    for (std::size_t i = 0; i < stored.size(); ++i) {
      if (i % 5 != 0) lut.remove(stored[i]);
    }
    for (std::size_t i = 0; i < stored.size(); i += 13) lut.insert(stored[i]);

    std::vector<U128> queries = stored;  // removed keys probe past tombstones
    for (int i = 0; i < 100; ++i) queries.push_back(U128{rng.next(), rng.next()});
    std::vector<Label> batch(queries.size());
    lut.lookup_batch(queries, batch);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(batch[i], lut.lookup(queries[i]).value_or(kNoLabel))
          << "query=" << i;
    }
  });
}

}  // namespace
}  // namespace ofmtl
