// The PR's batched probe story: every *_batch probe added to the non-trie
// stages — ExactMatchLut, CuckooLut, RangeMatcher, IndexCalculator — must be
// bitwise-identical to its scalar counterpart over randomized structures and
// query mixes, and allocation-free in steady state (counted by replacing
// global new/delete; this binary is its own test executable so the
// replacement cannot leak into others).
//
// Every batch-vs-scalar property additionally runs twice — once on the
// compiled vector backend, once with the SWAR kernels forced — and the
// SimdSwarIdentity suite compares the two backends' raw kernel outputs
// directly on random and adversarial (duplicate-tag, full-group,
// tombstone-heavy) inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <new>
#include <vector>

#include "classifier/cuckoo_lut.hpp"
#include "classifier/range_matcher.hpp"
#include "core/flat_hash.hpp"
#include "core/index_table.hpp"
#include "core/lookup_table.hpp"
#include "core/lut.hpp"
#include "core/simd.hpp"
#include "workload/rng.hpp"

namespace {
std::size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

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

template <typename Lut>
void expect_lut_batch_matches_scalar(Lut& lut, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<U128> stored;
  for (int i = 0; i < 300; ++i) {
    U128 value{rng.next() & 0xFFFF, rng.next()};
    lut.insert(value);
    stored.push_back(value);
  }
  // Churn: remove a third, re-insert a few (exercises tombstones in the
  // linear-probing LUT and exact deletion in the cuckoo one).
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

TEST(BatchProbes, CuckooLutMatchesScalar) {
  run_both_backends([] {
    CuckooLut lut(128);
    expect_lut_batch_matches_scalar(lut, 5151);
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
  const std::size_t before = g_allocations;
  for (int pass = 0; pass < 8; ++pass) lut.lookup_batch(queries, out);
  EXPECT_EQ(g_allocations, before);
}

void expect_range_batch_matches_scalar(unsigned width, std::uint64_t seed) {
  const std::uint64_t max = low_mask(width);
  RangeMatcher ranges(width);
  Rng rng(seed);
  std::vector<ValueRange> added;
  for (int i = 0; i < 120; ++i) {
    const std::uint64_t lo = rng.next() & max;
    const std::uint64_t hi = std::min<std::uint64_t>(max, lo + rng.below(2000));
    ranges.add({lo, hi});
    added.push_back({lo, hi});
  }
  for (std::size_t i = 0; i < added.size(); i += 4) ranges.remove(added[i]);
  ranges.seal();

  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 511; ++i) keys.push_back(rng.next() & max);
  keys.push_back(0);
  keys.push_back(max);
  // Exercise interval edges exactly (rank-select and search must agree on
  // boundary points, not just random interior keys).
  for (std::size_t i = 0; i < added.size(); i += 7) {
    keys.push_back(added[i].lo);
    if (added[i].hi < max) keys.push_back(added[i].hi + 1);
  }
  std::vector<const std::vector<std::uint32_t>*> out(keys.size());
  for (const std::size_t window :
       {std::size_t{1}, std::size_t{3}, std::size_t{8}, keys.size()}) {
    for (std::size_t base = 0; base < keys.size(); base += window) {
      const std::size_t n = std::min(window, keys.size() - base);
      ranges.lookup_batch({keys.data() + base, n}, {out.data() + base, n});
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(*out[i], ranges.lookup(keys[i]))
          << "window=" << window << " key=" << keys[i];
    }
  }
  // Steady state: the batch path performs zero heap allocations.
  const std::size_t before = g_allocations;
  for (int pass = 0; pass < 8; ++pass) ranges.lookup_batch(keys, out);
  EXPECT_EQ(g_allocations, before);
}

TEST(BatchProbes, RangeMatcherMatchesScalar) {
  run_both_backends([] { expect_range_batch_matches_scalar(16, 99); });
}

TEST(BatchProbes, RangeMatcherWideFieldMatchesScalar) {
  // width 32 exceeds the rank-select limit: covers the prefetched branchless
  // halving of the wide path end to end.
  run_both_backends([] { expect_range_batch_matches_scalar(32, 1234); });
}

/// Randomized signatures over a configurable arity; candidates drawn so a
/// fraction resolves to real rules (nested LPM-style multi-candidate lists).
void expect_index_batch_matches_scalar(std::size_t algorithms,
                                       std::uint64_t seed) {
  Rng rng(seed);
  IndexCalculator calc(algorithms);
  constexpr std::size_t kLabelSpace = 12;
  std::vector<std::vector<Label>> signatures;
  for (std::uint32_t rule = 0; rule < 160; ++rule) {
    std::vector<Label> signature;
    for (std::size_t a = 0; a < algorithms; ++a) {
      signature.push_back(static_cast<Label>(rng.below(kLabelSpace)));
    }
    calc.add_rule(signature, rule);
    signatures.push_back(std::move(signature));
  }
  for (std::uint32_t rule = 0; rule < 160; rule += 5) {
    calc.remove_rule(signatures[rule], rule);  // exercise ref-count drops
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
  SearchContext scalar_ctx;
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    std::vector<std::uint32_t> expected;
    calc.query(ctx.packet_candidates(lane), scalar_ctx, expected);
    ASSERT_EQ(ctx.lane_matches(lane), expected)
        << "algorithms=" << algorithms << " lane=" << lane;
  }
}

TEST(BatchProbes, IndexCalculatorMatchesScalarSealed) {
  run_both_backends([] {
    expect_index_batch_matches_scalar(1, 11);
    expect_index_batch_matches_scalar(2, 22);
    expect_index_batch_matches_scalar(4, 33);
    expect_index_batch_matches_scalar(7, 44);
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
  const std::size_t before = g_allocations;
  for (int pass = 0; pass < 8; ++pass) calc.query_batch(ctx);
  EXPECT_EQ(g_allocations, before);
}

TEST(BatchProbes, RangeFieldLookupTableBatchMatchesScalar) {
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
  SearchContext batch_ctx;
  SearchContext scalar_ctx;
  table.lookup_batch({ptrs.data(), ptrs.size()}, {batch.data(), batch.size()},
                     batch_ctx);
  for (std::size_t i = 0; i < headers.size(); ++i) {
    ASSERT_EQ(batch[i], table.lookup(headers[i], scalar_ctx)) << "packet=" << i;
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
