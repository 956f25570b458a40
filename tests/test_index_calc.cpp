// IndexCalculator: progressive label combination (DCFL-style) — the stage
// that turns per-algorithm labels into flow-entry indices.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "core/index_table.hpp"
#include "workload/rng.hpp"

namespace ofmtl {
namespace {

/// Query one packet's candidate lists as a one-lane batch through a fresh
/// context; returns the matched rule indices.
std::vector<std::uint32_t> query(const IndexCalculator& calc,
                                 const std::vector<LabelList>& candidates) {
  SearchContext ctx;
  ctx.begin(1, candidates.size());
  for (std::size_t a = 0; a < candidates.size(); ++a) {
    ctx.slot(0, a) = candidates[a];
  }
  calc.query_batch(ctx);
  return ctx.lane_matches(0);
}

TEST(IndexCalculator, SingleAlgorithmDegeneratesToDirectMap) {
  IndexCalculator calc(1);
  calc.add_rule({7}, 0);
  calc.add_rule({9}, 1);
  auto out = query(calc, {{7}});
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0}));
  out = query(calc, {{8}});
  EXPECT_TRUE(out.empty());
}

TEST(IndexCalculator, TwoAlgorithmPairs) {
  IndexCalculator calc(2);
  calc.add_rule({1, 10}, 0);
  calc.add_rule({1, 11}, 1);
  calc.add_rule({2, 10}, 2);
  auto out = query(calc, {{1}, {10}});
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0}));
  out = query(calc, {{2}, {11}});  // valid labels, invalid combination
  EXPECT_TRUE(out.empty());
}

TEST(IndexCalculator, MultipleCandidatesPerAlgorithm) {
  // Mimics LPM: the address algorithm returns nested matches, the wildcard
  // rule and the specific rule must both surface.
  IndexCalculator calc(2);
  calc.add_rule({0, 5}, 0);   // specific
  calc.add_rule({0, 3}, 1);   // shorter prefix
  auto out = query(calc, {{0}, {5, 3}});
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 1}));
}

TEST(IndexCalculator, SharedSignatureReturnsAllRules) {
  IndexCalculator calc(2);
  calc.add_rule({4, 4}, 0);
  calc.add_rule({4, 4}, 5);  // same match at a different priority
  auto out = query(calc, {{4}, {4}});
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 5}));
}

TEST(IndexCalculator, FiveAlgorithmChain) {
  IndexCalculator calc(5);
  calc.add_rule({1, 2, 3, 4, 5}, 0);
  calc.add_rule({1, 2, 3, 4, 6}, 1);
  calc.add_rule({9, 2, 3, 4, 5}, 2);
  auto out = query(calc, {{1}, {2}, {3}, {4}, {5, 6}});
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 1}));
  out = query(calc, {{1, 9}, {2}, {3}, {4}, {5}});
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 2}));
}

TEST(IndexCalculator, EmptyCandidateListShortCircuits) {
  IndexCalculator calc(3);
  calc.add_rule({1, 2, 3}, 0);
  auto out = query(calc, {{1}, {}, {3}});
  EXPECT_TRUE(out.empty());
}

TEST(IndexCalculator, ArityMismatchThrows) {
  IndexCalculator calc(2);
  EXPECT_THROW(calc.add_rule({1}, 0), std::invalid_argument);
  EXPECT_THROW((void)query(calc, {{1}}), std::invalid_argument);
}

TEST(IndexCalculator, MemoryReportCountsPairs) {
  IndexCalculator calc(2);
  calc.add_rule({1, 10}, 0);
  calc.add_rule({1, 11}, 1);
  calc.add_rule({2, 10}, 2);
  const auto report = calc.memory_report("idx");
  // 3 distinct pairs in stage 0, 3 final labels.
  ASSERT_EQ(report.components().size(), 2U);
  EXPECT_EQ(report.components()[0].words, 3U);
  EXPECT_EQ(report.components()[1].words, 3U);
  EXPECT_EQ(calc.update_words(), 6U);
}

using LiveRules = std::map<std::uint32_t, std::vector<Label>>;

/// Brute-force oracle: a rule matches iff each of its signature labels is in
/// the corresponding candidate list. Sorted by rule index.
std::vector<std::uint32_t> brute_force(const LiveRules& live,
                                       const std::vector<LabelList>& candidates) {
  std::vector<std::uint32_t> expected;
  for (const auto& [rule, signature] : live) {
    bool covered = true;
    for (std::size_t a = 0; a < signature.size() && covered; ++a) {
      covered = std::find(candidates[a].begin(), candidates[a].end(),
                          signature[a]) != candidates[a].end();
    }
    if (covered) expected.push_back(rule);
  }
  return expected;
}

/// Memory-model word count per component, then update_words().
std::vector<std::uint64_t> model_words(const IndexCalculator& calc) {
  std::vector<std::uint64_t> words;
  const auto report = calc.memory_report("idx");
  for (const auto& component : report.components()) {
    words.push_back(component.words);
  }
  words.push_back(calc.update_words());
  return words;
}

/// Seeded add/remove rounds checked against the brute-force oracle. Half the
/// added signatures come from a small pool, so final labels are shared by
/// several rules (their regions outgrow and relocate) and signatures return
/// after every rule holding them left. The volume keeps the tables growing,
/// shedding tombstones and compacting final regions throughout.
void expect_churn_matches_oracle(std::size_t algorithms, std::uint64_t seed) {
  workload::Rng rng(seed);
  constexpr Label kLabels = 16;
  constexpr std::size_t kRounds = 40;
  constexpr std::size_t kQueries = 19;  // not a lane-window multiple
  const auto random_signature = [&] {
    std::vector<Label> signature;
    for (std::size_t a = 0; a < algorithms; ++a) {
      signature.push_back(static_cast<Label>(rng.below(kLabels)));
    }
    return signature;
  };
  std::vector<std::vector<Label>> pool;
  for (int i = 0; i < 24; ++i) pool.push_back(random_signature());

  IndexCalculator calc(algorithms);
  LiveRules live;
  std::vector<std::uint32_t> free_rules;  // reused LIFO, like table slots
  std::uint32_t next_rule = 0;
  const auto add = [&](std::vector<Label> signature) {
    std::uint32_t rule = next_rule;
    if (free_rules.empty()) {
      ++next_rule;
    } else {
      rule = free_rules.back();
      free_rules.pop_back();
    }
    calc.add_rule(signature, rule);
    live.emplace(rule, std::move(signature));
  };
  const auto remove = [&](std::uint32_t rule) {
    const auto it = live.find(rule);
    calc.remove_rule(it->second, rule);
    live.erase(it);
    free_rules.push_back(rule);
  };
  const auto random_live = [&] {
    auto it = live.begin();
    std::advance(it, rng.below(live.size()));
    return it;
  };
  // Distinct labels per list; half the queries contain a live signature.
  const auto make_candidates = [&] {
    std::vector<LabelList> candidates(algorithms);
    const std::vector<Label>* covered =
        !live.empty() && rng.below(2) == 0 ? &random_live()->second : nullptr;
    for (std::size_t a = 0; a < algorithms; ++a) {
      LabelList& list = candidates[a];
      if (covered != nullptr) list.push_back((*covered)[a]);
      for (std::uint64_t extra = rng.below(4); extra > 0; --extra) {
        const auto label = static_cast<Label>(rng.below(kLabels));
        if (std::find(list.begin(), list.end(), label) == list.end()) {
          list.push_back(label);
        }
      }
      if (!list.empty()) std::swap(list[0], list[rng.below(list.size())]);
    }
    return candidates;
  };

  for (std::size_t round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("algorithms=" + std::to_string(algorithms) +
                 " round=" + std::to_string(round));
    for (std::uint64_t adds = 10 + rng.below(30); adds > 0; --adds) {
      add(rng.below(2) == 0 ? pool[rng.below(pool.size())] : random_signature());
    }
    for (std::uint64_t removes = rng.below(live.size() * 3 / 4 + 1);
         removes > 0; --removes) {
      remove(random_live()->first);
    }
    // Remove every rule holding one pool signature; re-add it every other
    // round.
    const std::vector<Label>& victim = pool[rng.below(pool.size())];
    std::vector<std::uint32_t> holders;
    for (const auto& [rule, signature] : live) {
      if (signature == victim) holders.push_back(rule);
    }
    for (const std::uint32_t rule : holders) remove(rule);
    if (round % 2 == 0) add(victim);

    std::vector<std::vector<LabelList>> queries;
    for (std::size_t q = 0; q < kQueries; ++q) queries.push_back(make_candidates());
    std::vector<std::vector<std::uint32_t>> answers(kQueries);
    for (std::size_t q = 0; q < kQueries; ++q) {
      answers[q] = query(calc, queries[q]);
      auto sorted = answers[q];
      std::sort(sorted.begin(), sorted.end());
      ASSERT_EQ(sorted, brute_force(live, queries[q])) << "query=" << q;
    }
    SearchContext batch;
    batch.begin(kQueries, algorithms);
    for (std::size_t q = 0; q < kQueries; ++q) {
      for (std::size_t a = 0; a < algorithms; ++a) {
        batch.slot(q, a) = queries[q][a];
      }
    }
    calc.query_batch(batch);
    for (std::size_t q = 0; q < kQueries; ++q) {
      ASSERT_EQ(batch.lane_matches(q), answers[q]) << "lane=" << q;
    }
    IndexCalculator one_pass(algorithms);
    for (const auto& [rule, signature] : live) one_pass.add_rule(signature, rule);
    const auto words = model_words(calc);
    ASSERT_EQ(words, model_words(one_pass));

    // Unregistered removals throw and change nothing.
    EXPECT_THROW(calc.remove_rule(std::vector<Label>(algorithms, kLabels), 0),
                 std::invalid_argument);
    if (!live.empty()) {
      const auto& [rule, signature] = *random_live();
      auto unknown_tail = signature;
      unknown_tail.back() = kLabels;
      EXPECT_THROW(calc.remove_rule(unknown_tail, rule), std::invalid_argument);
      EXPECT_THROW(calc.remove_rule(signature, next_rule), std::invalid_argument);
    }
    for (std::size_t q = 0; q < kQueries; ++q) {
      ASSERT_EQ(query(calc, queries[q]), answers[q])
          << "after failed removes, query=" << q;
    }
    ASSERT_EQ(model_words(calc), words);
  }
}

TEST(IndexCalculator, ChurnMatchesBruteForceOracle) {
  expect_churn_matches_oracle(1, 101);
  expect_churn_matches_oracle(2, 202);
  expect_churn_matches_oracle(4, 404);
  expect_churn_matches_oracle(7, 707);
}

}  // namespace
}  // namespace ofmtl
