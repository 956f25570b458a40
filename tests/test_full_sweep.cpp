// The flagship invariant, swept across every calibrated router of both
// applications (all 32 filter sets, including the 180k-rule coza/cozb/
// soza/sozb): the compiled decomposed pipeline executes bit-for-bit like
// the linear-search reference pipeline, in the paper's per-field layout and
// (up to 10k rules) in the one-table layout that matches both filter fields
// at once.
#include <gtest/gtest.h>

#include "core/builder.hpp"
#include "core/simd.hpp"
#include "workload/calibration.hpp"
#include "workload/stanford_synth.hpp"
#include "workload/trace_gen.hpp"

namespace ofmtl {
namespace {

struct SweepCase {
  workload::FilterApp app;
  std::size_t index;
};

class FullSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(FullSweep, AcceleratedPipelineMatchesReferenceExactly) {
  const auto [app, index] = GetParam();
  const auto name = app == workload::FilterApp::kMacLearning
                        ? workload::kMacTargets[index].name
                        : workload::kRoutingTargets[index].name;
  const auto set = workload::generate_filterset(app, name);

  // Keep the trace modest: the sweep covers breadth, the dedicated tests
  // cover depth. Run the comparison on both probe-kernel backends (vector,
  // then forced SWAR) so the sweep also asserts backend identity on every
  // calibrated router.
  const auto trace = workload::generate_trace(
      set, {.packets = 200, .hit_ratio = 0.85, .seed = 97 + index});
  // The one-table leg skips the four 180k-rule routers: there the linear
  // reference over both fields dominates the sweep's run time.
  std::vector<TableLayout> layouts{TableLayout::kPerFieldTables};
  if (set.entries.size() <= 10000) layouts.push_back(TableLayout::kSingleTable);
  for (const auto layout : layouts) {
    SCOPED_TRACE(layout == TableLayout::kSingleTable ? "layout=single"
                                                     : "layout=per-field");
    const auto spec = build_app(set, layout);
    const auto accelerated = compile_app(spec);
    for (const bool force_swar : {false, true}) {
      simd::ScopedForceSwar forced(force_swar);
      SCOPED_TRACE(force_swar ? "backend=forced-swar" : "backend=vector");
      for (const auto& header : trace) {
        ASSERT_EQ(accelerated.execute(header), spec.reference.execute(header))
            << set.name << " " << header.to_string();
      }
    }
  }
}

std::vector<SweepCase> all_cases() {
  std::vector<SweepCase> cases;
  for (std::size_t i = 0; i < workload::kFilterCount; ++i) {
    cases.push_back({workload::FilterApp::kMacLearning, i});
    cases.push_back({workload::FilterApp::kRouting, i});
  }
  return cases;
}

std::string sweep_case_name(const ::testing::TestParamInfo<SweepCase>& info) {
  const auto app = info.param.app;
  const auto index = info.param.index;
  return std::string(to_string(app)) + "_" +
         std::string(app == workload::FilterApp::kMacLearning
                         ? workload::kMacTargets[index].name
                         : workload::kRoutingTargets[index].name);
}

INSTANTIATE_TEST_SUITE_P(AllRouters, FullSweep,
                         ::testing::ValuesIn(all_cases()), sweep_case_name);

}  // namespace
}  // namespace ofmtl
