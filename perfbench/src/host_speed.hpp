// Host speed probe: a fixed reference kernel, independent of libofmtl,
// timed on the CPUs the benchmark runs on. On a shared VM a vCPU's speed
// drifts with what other tenants run on the physical host, by up to 1.6x
// within minutes, and almost none of that drift shows as steal time: the
// producer's thread CPU time matches wall time to 0.01 % in every window.
// Timings divided by the probe's slowdown read as if measured on a host at
// the reference speed, so runs taken at different times compare.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// Nanoseconds one round of the reference kernel takes at the reference
/// speed, about what an undisturbed vCPU of the 4-vCPU KVM guest the
/// benchmark was tuned on (Intel Xeon, family 6 model 143) reads. Fixed:
/// changing it rescales every scaled metric.
inline constexpr double kReferenceRoundNs = 140'000.0;

/// One round of the reference kernel on the calling thread, as its time
/// over kReferenceRoundNs: 1 at the reference speed, 1.5 when the CPU runs
/// a third slower.
[[nodiscard]] double probe_slowdown();

/// The geometric mean of probe_slowdown() over `cpus`, one pinned thread
/// per CPU, all at once; on the calling thread alone when `cpus` is empty.
[[nodiscard]] double probe_slowdown_on(const std::vector<int>& cpus);

}  // namespace perfbench
