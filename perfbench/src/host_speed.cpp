#include "host_speed.hpp"

#include <sched.h>

#include <cmath>
#include <thread>

#include "spans.hpp"

namespace perfbench {
namespace {

/// Four independent multiply-xorshift chains: the kernel keeps the core's
/// multiply and ALU ports busy and touches no memory, so its time follows
/// the share of the core the host gives this vCPU. A dependent walk through
/// an L2-resident table tracked the benchmark's windows less closely.
constexpr std::uint32_t kStepsPerRound = 1u << 16;

std::uint64_t reference_round(std::uint64_t seed) {
  std::uint64_t a = seed, b = seed + 1, c = seed + 2, d = seed + 3;
  for (std::uint32_t step = 0; step < kStepsPerRound; ++step) {
    a = (a ^ (a >> 31)) * 0xBF58476D1CE4E5B9ull;
    b = (b ^ (b >> 27)) * 0x94D049BB133111EBull;
    c = (c ^ (c >> 33)) * 0xFF51AFD7ED558CCDull;
    d = (d ^ (d >> 29)) * 0xC4CEB9FE1A85EC53ull;
  }
  return a ^ b ^ c ^ d;
}

}  // namespace

double probe_slowdown() {
  const auto start = now_ns();
  const std::uint64_t mix = reference_round(static_cast<std::uint64_t>(start));
  const auto elapsed = static_cast<double>(now_ns() - start);
  // `mix` feeds the result so the compiler keeps the round; a 1 ns error in
  // the case it is 0 would not show.
  return (elapsed + static_cast<double>(mix == 0)) / kReferenceRoundNs;
}

double probe_slowdown_on(const std::vector<int>& cpus) {
  if (cpus.empty()) return probe_slowdown();
  std::vector<double> slowdowns(cpus.size(), 1.0);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    threads.emplace_back([&, i] {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpus[i], &set);
      (void)sched_setaffinity(0, sizeof set, &set);
      slowdowns[i] = probe_slowdown();
    });
  }
  double log_sum = 0;
  for (std::size_t i = 0; i < threads.size(); ++i) {
    threads[i].join();
    log_sum += std::log(slowdowns[i]);
  }
  return std::exp(log_sum / static_cast<double>(cpus.size()));
}

}  // namespace perfbench
