// Vector shim of the SIMD lane engine: the flat-hash tag-group compare runs
// on 16-byte groups through the primitives below. The backend is selected
// at configure time (-DOFMTL_SIMD=ON compiles the x86-64 / aarch64
// intrinsics paths, OFF leaves only portable SWAR); SSE2 and NEON are
// baseline for their ISAs, so no runtime CPU probe is needed.
//
// Tests flip force_swar() to run every suite twice; the SWAR kernels are
// bit-identical to the vector ones by construction, which the extended
// property sweeps (test_batch_probes, test_execute_batch, test_full_sweep)
// assert on random and adversarial inputs.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(OFMTL_SIMD_ENABLED) && (defined(__x86_64__) || defined(_M_X64))
#define OFMTL_SIMD_X86 1
#include <immintrin.h>
#elif defined(OFMTL_SIMD_ENABLED) && defined(__aarch64__)
#define OFMTL_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace ofmtl::simd {

/// Backend driving the kernels.
enum class Level : std::uint8_t {
  kSwar,  ///< portable 64-bit SWAR (also the -DOFMTL_SIMD=OFF build)
  kSse2,  ///< x86-64 baseline 128-bit
  kNeon,  ///< aarch64 baseline 128-bit
};

[[nodiscard]] const char* to_string(Level level);

/// Level this binary was compiled for (the ISA baseline of its target).
[[nodiscard]] Level detect_level();

/// detect_level(), or kSwar while force_swar(true) is in effect.
[[nodiscard]] Level active_level();

namespace detail {
inline std::atomic<bool> g_force_swar{false};
}

/// Test hook: route every kernel through the portable SWAR path so property
/// tests can compare both implementations in one process.
inline void force_swar(bool on) {
  detail::g_force_swar.store(on, std::memory_order_relaxed);
}
[[nodiscard]] inline bool swar_forced() {
  return detail::g_force_swar.load(std::memory_order_relaxed);
}

/// RAII toggle for the double-run property sweeps.
class ScopedForceSwar {
 public:
  explicit ScopedForceSwar(bool on) : prev_(swar_forced()) { force_swar(on); }
  ~ScopedForceSwar() { force_swar(prev_); }
  ScopedForceSwar(const ScopedForceSwar&) = delete;
  ScopedForceSwar& operator=(const ScopedForceSwar&) = delete;

 private:
  bool prev_;
};

// --- 16-byte tag-group kernels ----------------------------------------------
// A group is 16 contiguous one-byte slot tags (SwissTable-style): live slots
// carry the 7-bit hash tag (0x00..0x7F), empty/deleted slots a sentinel with
// the high bit set. One kernel call answers "which of these 16 slots could
// match" as a bitmask.

/// Bit i set <=> group[i] == tag. Exact SWAR byte-equality: OR-ing kHigh in
/// before the decrement keeps every per-byte subtraction borrow-free, so —
/// unlike the classic `(x - kOnes) & ~x & kHigh` zero-byte test, which can
/// flag the byte above a true zero — each flagged position really is an
/// exact match. The 0x0102040810204080 multiply then gathers the per-byte
/// high bits carry-free (every partial product lands on a distinct bit).
[[nodiscard]] inline std::uint32_t match_bytes16_swar(const std::uint8_t* group,
                                                      std::uint8_t tag) {
  constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
  constexpr std::uint64_t kHigh = 0x8080808080808080ULL;
  std::uint32_t mask = 0;
  for (unsigned w = 0; w < 2; ++w) {
    std::uint64_t word;
    std::memcpy(&word, group + 8 * w, 8);
    const std::uint64_t x = word ^ (kOnes * tag);
    const std::uint64_t hit = ~(x | ((x | kHigh) - kOnes)) & kHigh;
    mask |= static_cast<std::uint32_t>(
                ((hit >> 7) * 0x0102040810204080ULL) >> 56)
            << (8 * w);
  }
  return mask;
}

/// Bit i set <=> group[i] >= 0x80 (empty or deleted slot; live hash tags are
/// 7-bit). This is a raw movemask of the group.
[[nodiscard]] inline std::uint32_t match_special16_swar(
    const std::uint8_t* group) {
  constexpr std::uint64_t kHigh = 0x8080808080808080ULL;
  std::uint32_t mask = 0;
  for (unsigned w = 0; w < 2; ++w) {
    std::uint64_t word;
    std::memcpy(&word, group + 8 * w, 8);
    const std::uint64_t hit = word & kHigh;
    mask |= static_cast<std::uint32_t>(
                ((hit >> 7) * 0x0102040810204080ULL) >> 56)
            << (8 * w);
  }
  return mask;
}

#if defined(OFMTL_SIMD_X86)
[[nodiscard]] inline std::uint32_t match_bytes16_sse2(const std::uint8_t* group,
                                                      std::uint8_t tag) {
  const __m128i g =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(group));
  const __m128i eq = _mm_cmpeq_epi8(g, _mm_set1_epi8(static_cast<char>(tag)));
  return static_cast<std::uint32_t>(_mm_movemask_epi8(eq));
}

[[nodiscard]] inline std::uint32_t match_special16_sse2(
    const std::uint8_t* group) {
  const __m128i g =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(group));
  return static_cast<std::uint32_t>(_mm_movemask_epi8(g));
}
#endif

#if defined(OFMTL_SIMD_NEON)
// NEON has no movemask; dot the 0xFF match bytes against per-lane bit
// weights and horizontal-add each half (the sums cannot carry: one distinct
// power of two per byte).
[[nodiscard]] inline std::uint32_t movemask16_neon(uint8x16_t bytes) {
  const uint8x8_t weights = {1, 2, 4, 8, 16, 32, 64, 128};
  const uint8x16_t masked =
      vandq_u8(bytes, vcombine_u8(weights, weights));
  const std::uint32_t lo = vaddv_u8(vget_low_u8(masked));
  const std::uint32_t hi = vaddv_u8(vget_high_u8(masked));
  return lo | (hi << 8);
}

[[nodiscard]] inline std::uint32_t match_bytes16_neon(const std::uint8_t* group,
                                                      std::uint8_t tag) {
  const uint8x16_t g = vld1q_u8(group);
  return movemask16_neon(vceqq_u8(g, vdupq_n_u8(tag)));
}

[[nodiscard]] inline std::uint32_t match_special16_neon(
    const std::uint8_t* group) {
  const uint8x16_t g = vld1q_u8(group);
  return movemask16_neon(vcgeq_u8(g, vdupq_n_u8(0x80)));
}
#endif

/// Dispatch: the 128-bit paths are ISA baseline, so the only runtime branch
/// is the test-only force_swar flag — absent entirely from the
/// -DOFMTL_SIMD=OFF build.
[[nodiscard]] inline std::uint32_t match_bytes16(const std::uint8_t* group,
                                                 std::uint8_t tag) {
#if defined(OFMTL_SIMD_X86)
  if (!swar_forced()) return match_bytes16_sse2(group, tag);
#elif defined(OFMTL_SIMD_NEON)
  if (!swar_forced()) return match_bytes16_neon(group, tag);
#endif
  return match_bytes16_swar(group, tag);
}

[[nodiscard]] inline std::uint32_t match_special16(const std::uint8_t* group) {
#if defined(OFMTL_SIMD_X86)
  if (!swar_forced()) return match_special16_sse2(group);
#elif defined(OFMTL_SIMD_NEON)
  if (!swar_forced()) return match_special16_neon(group);
#endif
  return match_special16_swar(group);
}

}  // namespace ofmtl::simd
