#include "core/simd.hpp"

namespace ofmtl::simd {

const char* to_string(Level level) {
  switch (level) {
    case Level::kSwar: return "swar";
    case Level::kSse2: return "sse2";
    case Level::kNeon: return "neon";
  }
  return "unknown";
}

Level detect_level() {
#if defined(OFMTL_SIMD_X86)
  return Level::kSse2;
#elif defined(OFMTL_SIMD_NEON)
  return Level::kNeon;
#else
  return Level::kSwar;
#endif
}

Level active_level() {
  return swar_forced() ? Level::kSwar : detect_level();
}

}  // namespace ofmtl::simd
