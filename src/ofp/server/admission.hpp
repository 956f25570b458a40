// Admission control: the explicit overload state machine between the
// flow-mod sink and controller sessions. Pressure samples in [0,1] — the
// sink's publish latency, normalized against its budget — drive
// NORMAL -> THROTTLE -> SHED transitions with hysteresis (distinct enter/exit
// thresholds) and a minimum dwell, so a noisy signal cannot flap the control
// plane:
//
//   NORMAL    every session's flow-mods admitted
//   THROTTLE  the middle rung: still admits everyone, but one more pressure
//             step sheds
//   SHED      non-master flow-mods rejected outright; the master keeps
//             publishing (shedding load where it hurts least)
//
// Rejections earn OFP ERROR kOverload replies carrying kBackoffHintMs, and a
// session that piles up kMaxConsecutiveRejects rejected mods without an
// admitted batch in between is drained (bounded retry: a controller ignoring
// backoff loses its session, not the server its memory). That count is
// per-session state and lives in Session; this class is the switch-wide
// half.
//
// Deterministic and single-threaded: all inputs (pressure, clock) are
// injected, so tests replay exact overload schedules.
#pragma once

#include <cstdint>

namespace ofmtl::ofp::server {

inline constexpr double kThrottleEnter = 0.75;  ///< NORMAL -> THROTTLE at >=
inline constexpr double kThrottleExit = 0.50;   ///< THROTTLE -> NORMAL at <=
inline constexpr double kShedEnter = 0.90;      ///< THROTTLE -> SHED at >=
inline constexpr double kShedExit = 0.60;       ///< SHED -> THROTTLE at <=
/// Minimum ms between state changes (hysteresis dwell).
inline constexpr std::uint64_t kMinDwellMs = 100;
/// Backoff hint (ms) carried in kOverload ERROR replies.
inline constexpr std::uint16_t kBackoffHintMs = 50;
/// Consecutive rejected mods before a session is drained.
inline constexpr std::uint64_t kMaxConsecutiveRejects = 4096;

enum class AdmissionState : std::uint8_t { kNormal = 0, kThrottle, kShed };

[[nodiscard]] const char* to_string(AdmissionState state);

class AdmissionController {
 public:
  /// Feed one pressure sample; may advance the state machine (at most one
  /// step per call, dwell permitting).
  void on_pressure_sample(double pressure, std::uint64_t now_ms);

  /// True when a batch from this session is rejected: SHED, non-master.
  [[nodiscard]] bool sheds(bool is_master) const {
    return state_ == AdmissionState::kShed && !is_master;
  }

  [[nodiscard]] AdmissionState state() const { return state_; }
  [[nodiscard]] double pressure() const { return pressure_; }

 private:
  AdmissionState state_ = AdmissionState::kNormal;
  double pressure_ = 0;
  std::uint64_t last_transition_ms_ = 0;
  bool transitioned_ = false;
};

}  // namespace ofmtl::ofp::server
