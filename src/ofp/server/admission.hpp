// Admission control: the explicit overload state machine between the
// flow-mod sink and controller sessions. Pressure samples in [0,1] — the
// sink's publish latency, normalized against its budget — drive
// NORMAL -> THROTTLE -> SHED transitions with hysteresis (distinct enter/exit
// thresholds) and a minimum dwell, so a noisy signal cannot flap the control
// plane. Per-session token buckets meter flow-mod admission:
//
//   NORMAL    everyone admitted within the (optional) per-session rate cap
//   THROTTLE  non-master sessions metered at throttle_fraction of the cap;
//             the master keeps its full cap (shedding load where it hurts
//             least first)
//   SHED      non-master flow-mods rejected outright; the master still
//             metered at its full cap
//
// Rejections earn OFP ERROR kOverload replies carrying a backoff hint, and a
// session exceeding max_consecutive_rejects is drained (bounded retry: a
// controller ignoring backoff loses its session, not the server its memory).
//
// Deterministic and single-threaded: all inputs (pressure, clock) are
// injected, so tests replay exact overload schedules.
#pragma once

#include <cstdint>

#include <unordered_map>

namespace ofmtl::ofp::server {

struct AdmissionConfig {
  double throttle_enter = 0.75;  ///< pressure >= this: NORMAL -> THROTTLE
  double throttle_exit = 0.50;   ///< pressure <= this: THROTTLE -> NORMAL
  double shed_enter = 0.90;      ///< pressure >= this: THROTTLE -> SHED
  double shed_exit = 0.60;       ///< pressure <= this: SHED -> THROTTLE
  /// Minimum ms between state changes (hysteresis dwell).
  std::uint64_t min_dwell_ms = 100;
  /// Flow-mods per second each session may submit; 0 = unmetered. Buckets
  /// hold one second of burst.
  std::uint32_t session_rate_cap = 0;
  /// Fraction of the rate cap non-master sessions keep under THROTTLE
  /// (denominator: cap / throttle_divisor).
  std::uint32_t throttle_divisor = 4;
  /// Backoff hint (ms) carried in kOverload ERROR replies.
  std::uint16_t backoff_hint_ms = 50;
  /// Consecutive rejected mods before the session is drained.
  std::uint32_t max_consecutive_rejects = 4096;
};

enum class AdmissionState : std::uint8_t { kNormal = 0, kThrottle, kShed };

[[nodiscard]] const char* to_string(AdmissionState state);

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig config = {})
      : config_(config) {}

  /// Feed one pressure sample; may advance the state machine (at most one
  /// step per call, dwell permitting).
  void on_pressure_sample(double pressure, std::uint64_t now_ms);

  /// Verdict for one batch of `mods` flow-mods from a session.
  struct Verdict {
    bool admit = true;
    std::uint16_t backoff_hint_ms = 0;  ///< populated on rejection
    bool drain = false;  ///< rejection budget exhausted: drain the session
  };
  [[nodiscard]] Verdict admit(std::uint64_t session_id, bool is_master,
                              std::size_t mods, std::uint64_t now_ms);

  void on_session_closed(std::uint64_t session_id) {
    buckets_.erase(session_id);
  }

  [[nodiscard]] AdmissionState state() const { return state_; }
  [[nodiscard]] double pressure() const { return pressure_; }
  [[nodiscard]] std::uint64_t rejected_mods() const { return rejected_mods_; }

 private:
  struct Bucket {
    double tokens = 0;
    std::uint64_t refilled_ms = 0;
    std::uint32_t consecutive_rejects = 0;
    bool primed = false;
  };

  /// Effective mods/sec for this session in the current state, or 0 when
  /// the session is shed outright.
  [[nodiscard]] std::uint32_t effective_rate(bool is_master) const;

  AdmissionConfig config_;
  AdmissionState state_ = AdmissionState::kNormal;
  double pressure_ = 0;
  std::uint64_t last_transition_ms_ = 0;
  bool transitioned_ = false;
  std::uint64_t rejected_mods_ = 0;
  std::unordered_map<std::uint64_t, Bucket> buckets_;
};

}  // namespace ofmtl::ofp::server
