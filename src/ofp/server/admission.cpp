#include "ofp/server/admission.hpp"

#include <algorithm>

namespace ofmtl::ofp::server {

const char* to_string(AdmissionState state) {
  switch (state) {
    case AdmissionState::kNormal: return "normal";
    case AdmissionState::kThrottle: return "throttle";
    case AdmissionState::kShed: return "shed";
  }
  return "unknown";
}

void AdmissionController::on_pressure_sample(double pressure,
                                             std::uint64_t now_ms) {
  pressure_ = std::clamp(pressure, 0.0, 1.0);
  if (transitioned_ && now_ms - last_transition_ms_ < kMinDwellMs) return;
  AdmissionState next = state_;
  switch (state_) {
    case AdmissionState::kNormal:
      if (pressure_ >= kThrottleEnter) next = AdmissionState::kThrottle;
      break;
    case AdmissionState::kThrottle:
      if (pressure_ >= kShedEnter) {
        next = AdmissionState::kShed;
      } else if (pressure_ <= kThrottleExit) {
        next = AdmissionState::kNormal;
      }
      break;
    case AdmissionState::kShed:
      if (pressure_ <= kShedExit) next = AdmissionState::kThrottle;
      break;
  }
  if (next != state_) {
    state_ = next;
    last_transition_ms_ = now_ms;
    transitioned_ = true;
  }
}

}  // namespace ofmtl::ofp::server
