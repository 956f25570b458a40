// The per-switch control-plane state shared by every controller session of
// one server: role arbitration, the flow journal that resync diffs against,
// and the overload admission state machine. Owned by the event-loop thread
// (or a sans-io test harness) and handed to each Session by reference —
// never shared across threads.
#pragma once

#include "ofp/server/admission.hpp"
#include "ofp/server/resync.hpp"
#include "ofp/server/roles.hpp"

namespace ofmtl::ofp::server {

struct ControlPlane {
  RoleManager roles;
  FlowJournal journal;
  AdmissionController admission;
};

}  // namespace ofmtl::ofp::server
