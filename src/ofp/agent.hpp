// The switch-side protocol endpoint, in process: a SwitchModel driven by a
// standalone server::Session, so control bytes take the served endpoint's
// path (framing, HELLO, ECHO, roles, ERROR answers) and each flow-mod lands
// in SwitchModel::apply. The agent adds the data side: PACKET_IN on a table
// miss, FLOW_REMOVED on delete or timeout sweep (when the flow asked for
// it) — the complete controller/switch loop the paper's update evaluation
// simulates.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "net/packet.hpp"
#include "ofp/messages.hpp"
#include "ofp/server/session.hpp"

namespace ofmtl::ofp {

class SwitchAgent {
 public:
  explicit SwitchAgent(std::vector<std::vector<FieldId>> table_fields,
                       FieldSearchConfig config = {});
  // The session's sink points back at this agent.
  SwitchAgent(const SwitchAgent&) = delete;
  SwitchAgent& operator=(const SwitchAgent&) = delete;

  /// Feed control-channel bytes at virtual time `now`; returns the frames
  /// the switch sends back. A stream, like a socket: the first frame must
  /// be HELLO (the switch's own HELLO is the first frame returned), and a
  /// frame split across calls is answered once its last byte arrives. A
  /// failed handshake or a framing desync closes the channel for good
  /// (session().state()). Never throws on peer input — see server::Session.
  [[nodiscard]] std::vector<std::vector<std::uint8_t>> handle_control(
      const std::vector<std::uint8_t>& bytes, std::uint64_t now = 0);

  /// Result of pushing one data-plane frame through the switch.
  struct DataResult {
    ExecutionResult execution;
    /// PACKET_IN bytes when the pipeline missed (send to controller).
    std::optional<std::vector<std::uint8_t>> packet_in;
  };

  /// Process a raw frame received on `in_port` at virtual time `now`. A
  /// frame the parser rejects is dropped: no PACKET_IN, counters untouched.
  /// Never throws on frame bytes.
  [[nodiscard]] DataResult handle_frame(const std::vector<std::uint8_t>& frame,
                                        std::uint32_t in_port,
                                        std::uint64_t now = 0);

  /// Expire flows; returns FLOW_REMOVED wire messages for flows that set
  /// send_flow_removed.
  [[nodiscard]] std::vector<std::vector<std::uint8_t>> sweep(std::uint64_t now);

  [[nodiscard]] const SwitchModel& model() const { return model_; }
  [[nodiscard]] const server::Session& session() const { return session_; }
  [[nodiscard]] std::uint32_t next_xid() { return next_xid_++; }
  /// Controller role of the control channel. Starts EQUAL.
  [[nodiscard]] Role role() const { return session_.role(); }

 private:
  /// The session's sink, one mod at a time.
  ErrorCode apply(const FlowModMsg& mod);
  /// FLOW_REMOVED for a live flow, carrying its counters.
  [[nodiscard]] FlowRemovedMsg flow_removed(FlowRef flow,
                                            FlowRemovedReason reason) const;

  SwitchModel model_;
  std::uint32_t next_xid_ = 1;
  std::uint64_t now_ = 0;  ///< virtual time of the bytes being handled
  // Flows that requested FLOW_REMOVED notification.
  std::unordered_set<FlowRef, FlowRefHash> notify_removed_;
  server::Session session_;
};

}  // namespace ofmtl::ofp
