// OpenFlow-style control-channel messages with a binary wire codec — the
// controller/switch protocol substrate the update evaluation (Section V.B)
// assumes. The format follows OpenFlow v1.3's message taxonomy (HELLO, ECHO,
// FLOW_MOD, PACKET_IN, PACKET_OUT, FLOW_REMOVED) with a simplified TLV body
// encoding; it is this library's own concrete format, not the IANA one.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "core/switch_model.hpp"
#include "flow/flow_entry.hpp"

namespace ofmtl::ofp {

inline constexpr std::uint8_t kProtocolVersion = 4;  // OpenFlow 1.3 numbering

/// Fixed message header: version u8, type u8, length u16, xid u32. The
/// length field covers the header itself, so no valid frame is shorter.
inline constexpr std::size_t kHeaderSize = 8;

enum class MsgType : std::uint8_t {
  kHello = 0,
  kError = 1,
  kEchoRequest = 2,
  kEchoReply = 3,
  kPacketIn = 10,
  kFlowRemoved = 11,
  kPacketOut = 13,
  kFlowMod = 14,
  kRoleRequest = 24,  // OpenFlow 1.3 OFPT_ROLE_REQUEST numbering
  kRoleReply = 25,
  // Resync is this library's own extension (no OF1.3 analogue): after a
  // controller failover the surviving master reconciles the switch's flow
  // table against its intent via a cookie digest instead of replaying blind.
  kResyncRequest = 26,
  kResyncReply = 27,
};

struct Hello {
  friend bool operator==(const Hello&, const Hello&) = default;
};

/// OFPT_ERROR taxonomy (simplified): what went wrong with a peer's message.
enum class ErrorType : std::uint16_t {
  kHelloFailed = 0,         ///< handshake violation (e.g. traffic before HELLO)
  kBadRequest = 1,          ///< malformed frame / unknown or unexpected type
  kBadAction = 2,           ///< a flow-mod action is invalid (Set-Field)
  kBadInstruction = 3,      ///< a flow-mod instruction is invalid (Goto)
  kBadMatch = 4,            ///< flow-mod match rejected
  kFlowModFailed = 5,       ///< flow-mod could not be applied (dup add, ...)
  kRoleRequestFailed = 11,  ///< role change rejected (stale generation, ...)
};

enum class ErrorCode : std::uint16_t {
  kNone = 0,
  kBadVersion = 1,
  kBadType = 2,
  kBadLength = 3,
  kTruncated = 4,
  kBadValue = 5,
  kUnknownEntry = 6,
  kDuplicateEntry = 7,
  kBufferOverflow = 8,  ///< peer's write buffer cap exceeded (backpressure)
  kTimeout = 9,         ///< liveness deadline missed
  kStale = 10,          ///< generation_id older than the fenced maximum
  kIsSlave = 11,        ///< state-mutating request from a slave session
  kOverload = 12,       ///< shed under pressure; data carries a backoff hint
  // Why MultiTableLookup::apply rejected a flow-mod, one code per cause
  // (OpenFlow 1.3 names in parentheses):
  kBadTableId = 13,      ///< no table with that id (OFPFMFC_BAD_TABLE_ID)
  kBadField = 14,        ///< a match the table cannot hold (OFPBMC_BAD_FIELD)
  kBadGotoTable = 15,    ///< Goto not to a later table (OFPBIC_BAD_TABLE_ID)
  kBadSetArgument = 16,  ///< Set-Field too wide (OFPBAC_BAD_SET_ARGUMENT)
};

/// Error reply carrying the failure class plus (a prefix of) the offending
/// message so the controller can correlate it beyond the echoed xid.
struct ErrorMsg {
  ErrorType type = ErrorType::kBadRequest;
  ErrorCode code = ErrorCode::kNone;
  std::vector<std::uint8_t> data;
  friend bool operator==(const ErrorMsg&, const ErrorMsg&) = default;
};

struct EchoRequest {
  std::vector<std::uint8_t> payload;
  friend bool operator==(const EchoRequest&, const EchoRequest&) = default;
};

struct EchoReply {
  std::vector<std::uint8_t> payload;
  friend bool operator==(const EchoReply&, const EchoReply&) = default;
};

/// Why a packet was punted to the controller.
enum class PacketInReason : std::uint8_t { kNoMatch = 0, kAction = 1 };

struct PacketIn {
  std::uint32_t buffer_id = 0xFFFFFFFF;  // OFP_NO_BUFFER: full frame inline
  std::uint8_t table_id = 0;
  PacketInReason reason = PacketInReason::kNoMatch;
  std::uint32_t in_port = 0;
  std::vector<std::uint8_t> frame;
  friend bool operator==(const PacketIn&, const PacketIn&) = default;
};

struct PacketOut {
  std::uint32_t buffer_id = 0xFFFFFFFF;
  std::uint32_t in_port = 0;
  std::vector<Action> actions;
  std::vector<std::uint8_t> frame;
  friend bool operator==(const PacketOut&, const PacketOut&) = default;
};

enum class FlowRemovedReason : std::uint8_t {
  kIdleTimeout = 0,
  kHardTimeout = 1,
  kDelete = 2,
};

struct FlowRemovedMsg {
  FlowEntryId entry_id = 0;
  std::uint8_t table_id = 0;
  FlowRemovedReason reason = FlowRemovedReason::kIdleTimeout;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  friend bool operator==(const FlowRemovedMsg&, const FlowRemovedMsg&) = default;
};

struct FlowModMsg {
  FlowModCommand command = FlowModCommand::kAdd;
  std::uint8_t table_id = 0;
  /// Controller-chosen stamp journaled with the entry; resync compares
  /// cookies, not bodies, so a re-added entry with new intent (same id,
  /// different cookie) is detected as stale and reconciled.
  std::uint64_t cookie = 0;
  FlowEntry entry;
  TimeoutConfig timeouts{};
  bool send_flow_removed = false;  ///< OFPFF_SEND_FLOW_REM
  friend bool operator==(const FlowModMsg&, const FlowModMsg&) = default;
};

/// OFP controller role (OFPCR_ROLE_*). kNoChange queries without mutating.
enum class Role : std::uint8_t {
  kNoChange = 0,
  kEqual = 1,
  kMaster = 2,
  kSlave = 3,
};

/// OFPT_ROLE_REQUEST: claim a role. Master/slave claims carry a
/// generation_id; the switch fences claims whose generation is older
/// (circular comparison) than the largest it has seen.
struct RoleRequestMsg {
  Role role = Role::kNoChange;
  std::uint64_t generation_id = 0;
  friend bool operator==(const RoleRequestMsg&, const RoleRequestMsg&) = default;
};

/// OFPT_ROLE_REPLY: the session's role after the request — also sent
/// unsolicited (xid 0) to notify a slave it was promoted to master.
struct RoleReplyMsg {
  Role role = Role::kEqual;
  std::uint64_t generation_id = 0;
  friend bool operator==(const RoleReplyMsg&, const RoleReplyMsg&) = default;
};

/// One journaled flow-table entry in a resync digest.
struct ResyncEntry {
  std::uint8_t table_id = 0;
  FlowEntryId entry_id = 0;
  std::uint64_t cookie = 0;
  friend bool operator==(const ResyncEntry&, const ResyncEntry&) = default;
};

/// Controller -> switch: (a chunk of) the controller's intended table as
/// (table, id, cookie) triples. `done` marks the final chunk; the switch
/// accumulates chunks and runs the diff only when the digest is complete,
/// so arbitrarily large tables fit under the 64 KiB frame cap.
struct ResyncRequestMsg {
  bool done = true;
  std::vector<ResyncEntry> entries;
  friend bool operator==(const ResyncRequestMsg&, const ResyncRequestMsg&) =
      default;
};

/// Switch -> controller resync verdict: `missing` lists intended entries the
/// switch does not hold (absent, or held with a stale cookie and GC'd) which
/// the controller must re-send; `deleted` counts journal entries the switch
/// garbage-collected because the digest no longer claims them. Chunked like
/// the request, `done` on the last chunk.
struct ResyncReplyMsg {
  bool done = true;
  std::uint32_t deleted = 0;
  std::vector<ResyncEntry> missing;
  friend bool operator==(const ResyncReplyMsg&, const ResyncReplyMsg&) = default;
};

using Message =
    std::variant<Hello, ErrorMsg, EchoRequest, EchoReply, PacketIn, PacketOut,
                 FlowRemovedMsg, FlowModMsg, RoleRequestMsg, RoleReplyMsg,
                 ResyncRequestMsg, ResyncReplyMsg>;

/// Envelope: version, type, length, transaction id.
struct Envelope {
  std::uint32_t xid = 0;
  Message message;
  friend bool operator==(const Envelope&, const Envelope&) = default;
};

/// Encode one message with its header.
[[nodiscard]] std::vector<std::uint8_t> encode(const Envelope& envelope);

/// Why a frame failed to decode. kOk aside, every value maps onto the
/// ErrorCode a server should echo back (see error_code_for).
enum class DecodeStatus : std::uint8_t {
  kOk = 0,
  kBadVersion,     ///< header version != kProtocolVersion
  kBadLength,      ///< header length field disagrees with the frame size
  kTruncated,      ///< body shorter than its own structure claims
  kTrailingBytes,  ///< body longer than its structure consumes
  kBadType,        ///< unknown message type
  kBadValue,       ///< field-level violation (bad tag, bad prefix, ...)
};

/// Decode one message without ever throwing: the server path. On kOk, `out`
/// holds the envelope; on any other status `out` is unspecified. Malformed
/// input of every shape (empty, truncated at any cut point, oversized or
/// undersized length fields, corrupt tags) yields a status, never an
/// exception.
[[nodiscard]] DecodeStatus try_decode(std::span<const std::uint8_t> bytes,
                                      Envelope& out) noexcept;

/// Decode one message. Throws std::invalid_argument on malformed input
/// (wrong version, truncated body, unknown type/tag). Convenience wrapper
/// over try_decode for test/tool code; servers use try_decode directly.
[[nodiscard]] Envelope decode(const std::vector<std::uint8_t>& bytes);

/// The ERROR envelope a server replies with for a given decode failure.
[[nodiscard]] ErrorCode error_code_for(DecodeStatus status);

/// The ERROR type a rejected flow-mod answers with, by its code, as in
/// OpenFlow 1.3: kBadField is a bad match, kBadGotoTable a bad instruction,
/// kBadSetArgument a bad action; anything else failed the flow-mod itself.
[[nodiscard]] ErrorType flow_mod_error_type(ErrorCode code);

/// Cap on the offending-frame prefix echoed back inside ERROR replies, so a
/// hostile 64 KiB frame never reflects into a 64 KiB error.
inline constexpr std::size_t kErrorDataCap = 64;

/// Build one encoded ERROR reply echoing (a capped prefix of) the offending
/// bytes. Never throws.
[[nodiscard]] std::vector<std::uint8_t> encode_error(
    std::uint32_t xid, ErrorType type, ErrorCode code,
    std::span<const std::uint8_t> offending = {});

/// Best-effort xid of a raw frame (offset 4..8), 0 when too short — lets
/// ERROR replies to undecodable frames still echo the transaction id.
[[nodiscard]] std::uint32_t peek_xid(std::span<const std::uint8_t> bytes);

/// Total frame length a (possibly partial) frame claims in its header, or
/// std::nullopt while fewer than 4 bytes have arrived. Values below
/// kHeaderSize are protocol violations the caller must reject.
[[nodiscard]] std::optional<std::size_t> peek_frame_length(
    std::span<const std::uint8_t> bytes);

[[nodiscard]] std::string to_string(MsgType type);
[[nodiscard]] std::string to_string(DecodeStatus status);
[[nodiscard]] std::string to_string(Role role);

}  // namespace ofmtl::ofp
