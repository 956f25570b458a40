#include "ofp/messages.hpp"

#include <algorithm>
#include <stdexcept>

namespace ofmtl::ofp {

namespace {

class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v >> 8));
    u8(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  void u128(const U128& v) {
    u64(v.hi);
    u64(v.lo);
  }
  void bytes(const std::vector<std::uint8_t>& data) {
    u16(static_cast<std::uint16_t>(data.size()));
    out_.insert(out_.end(), data.begin(), data.end());
  }

 private:
  std::vector<std::uint8_t>& out_;
};

// Non-throwing cursor over one frame: an out-of-bounds read or a
// field-level violation sets a sticky status (and yields zeros) instead of
// throwing, so the server can decode hostile bytes without exceptions
// crossing its event loop. First failure wins; composite readers bail out
// early on !ok().
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes, std::size_t offset)
      : bytes_(bytes), pos_(offset) {}
  std::uint8_t u8() {
    if (!require(1)) return 0;
    return bytes_[pos_++];
  }
  std::uint16_t u16() {
    const auto hi = u8();
    return static_cast<std::uint16_t>(hi << 8 | u8());
  }
  std::uint32_t u32() {
    const auto hi = u16();
    return std::uint32_t{hi} << 16 | u16();
  }
  std::uint64_t u64() {
    const auto hi = u32();
    return std::uint64_t{hi} << 32 | u32();
  }
  U128 u128() {
    const auto hi = u64();
    return {hi, u64()};
  }
  std::vector<std::uint8_t> bytes() {
    const auto count = u16();
    if (!require(count)) return {};
    std::vector<std::uint8_t> data(
        bytes_.begin() + static_cast<long>(pos_),
        bytes_.begin() + static_cast<long>(pos_ + count));
    pos_ += count;
    return data;
  }
  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] bool ok() const { return status_ == DecodeStatus::kOk; }
  [[nodiscard]] DecodeStatus status() const { return status_; }
  /// Record a field-level violation (bad tag, bad prefix, ...). Truncation
  /// already recorded takes precedence: the value was garbage to begin with.
  void fail(DecodeStatus status) {
    if (status_ == DecodeStatus::kOk) status_ = status;
  }

 private:
  bool require(std::size_t n) {
    if (n > bytes_.size() - pos_) {  // pos_ <= size() always holds
      fail(DecodeStatus::kTruncated);
      return false;
    }
    return true;
  }
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_;
  DecodeStatus status_ = DecodeStatus::kOk;
};

// --- FlowMatch / Action / InstructionSet body encoding ---

void write_field_match(Writer& w, FieldId id, const FieldMatch& fm) {
  w.u8(static_cast<std::uint8_t>(id));
  w.u8(static_cast<std::uint8_t>(fm.kind));
  switch (fm.kind) {
    case MatchKind::kAny:
      break;
    case MatchKind::kExact:
      w.u128(fm.value);
      break;
    case MatchKind::kPrefix:
      w.u128(fm.prefix.value());
      w.u8(static_cast<std::uint8_t>(fm.prefix.length()));
      w.u8(static_cast<std::uint8_t>(fm.prefix.width()));
      break;
    case MatchKind::kRange:
      w.u64(fm.range.lo);
      w.u64(fm.range.hi);
      break;
    case MatchKind::kMasked:
      w.u128(fm.value);
      w.u128(fm.mask);
      break;
  }
}

void write_match(Writer& w, const FlowMatch& match) {
  const auto fields = match.constrained_fields();
  w.u8(static_cast<std::uint8_t>(fields.size()));
  for (const auto id : fields) write_field_match(w, id, match.get(id));
}

FlowMatch read_match(Reader& r) {
  FlowMatch match;
  const auto count = r.u8();
  for (unsigned i = 0; i < count && r.ok(); ++i) {
    const auto id = static_cast<FieldId>(r.u8());
    if (static_cast<std::size_t>(id) >= kFieldCount) {
      r.fail(DecodeStatus::kBadValue);
      return match;
    }
    const auto kind = static_cast<MatchKind>(r.u8());
    switch (kind) {
      case MatchKind::kAny:
        break;
      case MatchKind::kExact:
        match.set(id, FieldMatch::exact(r.u128()));
        break;
      case MatchKind::kPrefix: {
        const U128 value = r.u128();
        const unsigned length = r.u8();
        const unsigned width = r.u8();
        if (!r.ok()) return match;
        if (width == 0 || width > 128 || length > width) {
          r.fail(DecodeStatus::kBadValue);
          return match;
        }
        match.set(id, FieldMatch::of_prefix(Prefix{value, length, width}));
        break;
      }
      case MatchKind::kRange: {
        const auto lo = r.u64();
        const auto hi = r.u64();
        if (!r.ok()) return match;
        if (lo > hi) {
          r.fail(DecodeStatus::kBadValue);
          return match;
        }
        match.set(id, FieldMatch::of_range(lo, hi));
        break;
      }
      case MatchKind::kMasked: {
        const U128 value = r.u128();
        const U128 mask = r.u128();
        match.set(id, FieldMatch::masked(value, mask));
        break;
      }
      default:
        r.fail(DecodeStatus::kBadValue);
        return match;
    }
  }
  return match;
}

void write_action(Writer& w, const Action& action) {
  if (const auto* out = std::get_if<OutputAction>(&action)) {
    w.u8(0);
    w.u32(out->port);
  } else if (const auto* set = std::get_if<SetFieldAction>(&action)) {
    w.u8(1);
    w.u8(static_cast<std::uint8_t>(set->field));
    w.u128(set->value);
  } else if (const auto* push = std::get_if<PushVlanAction>(&action)) {
    w.u8(2);
    w.u16(push->vlan_id);
  } else if (std::holds_alternative<PopVlanAction>(action)) {
    w.u8(3);
  } else if (const auto* group = std::get_if<GroupAction>(&action)) {
    w.u8(5);
    w.u32(group->group_id);
  } else {
    w.u8(4);  // drop
  }
}

Action read_action(Reader& r) {
  switch (r.u8()) {
    case 0:
      return OutputAction{r.u32()};
    case 1: {
      const auto field = static_cast<FieldId>(r.u8());
      if (static_cast<std::size_t>(field) >= kFieldCount) {
        r.fail(DecodeStatus::kBadValue);
        return DropAction{};
      }
      return SetFieldAction{field, r.u128()};
    }
    case 2:
      return PushVlanAction{r.u16()};
    case 3:
      return PopVlanAction{};
    case 4:
      return DropAction{};
    case 5:
      return GroupAction{r.u32()};
    default:
      r.fail(DecodeStatus::kBadValue);  // no-op when truncation already won
      return DropAction{};
  }
}

void write_actions(Writer& w, const std::vector<Action>& actions) {
  w.u8(static_cast<std::uint8_t>(actions.size()));
  for (const auto& action : actions) write_action(w, action);
}

std::vector<Action> read_actions(Reader& r) {
  std::vector<Action> actions;
  const auto count = r.u8();
  actions.reserve(count);
  for (unsigned i = 0; i < count && r.ok(); ++i) {
    actions.push_back(read_action(r));
  }
  return actions;
}

void write_instructions(Writer& w, const InstructionSet& ins) {
  std::uint8_t flags = 0;
  if (ins.goto_table) flags |= 1;
  if (ins.write_metadata) flags |= 2;
  if (ins.clear_actions) flags |= 4;
  w.u8(flags);
  if (ins.goto_table) w.u8(*ins.goto_table);
  if (ins.write_metadata) {
    w.u64(ins.write_metadata->value);
    w.u64(ins.write_metadata->mask);
  }
  write_actions(w, ins.write_actions);
  write_actions(w, ins.apply_actions);
}

InstructionSet read_instructions(Reader& r) {
  InstructionSet ins;
  const auto flags = r.u8();
  if (flags & 1) ins.goto_table = r.u8();
  if (flags & 2) ins.write_metadata = MetadataWrite{r.u64(), r.u64()};
  ins.clear_actions = (flags & 4) != 0;
  ins.write_actions = read_actions(r);
  ins.apply_actions = read_actions(r);
  return ins;
}

// --- role / resync body encoding ---

void write_resync_entries(Writer& w, const std::vector<ResyncEntry>& entries) {
  w.u16(static_cast<std::uint16_t>(entries.size()));
  for (const auto& entry : entries) {
    w.u8(entry.table_id);
    w.u32(entry.entry_id);
    w.u64(entry.cookie);
  }
}

std::vector<ResyncEntry> read_resync_entries(Reader& r) {
  std::vector<ResyncEntry> entries;
  const auto count = r.u16();
  for (unsigned i = 0; i < count && r.ok(); ++i) {
    ResyncEntry entry;
    entry.table_id = r.u8();
    entry.entry_id = r.u32();
    entry.cookie = r.u64();
    if (r.ok()) entries.push_back(entry);
  }
  return entries;
}

/// Read a strict boolean byte: 2..255 is a field violation, not a truthy
/// value, so every decodable frame re-encodes to identical bytes.
bool read_bool(Reader& r) {
  const auto v = r.u8();
  if (v > 1) r.fail(DecodeStatus::kBadValue);
  return v == 1;
}

Role read_role(Reader& r) {
  const auto v = r.u8();
  if (r.ok() && v > static_cast<std::uint8_t>(Role::kSlave)) {
    r.fail(DecodeStatus::kBadValue);
    return Role::kNoChange;
  }
  return static_cast<Role>(v);
}

[[nodiscard]] MsgType type_of(const Message& message) {
  if (std::holds_alternative<Hello>(message)) return MsgType::kHello;
  if (std::holds_alternative<ErrorMsg>(message)) return MsgType::kError;
  if (std::holds_alternative<EchoRequest>(message)) return MsgType::kEchoRequest;
  if (std::holds_alternative<EchoReply>(message)) return MsgType::kEchoReply;
  if (std::holds_alternative<PacketIn>(message)) return MsgType::kPacketIn;
  if (std::holds_alternative<PacketOut>(message)) return MsgType::kPacketOut;
  if (std::holds_alternative<FlowRemovedMsg>(message)) {
    return MsgType::kFlowRemoved;
  }
  if (std::holds_alternative<RoleRequestMsg>(message)) {
    return MsgType::kRoleRequest;
  }
  if (std::holds_alternative<RoleReplyMsg>(message)) return MsgType::kRoleReply;
  if (std::holds_alternative<ResyncRequestMsg>(message)) {
    return MsgType::kResyncRequest;
  }
  if (std::holds_alternative<ResyncReplyMsg>(message)) {
    return MsgType::kResyncReply;
  }
  return MsgType::kFlowMod;
}

}  // namespace

std::string to_string(MsgType type) {
  switch (type) {
    case MsgType::kHello: return "HELLO";
    case MsgType::kError: return "ERROR";
    case MsgType::kEchoRequest: return "ECHO_REQUEST";
    case MsgType::kEchoReply: return "ECHO_REPLY";
    case MsgType::kPacketIn: return "PACKET_IN";
    case MsgType::kFlowRemoved: return "FLOW_REMOVED";
    case MsgType::kPacketOut: return "PACKET_OUT";
    case MsgType::kFlowMod: return "FLOW_MOD";
    case MsgType::kRoleRequest: return "ROLE_REQUEST";
    case MsgType::kRoleReply: return "ROLE_REPLY";
    case MsgType::kResyncRequest: return "RESYNC_REQUEST";
    case MsgType::kResyncReply: return "RESYNC_REPLY";
  }
  return "UNKNOWN";
}

std::string to_string(Role role) {
  switch (role) {
    case Role::kNoChange: return "nochange";
    case Role::kEqual: return "equal";
    case Role::kMaster: return "master";
    case Role::kSlave: return "slave";
  }
  return "unknown";
}

std::string to_string(DecodeStatus status) {
  switch (status) {
    case DecodeStatus::kOk: return "ok";
    case DecodeStatus::kBadVersion: return "bad version";
    case DecodeStatus::kBadLength: return "length mismatch";
    case DecodeStatus::kTruncated: return "truncated message";
    case DecodeStatus::kTrailingBytes: return "trailing bytes";
    case DecodeStatus::kBadType: return "unknown message type";
    case DecodeStatus::kBadValue: return "bad field value";
  }
  return "unknown";
}

ErrorCode error_code_for(DecodeStatus status) {
  switch (status) {
    case DecodeStatus::kOk: return ErrorCode::kNone;
    case DecodeStatus::kBadVersion: return ErrorCode::kBadVersion;
    case DecodeStatus::kBadLength: return ErrorCode::kBadLength;
    case DecodeStatus::kTruncated: return ErrorCode::kTruncated;
    case DecodeStatus::kTrailingBytes: return ErrorCode::kBadLength;
    case DecodeStatus::kBadType: return ErrorCode::kBadType;
    case DecodeStatus::kBadValue: return ErrorCode::kBadValue;
  }
  return ErrorCode::kNone;
}

ErrorType flow_mod_error_type(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadField: return ErrorType::kBadMatch;
    case ErrorCode::kBadGotoTable: return ErrorType::kBadInstruction;
    case ErrorCode::kBadSetArgument: return ErrorType::kBadAction;
    default: return ErrorType::kFlowModFailed;
  }
}

std::vector<std::uint8_t> encode(const Envelope& envelope) {
  std::vector<std::uint8_t> bytes;
  Writer w{bytes};
  w.u8(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(type_of(envelope.message)));
  w.u16(0);  // length, patched below
  w.u32(envelope.xid);

  std::visit(
      [&w](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, Hello>) {
          // empty body
        } else if constexpr (std::is_same_v<T, ErrorMsg>) {
          w.u16(static_cast<std::uint16_t>(msg.type));
          w.u16(static_cast<std::uint16_t>(msg.code));
          w.bytes(msg.data);
        } else if constexpr (std::is_same_v<T, EchoRequest> ||
                             std::is_same_v<T, EchoReply>) {
          w.bytes(msg.payload);
        } else if constexpr (std::is_same_v<T, PacketIn>) {
          w.u32(msg.buffer_id);
          w.u8(msg.table_id);
          w.u8(static_cast<std::uint8_t>(msg.reason));
          w.u32(msg.in_port);
          w.bytes(msg.frame);
        } else if constexpr (std::is_same_v<T, PacketOut>) {
          w.u32(msg.buffer_id);
          w.u32(msg.in_port);
          write_actions(w, msg.actions);
          w.bytes(msg.frame);
        } else if constexpr (std::is_same_v<T, FlowRemovedMsg>) {
          w.u32(msg.entry_id);
          w.u8(msg.table_id);
          w.u8(static_cast<std::uint8_t>(msg.reason));
          w.u64(msg.packets);
          w.u64(msg.bytes);
        } else if constexpr (std::is_same_v<T, RoleRequestMsg> ||
                             std::is_same_v<T, RoleReplyMsg>) {
          w.u8(static_cast<std::uint8_t>(msg.role));
          w.u64(msg.generation_id);
        } else if constexpr (std::is_same_v<T, ResyncRequestMsg>) {
          w.u8(msg.done ? 1 : 0);
          write_resync_entries(w, msg.entries);
        } else if constexpr (std::is_same_v<T, ResyncReplyMsg>) {
          w.u8(msg.done ? 1 : 0);
          w.u32(msg.deleted);
          write_resync_entries(w, msg.missing);
        } else {  // FlowModMsg
          w.u8(static_cast<std::uint8_t>(msg.command));
          w.u8(msg.table_id);
          w.u64(msg.cookie);
          w.u32(msg.entry.id);
          w.u16(msg.entry.priority);
          w.u16(msg.timeouts.idle_timeout);
          w.u16(msg.timeouts.hard_timeout);
          w.u8(msg.send_flow_removed ? 1 : 0);
          write_match(w, msg.entry.match);
          write_instructions(w, msg.entry.instructions);
        }
      },
      envelope.message);

  if (bytes.size() > 0xFFFF) throw std::invalid_argument("ofp: message too long");
  bytes[2] = static_cast<std::uint8_t>(bytes.size() >> 8);
  bytes[3] = static_cast<std::uint8_t>(bytes.size());
  return bytes;
}

DecodeStatus try_decode(std::span<const std::uint8_t> bytes,
                        Envelope& out) noexcept {
  Reader r{bytes, 0};
  const auto version = r.u8();
  const auto type = static_cast<MsgType>(r.u8());
  const auto length = r.u16();
  if (!r.ok()) return r.status();  // shorter than the fixed header
  if (version != kProtocolVersion) return DecodeStatus::kBadVersion;
  if (length != bytes.size()) return DecodeStatus::kBadLength;
  out.xid = r.u32();
  switch (type) {
    case MsgType::kHello:
      out.message = Hello{};
      break;
    case MsgType::kError: {
      ErrorMsg msg;
      msg.type = static_cast<ErrorType>(r.u16());
      msg.code = static_cast<ErrorCode>(r.u16());
      msg.data = r.bytes();
      out.message = std::move(msg);
      break;
    }
    case MsgType::kEchoRequest:
      out.message = EchoRequest{r.bytes()};
      break;
    case MsgType::kEchoReply:
      out.message = EchoReply{r.bytes()};
      break;
    case MsgType::kPacketIn: {
      PacketIn msg;
      msg.buffer_id = r.u32();
      msg.table_id = r.u8();
      msg.reason = static_cast<PacketInReason>(r.u8());
      msg.in_port = r.u32();
      msg.frame = r.bytes();
      out.message = std::move(msg);
      break;
    }
    case MsgType::kPacketOut: {
      PacketOut msg;
      msg.buffer_id = r.u32();
      msg.in_port = r.u32();
      msg.actions = read_actions(r);
      msg.frame = r.bytes();
      out.message = std::move(msg);
      break;
    }
    case MsgType::kFlowRemoved: {
      FlowRemovedMsg msg;
      msg.entry_id = r.u32();
      msg.table_id = r.u8();
      msg.reason = static_cast<FlowRemovedReason>(r.u8());
      msg.packets = r.u64();
      msg.bytes = r.u64();
      out.message = msg;
      break;
    }
    case MsgType::kFlowMod: {
      FlowModMsg msg;
      msg.command = static_cast<FlowModCommand>(r.u8());
      if (r.ok() && msg.command != FlowModCommand::kAdd &&
          msg.command != FlowModCommand::kModify &&
          msg.command != FlowModCommand::kDelete) {
        return DecodeStatus::kBadValue;
      }
      msg.table_id = r.u8();
      msg.cookie = r.u64();
      msg.entry.id = r.u32();
      msg.entry.priority = r.u16();
      msg.timeouts.idle_timeout = r.u16();
      msg.timeouts.hard_timeout = r.u16();
      msg.send_flow_removed = r.u8() != 0;
      msg.entry.match = read_match(r);
      if (r.ok()) msg.entry.instructions = read_instructions(r);
      out.message = std::move(msg);
      break;
    }
    case MsgType::kRoleRequest: {
      RoleRequestMsg msg;
      msg.role = read_role(r);
      msg.generation_id = r.u64();
      out.message = msg;
      break;
    }
    case MsgType::kRoleReply: {
      RoleReplyMsg msg;
      msg.role = read_role(r);
      msg.generation_id = r.u64();
      out.message = msg;
      break;
    }
    case MsgType::kResyncRequest: {
      ResyncRequestMsg msg;
      msg.done = read_bool(r);
      msg.entries = read_resync_entries(r);
      out.message = std::move(msg);
      break;
    }
    case MsgType::kResyncReply: {
      ResyncReplyMsg msg;
      msg.done = read_bool(r);
      msg.deleted = r.u32();
      msg.missing = read_resync_entries(r);
      out.message = std::move(msg);
      break;
    }
    default:
      return DecodeStatus::kBadType;
  }
  if (!r.ok()) return r.status();
  if (r.position() != bytes.size()) return DecodeStatus::kTrailingBytes;
  return DecodeStatus::kOk;
}

std::vector<std::uint8_t> encode_error(std::uint32_t xid, ErrorType type,
                                       ErrorCode code,
                                       std::span<const std::uint8_t> offending) {
  ErrorMsg msg;
  msg.type = type;
  msg.code = code;
  const auto take = std::min(offending.size(), kErrorDataCap);
  msg.data.assign(offending.begin(), offending.begin() + static_cast<long>(take));
  return encode({xid, std::move(msg)});
}

std::uint32_t peek_xid(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderSize) return 0;
  return std::uint32_t{bytes[4]} << 24 | std::uint32_t{bytes[5]} << 16 |
         std::uint32_t{bytes[6]} << 8 | std::uint32_t{bytes[7]};
}

std::optional<std::size_t> peek_frame_length(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 4) return std::nullopt;
  return std::size_t{bytes[2]} << 8 | std::size_t{bytes[3]};
}

Envelope decode(const std::vector<std::uint8_t>& bytes) {
  Envelope envelope;
  const auto status = try_decode(bytes, envelope);
  if (status != DecodeStatus::kOk) {
    throw std::invalid_argument("ofp: " + to_string(status));
  }
  return envelope;
}

}  // namespace ofmtl::ofp
