// OpenFlow-style protocol tests: codec round-trips for every message type,
// decode fuzzing, and the SwitchAgent control/data loop over its Session
// (handshake, flow-mod install, packet-in on miss, flow-removed on expiry,
// echo).
#include <gtest/gtest.h>

#include <algorithm>

#include "net/packet.hpp"
#include "ofp/agent.hpp"
#include "ofp/messages.hpp"
#include "workload/rng.hpp"

namespace ofmtl::ofp {
namespace {

FlowModMsg sample_flow_mod() {
  FlowModMsg mod;
  mod.command = FlowModCommand::kAdd;
  mod.table_id = 0;
  mod.entry.id = 42;
  mod.entry.priority = 7;
  mod.entry.match.set(FieldId::kVlanId, FieldMatch::exact(std::uint64_t{100}));
  mod.entry.match.set(
      FieldId::kIpv4Dst,
      FieldMatch::of_prefix(Prefix::from_value(0x0A000000, 8, 32)));
  mod.entry.match.set(FieldId::kDstPort, FieldMatch::of_range(80, 443));
  mod.entry.match.set(FieldId::kMetadata,
                      FieldMatch::masked(U128{0x5}, U128{0xF}));
  mod.entry.instructions = goto_and_write(1, {OutputAction{9}});
  mod.entry.instructions.write_metadata = MetadataWrite{0x5, 0xF};
  mod.entry.instructions.apply_actions.push_back(
      SetFieldAction{FieldId::kVlanId, U128{200}});
  mod.timeouts = {.idle_timeout = 30, .hard_timeout = 300};
  mod.send_flow_removed = true;
  return mod;
}

TEST(OfpCodec, RoundTripsEveryMessageType) {
  const std::vector<Envelope> envelopes = {
      {1, Hello{}},
      {2, EchoRequest{{1, 2, 3}}},
      {3, EchoReply{{4, 5}}},
      {4, PacketIn{0xFFFFFFFF, 1, PacketInReason::kNoMatch, 7, {0xDE, 0xAD}}},
      {5, PacketOut{0xFFFFFFFF, 3, {OutputAction{4}, PopVlanAction{}}, {0xBE}}},
      {6, FlowRemovedMsg{99, 1, FlowRemovedReason::kIdleTimeout, 10, 640}},
      {7, sample_flow_mod()},
      {8, ErrorMsg{ErrorType::kFlowModFailed, ErrorCode::kDuplicateEntry,
                   {0xAA, 0xBB}}},
      {9, RoleRequestMsg{Role::kMaster, 0xDEADBEEFCAFEF00D}},
      {10, RoleReplyMsg{Role::kSlave, 0xFFFFFFFFFFFFFFFF}},
      {11, ResyncRequestMsg{false, {{0, 1, 0xA}, {3, 0xFFFFFFFF, 0xB}}}},
      {12, ResyncReplyMsg{true, 7, {{1, 42, 0xC}}}},
  };
  for (const auto& envelope : envelopes) {
    const auto bytes = encode(envelope);
    // Header sanity: version, length.
    EXPECT_EQ(bytes[0], kProtocolVersion);
    EXPECT_EQ((bytes[2] << 8 | bytes[3]), static_cast<int>(bytes.size()));
    const auto decoded = decode(bytes);
    EXPECT_EQ(decoded, envelope) << "xid " << envelope.xid;
  }
}

TEST(OfpCodec, RejectsMalformed) {
  auto bytes = encode({1, Hello{}});
  {
    auto bad = bytes;
    bad[0] = 9;  // wrong version
    EXPECT_THROW((void)decode(bad), std::invalid_argument);
  }
  {
    auto bad = bytes;
    bad[3] += 1;  // wrong length
    EXPECT_THROW((void)decode(bad), std::invalid_argument);
  }
  {
    auto bad = bytes;
    bad[1] = 250;  // unknown type
    EXPECT_THROW((void)decode(bad), std::invalid_argument);
  }
  EXPECT_THROW((void)decode({}), std::invalid_argument);
}

TEST(OfpCodec, DecodeFuzzNeverCrashes) {
  workload::Rng rng(1234);
  const auto valid = encode({9, sample_flow_mod()});
  for (int trial = 0; trial < 3000; ++trial) {
    auto bytes = valid;
    for (int flips = 0; flips < 4; ++flips) {
      bytes[rng.below(bytes.size())] ^= static_cast<std::uint8_t>(rng.next());
    }
    if (rng.chance(0.3)) bytes.resize(rng.below(bytes.size() + 1));
    try {
      const auto decoded = decode(bytes);
      (void)encode(decoded);  // whatever decodes must re-encode
    } catch (const std::invalid_argument&) {
    }
  }
}

// --- Randomized property tests: encode -> try_decode == identity ---

U128 random_u128(workload::Rng& rng) { return U128{rng.next(), rng.next()}; }

std::vector<std::uint8_t> random_bytes(workload::Rng& rng, std::size_t max) {
  std::vector<std::uint8_t> data(rng.below(max + 1));
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  return data;
}

FieldMatch random_field_match(workload::Rng& rng) {
  switch (rng.below(4)) {
    case 0:
      return FieldMatch::exact(random_u128(rng));
    case 1: {
      const unsigned width = 1 + static_cast<unsigned>(rng.below(128));
      const unsigned length = static_cast<unsigned>(rng.below(width + 1));
      return FieldMatch::of_prefix(Prefix{random_u128(rng), length, width});
    }
    case 2: {
      const auto a = rng.next(), b = rng.next();
      return FieldMatch::of_range(std::min(a, b), std::max(a, b));
    }
    default:
      return FieldMatch::masked(random_u128(rng), random_u128(rng));
  }
}

Action random_action(workload::Rng& rng) {
  switch (rng.below(6)) {
    case 0: return OutputAction{static_cast<std::uint32_t>(rng.next())};
    case 1:
      return SetFieldAction{static_cast<FieldId>(rng.below(kFieldCount)),
                            random_u128(rng)};
    case 2: return PushVlanAction{static_cast<std::uint16_t>(rng.next())};
    case 3: return PopVlanAction{};
    case 4: return DropAction{};
    default: return GroupAction{static_cast<std::uint32_t>(rng.next())};
  }
}

std::vector<Action> random_actions(workload::Rng& rng, std::size_t max) {
  std::vector<Action> actions(rng.below(max + 1));
  for (auto& action : actions) action = random_action(rng);
  return actions;
}

FlowModMsg random_flow_mod(workload::Rng& rng) {
  static constexpr FlowModCommand kCommands[] = {
      FlowModCommand::kAdd, FlowModCommand::kModify, FlowModCommand::kDelete};
  FlowModMsg mod;
  mod.command = kCommands[rng.below(3)];
  mod.table_id = static_cast<std::uint8_t>(rng.next());
  mod.cookie = rng.next();
  mod.entry.id = static_cast<std::uint32_t>(rng.next());
  mod.entry.priority = static_cast<std::uint16_t>(rng.next());
  const auto constrained = rng.below(kFieldCount + 1);
  for (std::size_t i = 0; i < constrained; ++i) {
    mod.entry.match.set(static_cast<FieldId>(rng.below(kFieldCount)),
                        random_field_match(rng));
  }
  if (rng.chance(0.5)) {
    mod.entry.instructions.goto_table = static_cast<std::uint8_t>(rng.next());
  }
  if (rng.chance(0.5)) {
    mod.entry.instructions.write_metadata = MetadataWrite{rng.next(), rng.next()};
  }
  mod.entry.instructions.clear_actions = rng.chance(0.3);
  mod.entry.instructions.write_actions = random_actions(rng, 4);
  mod.entry.instructions.apply_actions = random_actions(rng, 4);
  mod.timeouts.idle_timeout = static_cast<std::uint16_t>(rng.next());
  mod.timeouts.hard_timeout = static_cast<std::uint16_t>(rng.next());
  mod.send_flow_removed = rng.chance(0.5);
  return mod;
}

std::vector<ResyncEntry> random_resync_entries(workload::Rng& rng,
                                               std::size_t max_entries) {
  std::vector<ResyncEntry> entries(rng.below(max_entries + 1));
  for (auto& entry : entries) {
    entry.table_id = static_cast<std::uint8_t>(rng.next());
    entry.entry_id = static_cast<std::uint32_t>(rng.next());
    entry.cookie = rng.next();
  }
  return entries;
}

Role random_role(workload::Rng& rng) {
  static constexpr Role kRoles[] = {Role::kNoChange, Role::kEqual,
                                    Role::kMaster, Role::kSlave};
  return kRoles[rng.below(4)];
}

Envelope random_envelope(workload::Rng& rng) {
  Envelope envelope;
  envelope.xid = static_cast<std::uint32_t>(rng.next());
  switch (rng.below(12)) {
    case 0: envelope.message = Hello{}; break;
    case 1: {
      static constexpr ErrorType kTypes[] = {
          ErrorType::kHelloFailed,   ErrorType::kBadRequest,
          ErrorType::kBadAction,     ErrorType::kBadInstruction,
          ErrorType::kBadMatch,      ErrorType::kFlowModFailed};
      envelope.message = ErrorMsg{kTypes[rng.below(std::size(kTypes))],
                                  static_cast<ErrorCode>(rng.below(10)),
                                  random_bytes(rng, 32)};
      break;
    }
    case 2: envelope.message = EchoRequest{random_bytes(rng, 64)}; break;
    case 3: envelope.message = EchoReply{random_bytes(rng, 64)}; break;
    case 4:
      envelope.message =
          PacketIn{static_cast<std::uint32_t>(rng.next()),
                   static_cast<std::uint8_t>(rng.next()),
                   rng.chance(0.5) ? PacketInReason::kNoMatch
                                   : PacketInReason::kAction,
                   static_cast<std::uint32_t>(rng.next()),
                   random_bytes(rng, 128)};
      break;
    case 5:
      envelope.message = PacketOut{static_cast<std::uint32_t>(rng.next()),
                                   static_cast<std::uint32_t>(rng.next()),
                                   random_actions(rng, 4),
                                   random_bytes(rng, 128)};
      break;
    case 6: {
      static constexpr FlowRemovedReason kReasons[] = {
          FlowRemovedReason::kIdleTimeout, FlowRemovedReason::kHardTimeout,
          FlowRemovedReason::kDelete};
      envelope.message = FlowRemovedMsg{static_cast<std::uint32_t>(rng.next()),
                                        static_cast<std::uint8_t>(rng.next()),
                                        kReasons[rng.below(3)], rng.next(),
                                        rng.next()};
      break;
    }
    case 7:
      envelope.message = RoleRequestMsg{random_role(rng), rng.next()};
      break;
    case 8:
      envelope.message = RoleReplyMsg{random_role(rng), rng.next()};
      break;
    case 9:
      envelope.message =
          ResyncRequestMsg{rng.chance(0.5), random_resync_entries(rng, 8)};
      break;
    case 10:
      envelope.message =
          ResyncReplyMsg{rng.chance(0.5), static_cast<std::uint32_t>(rng.next()),
                         random_resync_entries(rng, 8)};
      break;
    default: envelope.message = random_flow_mod(rng); break;
  }
  return envelope;
}

TEST(OfpCodec, PropertyRoundTripRandomized) {
  workload::Rng rng(20260808);
  for (int trial = 0; trial < 500; ++trial) {
    const auto envelope = random_envelope(rng);
    const auto bytes = encode(envelope);
    Envelope decoded;
    ASSERT_EQ(try_decode(bytes, decoded), DecodeStatus::kOk)
        << "trial " << trial;
    ASSERT_EQ(decoded, envelope) << "trial " << trial;
    // Re-encoding the decoded value must be byte-identical (canonical form).
    EXPECT_EQ(encode(decoded), bytes) << "trial " << trial;
  }
}

TEST(OfpCodec, TryDecodeTruncationAtEveryCutPoint) {
  workload::Rng rng(77);
  std::vector<Envelope> envelopes = {
      {1, Hello{}},
      {2, EchoRequest{{1, 2, 3}}},
      {3, ErrorMsg{ErrorType::kBadRequest, ErrorCode::kBadType, {9}}},
      {4, PacketIn{0xFFFFFFFF, 1, PacketInReason::kNoMatch, 7, {0xDE, 0xAD}}},
      {5, PacketOut{0xFFFFFFFF, 3, {OutputAction{4}, PopVlanAction{}}, {0xBE}}},
      {6, FlowRemovedMsg{99, 1, FlowRemovedReason::kIdleTimeout, 10, 640}},
      {7, sample_flow_mod()},
      {8, RoleRequestMsg{Role::kMaster, 0xDEADBEEFCAFEF00D}},
      {9, RoleReplyMsg{Role::kSlave, 1}},
      {10, ResyncRequestMsg{true, {{0, 1, 0xA}, {3, 0xFFFFFFFF, 0xB}}}},
      {11, ResyncReplyMsg{false, 7, {{1, 42, 0xC}}}},
  };
  for (int i = 0; i < 16; ++i) envelopes.push_back(random_envelope(rng));

  for (const auto& envelope : envelopes) {
    const auto bytes = encode(envelope);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      std::vector<std::uint8_t> prefix(bytes.begin(),
                                       bytes.begin() + static_cast<long>(cut));
      Envelope out;
      // Raw prefix: the header length field disagrees with the frame size
      // (or the header itself is short) — never kOk, never a throw.
      EXPECT_NE(try_decode(prefix, out), DecodeStatus::kOk) << "cut " << cut;
      // Prefix with the length field patched to match the truncated size:
      // the body itself is now short, and the decoder must say so.
      if (cut >= 4) {
        auto patched = prefix;
        patched[2] = static_cast<std::uint8_t>(cut >> 8);
        patched[3] = static_cast<std::uint8_t>(cut);
        const auto status = try_decode(patched, out);
        EXPECT_NE(status, DecodeStatus::kOk) << "patched cut " << cut;
        EXPECT_NE(status, DecodeStatus::kBadLength) << "patched cut " << cut;
      }
    }
  }
}

TEST(OfpCodec, TryDecodeRejectsBadLengthFields) {
  const auto bytes = encode({42, EchoRequest{{1, 2, 3}}});
  Envelope out;
  {
    auto oversized = bytes;  // claims more than was delivered
    const auto claim = bytes.size() + 10;
    oversized[2] = static_cast<std::uint8_t>(claim >> 8);
    oversized[3] = static_cast<std::uint8_t>(claim);
    EXPECT_EQ(try_decode(oversized, out), DecodeStatus::kBadLength);
  }
  {
    auto undersized = bytes;  // claims less than the header itself
    undersized[2] = 0;
    undersized[3] = 4;
    EXPECT_EQ(try_decode(undersized, out), DecodeStatus::kBadLength);
  }
  {
    auto trailing = bytes;  // valid frame + stray bytes appended
    trailing.push_back(0xCC);
    EXPECT_EQ(try_decode(trailing, out), DecodeStatus::kBadLength);
    // With the length field covering the junk, the parser must notice the
    // body does not consume it.
    const auto claim = trailing.size();
    trailing[2] = static_cast<std::uint8_t>(claim >> 8);
    trailing[3] = static_cast<std::uint8_t>(claim);
    EXPECT_EQ(try_decode(trailing, out), DecodeStatus::kTrailingBytes);
  }
  EXPECT_EQ(try_decode({}, out), DecodeStatus::kTruncated);
}

TEST(OfpCodec, TryDecodeMutationSweepNeverCrashes) {
  workload::Rng rng(5150);
  for (int trial = 0; trial < 2000; ++trial) {
    auto bytes = encode(random_envelope(rng));
    const int flips = 1 + static_cast<int>(rng.below(6));
    for (int i = 0; i < flips; ++i) {
      bytes[rng.below(bytes.size())] ^=
          static_cast<std::uint8_t>(1U << rng.below(8));
    }
    if (rng.chance(0.4)) {  // corrupt the length field specifically
      bytes[2 + rng.below(2)] = static_cast<std::uint8_t>(rng.next());
    }
    if (rng.chance(0.3)) bytes.resize(rng.below(bytes.size() + 1));
    Envelope out;
    const auto status = try_decode(bytes, out);  // must not crash or throw
    if (status == DecodeStatus::kOk) {
      (void)encode(out);  // whatever decodes must re-encode
    }
  }
}

// The agent is a stream endpoint like the served one: it opens with its own
// HELLO and serves nothing before the controller's.
void handshake(SwitchAgent& agent) {
  const auto responses = agent.handle_control(encode({1, Hello{}}));
  ASSERT_EQ(responses.size(), 1U);
  EXPECT_TRUE(std::holds_alternative<Hello>(decode(responses[0]).message));
  ASSERT_EQ(agent.session().state(), server::Session::State::kSteady);
}

TEST(SwitchAgent, HelloAndEcho) {
  SwitchAgent agent({{FieldId::kVlanId}});
  handshake(agent);

  const auto echo_responses =
      agent.handle_control(encode({6, EchoRequest{{9, 9}}}));
  ASSERT_EQ(echo_responses.size(), 1U);
  const auto reply = decode(echo_responses[0]);
  EXPECT_EQ(reply.xid, 6U);
  EXPECT_EQ(std::get<EchoReply>(reply.message).payload,
            (std::vector<std::uint8_t>{9, 9}));
}

TEST(SwitchAgent, ThreeThousandFlowModsInOneCallAllApply) {
  // 168,000 bytes in one handle_control call, more than the session's read
  // buffer holds at once: the session frames it in pieces.
  SwitchAgent agent({{FieldId::kVlanId}});
  handshake(agent);
  constexpr std::uint32_t kMods = 3000;
  std::vector<std::uint8_t> stream;
  for (std::uint32_t i = 0; i < kMods; ++i) {
    FlowModMsg mod;
    mod.entry.id = i + 1;
    mod.entry.priority = 1;
    mod.entry.match.set(FieldId::kVlanId, FieldMatch::exact(std::uint64_t{i}));
    mod.entry.instructions = output_instruction(1);
    const auto frame = encode({100 + i, mod});
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  ASSERT_GT(stream.size(), server::Session::kReadBufferCap);
  EXPECT_TRUE(agent.handle_control(stream, 1).empty());
  EXPECT_EQ(agent.model().entry_count(), kMods);
  EXPECT_EQ(agent.session().state(), server::Session::State::kSteady);
}

TEST(SwitchAgent, FrameSplitAcrossCallsIsAnsweredWhenComplete) {
  SwitchAgent agent({{FieldId::kVlanId}});
  handshake(agent);
  const auto bytes = encode({7, EchoRequest{{1, 2, 3}}});
  const std::vector<std::uint8_t> head(bytes.begin(), bytes.begin() + 5);
  const std::vector<std::uint8_t> tail(bytes.begin() + 5, bytes.end());
  EXPECT_TRUE(agent.handle_control(head).empty());
  const auto responses = agent.handle_control(tail);
  ASSERT_EQ(responses.size(), 1U);
  EXPECT_EQ(decode(responses[0]).xid, 7U);
}

std::vector<std::uint8_t> test_frame(std::uint16_t vlan, std::uint64_t dst) {
  PacketSpec spec;
  spec.eth_src = MacAddress{0x020000000001ULL};
  spec.eth_dst = MacAddress{dst};
  spec.vlan_id = vlan;
  spec.eth_type = static_cast<std::uint16_t>(EtherType::kIpv4);
  spec.ipv4_src = Ipv4Address{10, 0, 0, 1};
  spec.ipv4_dst = Ipv4Address{10, 0, 0, 2};
  spec.ip_proto = static_cast<std::uint8_t>(IpProto::kUdp);
  spec.src_port = 1000;
  spec.dst_port = 2000;
  return serialize_packet(spec);
}

TEST(SwitchAgent, FlowModInstallsAndPacketInOnMiss) {
  SwitchAgent agent({{FieldId::kVlanId, FieldId::kEthDst}});
  handshake(agent);

  // Miss first: PACKET_IN carrying the full frame.
  const auto frame = test_frame(100, 0x020000000002ULL);
  auto result = agent.handle_frame(frame, 7, 1);
  EXPECT_EQ(result.execution.verdict, Verdict::kToController);
  ASSERT_TRUE(result.packet_in.has_value());
  const auto packet_in = decode(*result.packet_in);
  const auto& msg = std::get<PacketIn>(packet_in.message);
  EXPECT_EQ(msg.in_port, 7U);
  EXPECT_EQ(msg.frame, frame);

  // Controller installs a flow for that destination.
  FlowModMsg mod;
  mod.entry.id = 1;
  mod.entry.priority = 1;
  mod.entry.match.set(FieldId::kVlanId, FieldMatch::exact(std::uint64_t{100}));
  mod.entry.match.set(FieldId::kEthDst,
                      FieldMatch::exact(std::uint64_t{0x020000000002ULL}));
  mod.entry.instructions = output_instruction(3);
  EXPECT_TRUE(agent.handle_control(encode({10, mod}), 2).empty());

  result = agent.handle_frame(frame, 7, 3);
  EXPECT_EQ(result.execution.verdict, Verdict::kForwarded);
  EXPECT_EQ(result.execution.output_ports, (std::vector<std::uint32_t>{3}));
  EXPECT_FALSE(result.packet_in.has_value());
}

TEST(SwitchAgent, FlowRemovedOnIdleExpiry) {
  SwitchAgent agent({{FieldId::kVlanId}});
  handshake(agent);
  FlowModMsg mod;
  mod.entry.id = 5;
  mod.entry.priority = 1;
  mod.entry.match.set(FieldId::kVlanId, FieldMatch::exact(std::uint64_t{10}));
  mod.entry.instructions = output_instruction(1);
  mod.timeouts.idle_timeout = 20;
  mod.send_flow_removed = true;
  (void)agent.handle_control(encode({11, mod}), 0);

  // Traffic at t=5 refreshes; nothing expires at t=20.
  const auto frame = test_frame(10, 0x020000000009ULL);
  (void)agent.handle_frame(frame, 1, 5);
  EXPECT_TRUE(agent.sweep(20).empty());

  const auto notifications = agent.sweep(30);
  ASSERT_EQ(notifications.size(), 1U);
  const auto envelope = decode(notifications[0]);
  const auto& removed = std::get<FlowRemovedMsg>(envelope.message);
  EXPECT_EQ(removed.entry_id, 5U);
  EXPECT_EQ(removed.reason, FlowRemovedReason::kIdleTimeout);
  EXPECT_EQ(removed.packets, 1U);
  EXPECT_EQ(removed.bytes, frame.size());
  EXPECT_EQ(agent.model().entry_count(), 0U);
}

TEST(SwitchAgent, FlowRemovedOnHardExpiryReportsHardTimeout) {
  SwitchAgent agent({{FieldId::kVlanId}});
  handshake(agent);
  FlowModMsg mod;
  mod.entry.id = 6;
  mod.entry.priority = 1;
  mod.entry.match.set(FieldId::kVlanId, FieldMatch::exact(std::uint64_t{10}));
  mod.entry.instructions = output_instruction(1);
  mod.timeouts.hard_timeout = 5;
  mod.send_flow_removed = true;
  EXPECT_TRUE(agent.handle_control(encode({11, mod}), 0).empty());

  const auto notifications = agent.sweep(10);
  ASSERT_EQ(notifications.size(), 1U);
  const auto envelope = decode(notifications[0]);
  const auto& removed = std::get<FlowRemovedMsg>(envelope.message);
  EXPECT_EQ(removed.entry_id, 6U);
  EXPECT_EQ(removed.reason, FlowRemovedReason::kHardTimeout);
  EXPECT_EQ(agent.model().entry_count(), 0U);
}

TEST(SwitchAgent, ModifyKeepsFlagsAndTimeoutsOfTheAdd) {
  // OpenFlow 1.3 section 6.4: a Modify changes the instructions only; the
  // entry's flags, timeouts and counters stay as the Add set them.
  SwitchAgent agent({{FieldId::kVlanId}});
  handshake(agent);
  const auto flow = [](FlowEntryId id, std::uint32_t port) {
    FlowModMsg mod;
    mod.entry.id = id;
    mod.entry.priority = 1;
    mod.entry.match.set(FieldId::kVlanId, FieldMatch::exact(std::uint64_t{id}));
    mod.entry.instructions = output_instruction(port);
    return mod;
  };

  // Added without the flag or a timeout: a Modify asking for both sets
  // neither, so nothing expires and the delete sends no FLOW_REMOVED.
  EXPECT_TRUE(agent.handle_control(encode({20, flow(1, 1)}), 0).empty());
  auto modify = flow(1, 2);
  modify.command = FlowModCommand::kModify;
  modify.send_flow_removed = true;
  modify.timeouts.hard_timeout = 5;
  EXPECT_TRUE(agent.handle_control(encode({21, modify}), 1).empty());
  EXPECT_TRUE(agent.sweep(10).empty());
  EXPECT_EQ(agent.model().entry_count(), 1U);
  FlowModMsg del;
  del.command = FlowModCommand::kDelete;
  del.entry.id = 1;
  EXPECT_TRUE(agent.handle_control(encode({22, del}), 11).empty());

  // Added with the flag and a hard timeout: a Modify without either keeps
  // both, so the timeout still fires and still notifies.
  auto add = flow(2, 1);
  add.send_flow_removed = true;
  add.timeouts.hard_timeout = 5;
  EXPECT_TRUE(agent.handle_control(encode({23, add}), 20).empty());
  modify = flow(2, 3);
  modify.command = FlowModCommand::kModify;
  EXPECT_TRUE(agent.handle_control(encode({24, modify}), 21).empty());
  const auto notifications = agent.sweep(30);
  ASSERT_EQ(notifications.size(), 1U);
  const auto envelope = decode(notifications[0]);
  const auto& removed = std::get<FlowRemovedMsg>(envelope.message);
  EXPECT_EQ(removed.entry_id, 2U);
  EXPECT_EQ(removed.reason, FlowRemovedReason::kHardTimeout);
}

TEST(SwitchAgent, DeleteWithNotification) {
  SwitchAgent agent({{FieldId::kVlanId}});
  handshake(agent);
  FlowModMsg mod;
  mod.entry.id = 8;
  mod.entry.priority = 1;
  mod.entry.match.set(FieldId::kVlanId, FieldMatch::exact(std::uint64_t{11}));
  mod.entry.instructions = output_instruction(2);
  mod.send_flow_removed = true;
  (void)agent.handle_control(encode({12, mod}), 0);

  FlowModMsg del;
  del.command = FlowModCommand::kDelete;
  del.entry.id = 8;
  const auto responses = agent.handle_control(encode({13, del}), 5);
  ASSERT_EQ(responses.size(), 1U);
  const auto envelope = decode(responses[0]);
  const auto& removed = std::get<FlowRemovedMsg>(envelope.message);
  EXPECT_EQ(removed.reason, FlowRemovedReason::kDelete);
}

TEST(SwitchAgent, FlowRemovedKeysByTableAndId) {
  // Id 8 in both tables: only table 0's flow asked for FLOW_REMOVED, so
  // deleting table 1's id 8 sends nothing, and table 0's delete still
  // reports its own table.
  SwitchAgent agent({{FieldId::kVlanId}, {FieldId::kEthDst}});
  handshake(agent);
  FlowModMsg t0;
  t0.entry.id = 8;
  t0.entry.priority = 1;
  t0.entry.match.set(FieldId::kVlanId, FieldMatch::exact(std::uint64_t{11}));
  t0.entry.instructions = goto_table_instruction(1);
  t0.send_flow_removed = true;
  EXPECT_TRUE(agent.handle_control(encode({14, t0}), 0).empty());
  FlowModMsg t1;
  t1.table_id = 1;
  t1.entry.id = 8;
  t1.entry.priority = 1;
  t1.entry.match.set(FieldId::kEthDst, FieldMatch::exact(std::uint64_t{0x0B}));
  t1.entry.instructions = output_instruction(2);
  EXPECT_TRUE(agent.handle_control(encode({15, t1}), 0).empty());

  FlowModMsg del;
  del.command = FlowModCommand::kDelete;
  del.table_id = 1;
  del.entry.id = 8;
  EXPECT_TRUE(agent.handle_control(encode({16, del}), 5).empty());
  del.table_id = 0;
  const auto responses = agent.handle_control(encode({17, del}), 6);
  ASSERT_EQ(responses.size(), 1U);
  const auto envelope = decode(responses[0]);
  const auto& removed = std::get<FlowRemovedMsg>(envelope.message);
  EXPECT_EQ(removed.entry_id, 8U);
  EXPECT_EQ(removed.table_id, 0U);
  EXPECT_EQ(removed.reason, FlowRemovedReason::kDelete);
  EXPECT_EQ(agent.model().entry_count(), 0U);
}

// --- Robustness regressions: malformed control bytes answer with ERROR ---

// Pull the ErrorMsg out of an encoded response, failing the test otherwise.
ErrorMsg expect_error(const std::vector<std::vector<std::uint8_t>>& responses) {
  EXPECT_EQ(responses.size(), 1U);
  if (responses.size() != 1) return {};
  const auto envelope = decode(responses[0]);
  const auto* error = std::get_if<ErrorMsg>(&envelope.message);
  EXPECT_NE(error, nullptr);
  return error == nullptr ? ErrorMsg{} : *error;
}

TEST(SwitchAgent, TruncatedControlAtEveryCutPointAnswersError) {
  // Each prefix, its length field patched to the cut, is a complete frame
  // whose body ends early: an ERROR, never a throw, never silence. (A raw
  // prefix is an incomplete frame that waits for more bytes, and a length
  // below the header size is a framing desync: see the Session suite.)
  const auto frames = {encode({22, sample_flow_mod()}),
                       encode({23, EchoRequest{{7, 7}}})};
  for (const auto& bytes : frames) {
    for (std::size_t cut = kHeaderSize; cut < bytes.size(); ++cut) {
      SwitchAgent agent({{FieldId::kVlanId}});
      handshake(agent);
      std::vector<std::uint8_t> patched(bytes.begin(),
                                        bytes.begin() + static_cast<long>(cut));
      patched[2] = static_cast<std::uint8_t>(cut >> 8);
      patched[3] = static_cast<std::uint8_t>(cut);
      const auto error = expect_error(agent.handle_control(patched));
      EXPECT_EQ(error.type, ErrorType::kBadRequest) << "cut " << cut;
      EXPECT_EQ(error.code, ErrorCode::kTruncated) << "cut " << cut;
      EXPECT_EQ(agent.model().entry_count(), 0U);
    }
  }
}

TEST(SwitchAgent, DuplicateAddAnswersErrorWithoutStateChange) {
  SwitchAgent agent({{FieldId::kVlanId}});
  handshake(agent);
  FlowModMsg mod;
  mod.entry.id = 3;
  mod.entry.priority = 1;
  mod.entry.match.set(FieldId::kVlanId, FieldMatch::exact(std::uint64_t{7}));
  mod.entry.instructions = output_instruction(1);
  EXPECT_TRUE(agent.handle_control(encode({40, mod}), 0).empty());
  EXPECT_EQ(agent.model().entry_count(), 1U);

  const auto error = expect_error(agent.handle_control(encode({41, mod}), 1));
  EXPECT_EQ(error.type, ErrorType::kFlowModFailed);
  EXPECT_EQ(error.code, ErrorCode::kDuplicateEntry);
  EXPECT_EQ(agent.model().entry_count(), 1U);
}

TEST(SwitchAgent, RoleClaimsAreFencedAndSlaveIsReadOnly) {
  SwitchAgent agent({{FieldId::kEthDst}});
  handshake(agent);
  EXPECT_EQ(agent.role(), Role::kEqual);

  auto responses =
      agent.handle_control(encode({1, RoleRequestMsg{Role::kMaster, 10}}));
  ASSERT_EQ(responses.size(), 1U);
  auto reply = decode(responses[0]);
  EXPECT_EQ(std::get<RoleReplyMsg>(reply.message).role, Role::kMaster);
  EXPECT_EQ(std::get<RoleReplyMsg>(reply.message).generation_id, 10U);

  // A stale generation cannot demote the channel (fenced ex-master shape).
  const auto error = expect_error(
      agent.handle_control(encode({2, RoleRequestMsg{Role::kSlave, 9}})));
  EXPECT_EQ(error.type, ErrorType::kRoleRequestFailed);
  EXPECT_EQ(error.code, ErrorCode::kStale);
  EXPECT_EQ(agent.role(), Role::kMaster);

  // NOCHANGE is a pure query at any generation.
  responses =
      agent.handle_control(encode({3, RoleRequestMsg{Role::kNoChange, 0}}));
  ASSERT_EQ(responses.size(), 1U);
  EXPECT_EQ(std::get<RoleReplyMsg>(decode(responses[0]).message).role,
            Role::kMaster);

  // Demote to slave with a fresh generation: flow-mods are now rejected.
  responses =
      agent.handle_control(encode({4, RoleRequestMsg{Role::kSlave, 11}}));
  ASSERT_EQ(responses.size(), 1U);
  EXPECT_EQ(agent.role(), Role::kSlave);
  FlowModMsg mod;
  mod.command = FlowModCommand::kAdd;
  mod.entry.id = 1;
  mod.entry.match.set(FieldId::kEthDst, FieldMatch::exact(std::uint64_t{1}));
  const auto rejected = expect_error(agent.handle_control(encode({5, mod})));
  EXPECT_EQ(rejected.type, ErrorType::kFlowModFailed);
  EXPECT_EQ(rejected.code, ErrorCode::kIsSlave);
  EXPECT_EQ(agent.model().entry_count(), 0U);
}

TEST(SwitchAgent, UnexpectedInboundTypeAnswersError) {
  SwitchAgent agent({{FieldId::kVlanId}});
  handshake(agent);
  // PACKET_IN flows switch->controller; arriving inbound it is a violation.
  const auto error = expect_error(agent.handle_control(
      encode({50, PacketIn{0xFFFFFFFF, 0, PacketInReason::kNoMatch, 1, {}}})));
  EXPECT_EQ(error.type, ErrorType::kBadRequest);
  EXPECT_EQ(error.code, ErrorCode::kBadType);
}

TEST(SwitchAgent, MalformedDataFramesAreDroppedWithoutSideEffects) {
  // Every truncation and a seeded byte-mutation sweep of a frame the
  // installed flow matches: no frame throws, and each one the parser
  // rejects comes back dropped, with no PACKET_IN and no counter moved.
  SwitchAgent agent({{FieldId::kVlanId}});
  handshake(agent);
  FlowModMsg mod;
  mod.entry.id = 1;
  mod.entry.priority = 1;
  mod.entry.match.set(FieldId::kVlanId, FieldMatch::exact(std::uint64_t{10}));
  mod.entry.instructions = output_instruction(1);
  EXPECT_TRUE(agent.handle_control(encode({70, mod}), 0).empty());
  const auto frame = test_frame(10, 0x020000000009ULL);

  std::size_t rejected = 0;
  const auto check = [&](const std::vector<std::uint8_t>& bytes) {
    PacketHeader header;
    const bool parses = parse_packet_header(bytes, 1, header);
    const auto before = agent.model().stats().find({0, 1})->packets;
    SwitchAgent::DataResult result;
    EXPECT_NO_THROW(result = agent.handle_frame(bytes, 1, 1));
    if (parses) return;
    rejected++;
    EXPECT_EQ(result.execution.verdict, Verdict::kDropped);
    EXPECT_TRUE(result.execution.visited_tables.empty());
    EXPECT_FALSE(result.packet_in.has_value());
    EXPECT_EQ(agent.model().stats().find({0, 1})->packets, before);
  };
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    check({frame.begin(), frame.begin() + static_cast<long>(cut)});
  }
  workload::Rng rng(2024);
  for (int trial = 0; trial < 2000; ++trial) {
    auto bytes = frame;
    const int flips = 1 + static_cast<int>(rng.below(4));
    for (int i = 0; i < flips; ++i) {
      bytes[rng.below(bytes.size())] = static_cast<std::uint8_t>(rng.next());
    }
    check(bytes);
  }
  EXPECT_GT(rejected, frame.size() / 2);
}

TEST(SwitchAgent, PacketOutWithUnparseableFrameAnswersError) {
  SwitchAgent agent({{FieldId::kVlanId}});
  handshake(agent);
  const auto error = expect_error(agent.handle_control(
      encode({60, PacketOut{0xFFFFFFFF, 1, {}, {0xDE, 0xAD}}})));
  EXPECT_EQ(error.type, ErrorType::kBadRequest);
  EXPECT_EQ(error.code, ErrorCode::kBadValue);
}

}  // namespace
}  // namespace ofmtl::ofp
