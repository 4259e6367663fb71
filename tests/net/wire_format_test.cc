// Golden wire-format tests: the exact byte layout of NetMessage is a
// compatibility contract (checkpoints and any future cross-version traffic
// depend on it).  If one of these fails, the wire format changed -- bump a
// version, do not silently re-golden.  The last tests pin that decoding
// shares the payload's bytes instead of copying the arguments out.
#include <gtest/gtest.h>

#include <array>

#include "net/message.h"

namespace ugrpc::net {
namespace {

std::vector<std::uint8_t> bytes_of(const Buffer& b) {
  std::vector<std::uint8_t> out;
  for (std::byte x : b.bytes()) out.push_back(static_cast<std::uint8_t>(x));
  return out;
}

TEST(WireFormat, EmptyCallMessageGolden) {
  NetMessage m;  // all fields zero, type kCall, empty args
  const std::vector<std::uint8_t> expected = {
      0x00,                                            // type = Call
      0, 0, 0, 0, 0, 0, 0, 0,                          // id (u64 LE)
      0, 0, 0, 0,                                      // op (u32)
      0, 0, 0, 0,                                      // args length prefix (u32) = 0
      0, 0, 0, 0,                                      // server (u32)
      0, 0, 0, 0,                                      // sender (u32)
      0, 0, 0, 0,                                      // inc (u32)
      0, 0, 0, 0, 0, 0, 0, 0,                          // ackid (u64)
  };
  EXPECT_EQ(bytes_of(m.encode()), expected);
}

TEST(WireFormat, PopulatedReplyGolden) {
  NetMessage m;
  m.type = MsgType::kReply;
  m.id = CallId{0x0102030405060708ULL};
  m.op = OpId{0xAABBCCDDu};
  Writer(m.args).u8(0x5A);
  m.server = GroupId{7};
  m.sender = ProcessId{9};
  m.inc = 3;
  m.ackid = 0x1122334455667788ULL;
  const std::vector<std::uint8_t> expected = {
      0x01,                                            // type = Reply
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // id little-endian
      0xDD, 0xCC, 0xBB, 0xAA,                          // op
      0x01, 0x00, 0x00, 0x00,                          // args length = 1
      0x5A,                                            // args payload
      0x07, 0x00, 0x00, 0x00,                          // server
      0x09, 0x00, 0x00, 0x00,                          // sender
      0x03, 0x00, 0x00, 0x00,                          // inc
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // ackid
  };
  EXPECT_EQ(bytes_of(m.encode()), expected);
}

TEST(WireFormat, MessageSizeIsHeaderPlusArgs) {
  NetMessage m;
  EXPECT_EQ(m.encode().size(), 37u);  // fixed header incl. empty-args prefix
  Writer(m.args).str("0123456789");
  EXPECT_EQ(m.encode().size(), 37u + 4u + 10u);  // + string length prefix + chars
}

TEST(WireFormat, AllMessageTypesRoundTrip) {
  for (auto t : {MsgType::kCall, MsgType::kReply, MsgType::kAck, MsgType::kOrder,
                 MsgType::kOrderQuery, MsgType::kOrderInfo}) {
    NetMessage m;
    m.type = t;
    m.id = CallId{42};
    EXPECT_EQ(NetMessage::decode(m.encode()), m) << to_string(t);
  }
}

TEST(WireFormat, DecodeIgnoresNothingRejectsTrailingGarbage) {
  // Current contract: trailing bytes after a well-formed message are
  // tolerated (the reader simply stops).  Pin that behaviour.
  NetMessage m;
  Buffer wire = m.encode();
  wire.push_back(std::byte{0xFF});
  EXPECT_EQ(NetMessage::decode(wire), m);
}

// ---- zero-copy decode ----

TEST(MessageDecode, ArgsAreASliceOfThePayload) {
  NetMessage m;
  m.type = MsgType::kReply;
  Writer(m.args).str("result bytes");
  const Buffer payload = m.encode();
  const NetMessage decoded = NetMessage::decode(payload);
  const auto args = decoded.args.bytes();
  const auto wire = payload.bytes();
  ASSERT_FALSE(args.empty());
  EXPECT_GE(args.data(), wire.data());
  EXPECT_LE(args.data() + args.size(), wire.data() + wire.size());
  EXPECT_EQ(decoded, m);
}

TEST(MessageDecode, WritingToDecodedArgsLeavesThePayloadUnchanged) {
  NetMessage m;
  Writer(m.args).str("request");
  const Buffer payload = m.encode();
  const std::vector<std::uint8_t> sent = bytes_of(payload);
  NetMessage decoded = NetMessage::decode(payload);
  // What a server procedure does: write its results in place.
  decoded.args.overwrite(4, std::array{std::byte{'R'}});
  Writer(decoded.args).u64(99);
  EXPECT_EQ(bytes_of(payload), sent);
  EXPECT_EQ(NetMessage::decode(payload), m);
}

}  // namespace
}  // namespace ugrpc::net
