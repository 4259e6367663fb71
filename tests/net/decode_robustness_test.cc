// Decoder robustness: NetMessage::decode over randomized byte strings must
// either produce a message or throw CodecError -- never crash or read out
// of bounds.  A seeded pseudo-fuzz sweep (deterministic, so failures are
// reproducible by seed).
#include <gtest/gtest.h>

#include "net/message.h"
#include "sim/rng.h"

namespace ugrpc::net {
namespace {

class DecodeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecodeFuzz, RandomBytesNeverCrashTheDecoder) {
  sim::Rng rng(GetParam());
  for (int iter = 0; iter < 2000; ++iter) {
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 128));
    Buffer junk;
    for (std::size_t i = 0; i < len; ++i) {
      junk.push_back(static_cast<std::byte>(rng.uniform_int(0, 255)));
    }
    try {
      const NetMessage m = NetMessage::decode(junk);
      // If it decoded, re-encoding must be stable for the decoded view.
      const NetMessage again = NetMessage::decode(m.encode());
      EXPECT_EQ(again, m);
    } catch (const CodecError&) {
      // expected for malformed input
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecodeFuzz, ::testing::Values(1, 2, 3, 4, 5));

TEST(DecodeFuzz, TruncationSweepOfValidMessage) {
  NetMessage m;
  m.type = MsgType::kReply;
  m.id = CallId{77};
  Writer(m.args).str("payload");
  m.ackid = 5;
  const Buffer wire = m.encode();
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    Buffer prefix;
    prefix.append(wire.bytes().subspan(0, cut));
    EXPECT_THROW((void)NetMessage::decode(prefix), CodecError) << "cut at " << cut;
  }
  EXPECT_NO_THROW((void)NetMessage::decode(wire));
}

TEST(DecodeFuzz, BitflipSweepOfValidMessage) {
  NetMessage m;
  m.type = MsgType::kCall;
  m.id = CallId{123};
  Writer(m.args).u32(99);
  const Buffer wire = m.encode();
  for (std::size_t i = 0; i < wire.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      Buffer mutated;
      mutated.append(wire.bytes());
      // flip one bit
      std::vector<std::byte> bytes(mutated.bytes().begin(), mutated.bytes().end());
      bytes[i] ^= static_cast<std::byte>(1u << bit);
      Buffer flipped(std::move(bytes));
      try {
        (void)NetMessage::decode(flipped);
      } catch (const CodecError&) {
        // fine
      }
    }
  }
  SUCCEED();
}

TEST(DecodeFuzz, AckWithArgsIsMalformed) {
  NetMessage ack;
  ack.type = MsgType::kAck;
  ack.ackid = 5;
  EXPECT_EQ(NetMessage::decode(ack.encode()), ack);
  // An ACK carries one watermark and no args.  A count of extra ids with
  // fewer ids behind it, a well-formed list of them, or a single stray
  // byte all make it malformed.
  Writer w(ack.args);
  w.u32(0xFFFFFFF0u);
  w.u64(7);
  EXPECT_THROW((void)NetMessage::decode(ack.encode()), CodecError);
  ack.args = Buffer{};
  Writer list(ack.args);
  list.u32(2);
  list.u64(8);
  list.u64(9);
  EXPECT_THROW((void)NetMessage::decode(ack.encode()), CodecError);
  ack.args = Buffer{};
  ack.args.push_back(std::byte{0});
  EXPECT_THROW((void)NetMessage::decode(ack.encode()), CodecError);
}

}  // namespace
}  // namespace ugrpc::net
