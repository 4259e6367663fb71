// Decoder robustness: NetMessage::decode over randomized byte strings must
// either produce a message or throw CodecError -- never crash or read out
// of bounds.  A seeded pseudo-fuzz sweep (deterministic, so failures are
// reproducible by seed).  An Order that carries a Call, damaged, goes to a
// Total Order follower that decodes the Call it carries.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "core/config_builder.h"
#include "core/micro/acceptance.h"
#include "core/micro/total_order.h"
#include "core/scenario.h"
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

// ---- an Order carrying a Call, at a follower that lost the Call ----

core::ScenarioParams total_order_group() {
  core::ScenarioParams p;
  p.num_servers = 2;  // server 1 leads, server 0 follows
  p.num_clients = 2;  // client 0's call; client 1 sends the Orders
  p.config = core::ConfigBuilder::at_most_once().total_order().acceptance_limit(core::kAll).build();
  return p;
}

/// Client 0's first Call to the group of `s`.
NetMessage first_call(const core::Scenario& s) {
  NetMessage call;
  call.type = MsgType::kCall;
  call.id = core::make_call_id(s.client_id(0), core::first_seq_of_incarnation(1));
  call.op = OpId{1};
  Writer(call.args).u64(0x0123456789abcdef);
  call.server = s.group();
  call.sender = s.client_id(0);
  call.inc = 1;
  call.ackid = call.id.value();
  return call;
}

/// The leader's first Order, assigning order 1 to `call` and carrying
/// `embedded` as its Call.
NetMessage order_for(const core::Scenario& s, const NetMessage& call,
                     std::span<const std::byte> embedded) {
  NetMessage order;
  order.type = MsgType::kOrder;
  order.id = call.id;
  order.server = s.group();
  order.sender = core::Scenario::server_id(1);
  order.inc = 1;
  order.ackid = 1;
  Writer w(order.args);
  w.u64(0);  // no predecessor
  w.u64(0);
  w.raw(embedded);
  return order;
}

struct AtFollower {
  std::uint64_t malformed = 0;
  std::size_t orders = 0;       ///< assignments the follower knows
  std::uint64_t executions = 0;
};

/// Delivers `wire` to the follower of a fresh group that has seen nothing
/// of client 0's call, and reports what it made of it.
AtFollower deliver_to_follower(const std::function<Buffer(core::Scenario&)>& wire) {
  core::Scenario s(total_order_group());
  core::Site& follower = s.server(0);
  s.client_site(1).grpc().state().endpoint.send(core::Scenario::server_id(0), core::kGrpcProto,
                                                wire(s));
  s.run_for(sim::msec(10));
  return {follower.grpc().state().malformed.count(), follower.grpc().total()->old_orders(),
          follower.total_executions()};
}

TEST(DecodeFuzz, TruncationSweepOfTheCallAnOrderCarries) {
  const AtFollower whole = deliver_to_follower([](core::Scenario& s) {
    const NetMessage call = first_call(s);
    return order_for(s, call, call.encode().bytes()).encode();
  });
  EXPECT_EQ(whole.malformed, 0u);
  EXPECT_EQ(whole.executions, 1u) << "the follower did not run the Call its Order carries";
  const std::size_t call_bytes = [] {
    core::Scenario s(total_order_group());
    return first_call(s).encode().size();
  }();
  // Each cut Call is framed as a whole field, so only its decoding fails.
  for (std::size_t cut = 0; cut < call_bytes; ++cut) {
    const AtFollower got = deliver_to_follower([cut](core::Scenario& s) {
      const NetMessage call = first_call(s);
      return order_for(s, call, call.encode().bytes().subspan(0, cut)).encode();
    });
    EXPECT_EQ(got.malformed, 1u) << "cut at " << cut;
    EXPECT_EQ(got.orders, 0u) << "cut at " << cut;
    EXPECT_EQ(got.executions, 0u) << "cut at " << cut;
  }
}

TEST(DecodeFuzz, BitflipSweepOfAnOrderCarryingACall) {
  std::size_t wire_bytes = 0;
  {
    core::Scenario s(total_order_group());
    const NetMessage call = first_call(s);
    wire_bytes = order_for(s, call, call.encode().bytes()).encode().size();
  }
  int dropped = 0;
  for (std::size_t i = 0; i < wire_bytes; ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      const AtFollower got = deliver_to_follower([i, bit](core::Scenario& s) {
        const NetMessage call = first_call(s);
        const Buffer wire = order_for(s, call, call.encode().bytes()).encode();
        std::vector<std::byte> bytes(wire.bytes().begin(), wire.bytes().end());
        bytes[i] ^= static_cast<std::byte>(1u << bit);
        return Buffer(bytes);
      });
      // Dropped and counted, teaching nothing; or taken as some message.
      if (got.malformed != 0) {
        ++dropped;
        EXPECT_EQ(got.malformed, 1u) << "byte " << i << " bit " << bit;
        EXPECT_EQ(got.orders, 0u) << "byte " << i << " bit " << bit;
        EXPECT_EQ(got.executions, 0u) << "byte " << i << " bit " << bit;
      }
      EXPECT_LE(got.executions, 1u) << "byte " << i << " bit " << bit;
    }
  }
  EXPECT_GT(dropped, 0);
}

}  // namespace
}  // namespace ugrpc::net
