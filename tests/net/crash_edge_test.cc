// Pins the fabric's crash-edge semantics (documented in net/network.h):
// what happens to packets that are in flight when their destination goes
// down, when the handler that should receive them is swapped out, or when
// the attachment itself disappears.  These are deliberate contracts -- the
// recovery and membership protocols depend on them -- so changes here are
// semantic changes, not refactors.
#include <gtest/gtest.h>

#include <vector>

#include "net/network.h"

namespace ugrpc::net {
namespace {

constexpr ProtocolId kProto{7};
constexpr ProcessId kA{1};
constexpr ProcessId kB{2};

struct Fixture {
  sim::Scheduler sched{42};
  Network net{sched};
};

Buffer make_payload(std::uint32_t tag) {
  Buffer b;
  Writer(b).u32(tag);
  return b;
}

PacketHandler record_into(std::vector<Packet>& sink) {
  return [&sink](Packet p) -> sim::Task<> {
    sink.push_back(std::move(p));
    co_return;
  };
}

TEST(CrashEdge, InFlightPacketDroppedWhenDestinationGoesDown) {
  Fixture f;
  Endpoint& a = f.net.attach(kA, DomainId{1});
  Endpoint& b = f.net.attach(kB, DomainId{2});
  std::vector<Packet> received;
  b.set_handler(kProto, record_into(received));
  a.send(kB, kProto, make_payload(1));
  // The packet is on the wire (transmit already counted it as sent) when
  // the destination crashes: going down races ahead of delivery.
  f.net.set_process_up(kB, false);
  f.sched.run();
  EXPECT_TRUE(received.empty());
  EXPECT_EQ(f.net.stats().sent, 1u);
  EXPECT_EQ(f.net.stats().delivered, 0u);
  EXPECT_EQ(f.net.stats().dropped, 1u);
}

TEST(CrashEdge, RecoveredDestinationReceivesPacketsSentAfterRecovery) {
  Fixture f;
  Endpoint& a = f.net.attach(kA, DomainId{1});
  Endpoint& b = f.net.attach(kB, DomainId{2});
  std::vector<Packet> received;
  b.set_handler(kProto, record_into(received));
  f.net.set_process_up(kB, false);
  a.send(kB, kProto, make_payload(1));  // dropped: destination is down
  f.sched.run();
  f.net.set_process_up(kB, true);
  a.send(kB, kProto, make_payload(2));
  f.sched.run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(Reader(received[0].payload).u32(), 2u);
}

TEST(CrashEdge, HandlerReplacedBetweenSendAndDeliveryGetsNewRegistration) {
  Fixture f;
  Endpoint& a = f.net.attach(kA, DomainId{1});
  Endpoint& b = f.net.attach(kB, DomainId{2});
  std::vector<Packet> old_sink;
  std::vector<Packet> new_sink;
  b.set_handler(kProto, record_into(old_sink));
  a.send(kB, kProto, make_payload(9));
  // Demux happens at delivery time, not send time: a handler swapped in
  // while the packet is in flight receives it.
  b.set_handler(kProto, record_into(new_sink));
  f.sched.run();
  EXPECT_TRUE(old_sink.empty());
  ASSERT_EQ(new_sink.size(), 1u);
  EXPECT_EQ(Reader(new_sink[0].payload).u32(), 9u);
}

TEST(CrashEdge, ExecutingHandlerCompletesOnOldClosureAfterReplacement) {
  Fixture f;
  Endpoint& a = f.net.attach(kA, DomainId{1});
  Endpoint& b = f.net.attach(kB, DomainId{2});
  int old_completed = 0;
  int new_started = 0;
  // The first handler suspends mid-execution; while it sleeps the
  // registration is replaced.  The in-progress activation must finish on
  // the closure it started with (the delivery fiber pins the old handler
  // object alive), while the next packet demuxes to the replacement.
  b.set_handler(kProto, [&](Packet) -> sim::Task<> {
    co_await f.sched.sleep_for(sim::msec(10));
    ++old_completed;
  });
  a.send(kB, kProto, make_payload(1));
  f.sched.schedule_after(sim::msec(2), [&] {
    b.set_handler(kProto, [&](Packet) -> sim::Task<> {
      ++new_started;
      co_return;
    });
    a.send(kB, kProto, make_payload(2));
  });
  f.sched.run();
  EXPECT_EQ(old_completed, 1);
  EXPECT_EQ(new_started, 1);
}

TEST(CrashEdge, DetachDropsInFlightPackets) {
  Fixture f;
  Endpoint& a = f.net.attach(kA, DomainId{1});
  Endpoint& b = f.net.attach(kB, DomainId{2});
  std::vector<Packet> received;
  b.set_handler(kProto, record_into(received));
  a.send(kB, kProto, make_payload(1));
  f.net.detach(kB);  // invalidates &b; in-flight packet dies at delivery
  f.sched.run();
  EXPECT_TRUE(received.empty());
  EXPECT_EQ(f.net.stats().dropped, 1u);
}

TEST(CrashEdge, ReattachAfterDetachStartsWithEmptyDemuxTable) {
  Fixture f;
  Endpoint& a = f.net.attach(kA, DomainId{1});
  {
    Endpoint& b = f.net.attach(kB, DomainId{2});
    b.set_handler(kProto, [](Packet) -> sim::Task<> { co_return; });
  }
  f.net.detach(kB);
  Endpoint& b2 = f.net.attach(kB, DomainId{2});
  EXPECT_EQ(b2.handler(kProto), nullptr) << "re-attach must not inherit old handlers";
  // With no handler registered, delivery drops the packet (counted).
  a.send(kB, kProto, make_payload(1));
  f.sched.run();
  EXPECT_EQ(f.net.stats().delivered, 0u);
  EXPECT_EQ(f.net.stats().dropped, 1u);
}

TEST(CrashEdge, SendToUnattachedProcessCountsUnroutable) {
  Fixture f;
  Endpoint& a = f.net.attach(kA, DomainId{1});
  a.send(ProcessId{99}, kProto, make_payload(1));
  f.sched.run();
  EXPECT_EQ(f.net.stats().unroutable, 1u);
  EXPECT_EQ(f.net.stats().sent, 0u) << "unroutable packets never reach the wire";
  EXPECT_EQ(f.net.stats().dropped, 0u);
}

TEST(CrashEdge, MulticastToUndefinedGroupCountsUnroutable) {
  Fixture f;
  Endpoint& a = f.net.attach(kA, DomainId{1});
  a.multicast(GroupId{9}, kProto, make_payload(1));
  f.sched.run();
  EXPECT_EQ(f.net.stats().unroutable, 1u);
  EXPECT_EQ(f.net.stats().sent, 0u);
}

TEST(CrashEdge, ByteAndLinkCountersTrackTraffic) {
  Fixture f;
  Endpoint& a = f.net.attach(kA, DomainId{1});
  Endpoint& b = f.net.attach(kB, DomainId{2});
  std::vector<Packet> received;
  b.set_handler(kProto, record_into(received));
  const Buffer payload = make_payload(5);  // 4 bytes
  a.send(kB, kProto, payload);
  a.send(kB, kProto, payload);
  f.sched.run();
  EXPECT_EQ(f.net.stats().bytes_sent, 2 * payload.size());
  EXPECT_EQ(f.net.stats().bytes_delivered, 2 * payload.size());
}

// The same crash edges hold when the Network is reached through the
// Transport seam the protocol stack actually uses.
TEST(CrashEdge, TransportSeamExposesIdenticalCrashSemantics) {
  Fixture f;
  Transport& t = f.net;
  Endpoint& a = t.attach(kA, DomainId{1});
  Endpoint& b = t.attach(kB, DomainId{2});
  std::vector<Packet> received;
  b.set_handler(kProto, record_into(received));
  a.send(kB, kProto, make_payload(1));
  t.set_process_up(kB, false);
  f.sched.run();
  EXPECT_TRUE(received.empty());
  EXPECT_EQ(t.stats().dropped, 1u);
}

}  // namespace
}  // namespace ugrpc::net
