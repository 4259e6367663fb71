// Unit tests for the simulated network fabric: delivery, demux, faults,
// groups, and crash behaviour.
#include "net/network.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/log.h"
#include "net/message.h"

namespace ugrpc::net {
namespace {

constexpr ProtocolId kProto{7};
constexpr ProtocolId kOtherProto{8};

struct Fixture {
  sim::Scheduler sched{42};
  Network net{sched};
};

Buffer make_payload(std::uint32_t tag) {
  Buffer b;
  Writer(b).u32(tag);
  return b;
}

std::uint32_t payload_tag(const Buffer& b) { return Reader(b).u32(); }

PacketHandler record_into(std::vector<Packet>& sink) {
  return [&sink](Packet p) -> sim::Task<> {
    sink.push_back(std::move(p));
    co_return;
  };
}

TEST(Network, DeliversPointToPointWithDelay) {
  Fixture f;
  Endpoint& a = f.net.attach(ProcessId{1}, DomainId{1});
  Endpoint& b = f.net.attach(ProcessId{2}, DomainId{2});
  std::vector<Packet> received;
  b.set_handler(kProto, record_into(received));
  a.send(ProcessId{2}, kProto, make_payload(99));
  EXPECT_TRUE(received.empty()) << "delivery must not be synchronous";
  f.sched.run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].src, ProcessId{1});
  EXPECT_EQ(received[0].dst, ProcessId{2});
  EXPECT_EQ(payload_tag(received[0].payload), 99u);
  EXPECT_GE(f.sched.now(), sim::usec(100));
  EXPECT_LE(f.sched.now(), sim::usec(500));
}

TEST(Network, DemuxesByProtocolId) {
  Fixture f;
  Endpoint& a = f.net.attach(ProcessId{1}, DomainId{1});
  Endpoint& b = f.net.attach(ProcessId{2}, DomainId{2});
  std::vector<Packet> proto_msgs;
  std::vector<Packet> other_msgs;
  b.set_handler(kProto, record_into(proto_msgs));
  b.set_handler(kOtherProto, record_into(other_msgs));
  a.send(ProcessId{2}, kProto, make_payload(1));
  a.send(ProcessId{2}, kOtherProto, make_payload(2));
  f.sched.run();
  ASSERT_EQ(proto_msgs.size(), 1u);
  ASSERT_EQ(other_msgs.size(), 1u);
  EXPECT_EQ(payload_tag(proto_msgs[0].payload), 1u);
  EXPECT_EQ(payload_tag(other_msgs[0].payload), 2u);
}

TEST(Network, PacketWithoutHandlerIsDropped) {
  Fixture f;
  Endpoint& a = f.net.attach(ProcessId{1}, DomainId{1});
  f.net.attach(ProcessId{2}, DomainId{2});
  a.send(ProcessId{2}, kProto, make_payload(1));
  f.sched.run();
  EXPECT_EQ(f.net.stats().dropped, 1u);
  EXPECT_EQ(f.net.stats().delivered, 0u);
}

TEST(Network, MulticastReachesAllGroupMembers) {
  Fixture f;
  Endpoint& client = f.net.attach(ProcessId{1}, DomainId{1});
  std::vector<Packet> r2;
  std::vector<Packet> r3;
  std::vector<Packet> r4;
  f.net.attach(ProcessId{2}, DomainId{2}).set_handler(kProto, record_into(r2));
  f.net.attach(ProcessId{3}, DomainId{3}).set_handler(kProto, record_into(r3));
  f.net.attach(ProcessId{4}, DomainId{4}).set_handler(kProto, record_into(r4));
  f.net.define_group(GroupId{10}, {ProcessId{2}, ProcessId{3}, ProcessId{4}});
  client.multicast(GroupId{10}, kProto, make_payload(5));
  f.sched.run();
  EXPECT_EQ(r2.size(), 1u);
  EXPECT_EQ(r3.size(), 1u);
  EXPECT_EQ(r4.size(), 1u);
}

TEST(Network, DropProbabilityOneLosesEverything) {
  Fixture f;
  Endpoint& a = f.net.attach(ProcessId{1}, DomainId{1});
  std::vector<Packet> received;
  f.net.attach(ProcessId{2}, DomainId{2}).set_handler(kProto, record_into(received));
  FaultSpec lossy;
  lossy.drop_prob = 1.0;
  f.net.set_default_faults(lossy);
  for (int i = 0; i < 20; ++i) a.send(ProcessId{2}, kProto, make_payload(1));
  f.sched.run();
  EXPECT_TRUE(received.empty());
  EXPECT_EQ(f.net.stats().dropped, 20u);
}

TEST(Network, DropProbabilityIsRoughlyHonoured) {
  Fixture f;
  Endpoint& a = f.net.attach(ProcessId{1}, DomainId{1});
  std::vector<Packet> received;
  f.net.attach(ProcessId{2}, DomainId{2}).set_handler(kProto, record_into(received));
  FaultSpec lossy;
  lossy.drop_prob = 0.25;
  f.net.set_default_faults(lossy);
  const int n = 4000;
  for (int i = 0; i < n; ++i) a.send(ProcessId{2}, kProto, make_payload(1));
  f.sched.run();
  const double loss = 1.0 - static_cast<double>(received.size()) / n;
  EXPECT_NEAR(loss, 0.25, 0.05);
}

TEST(Network, DuplicationDeliversTwice) {
  Fixture f;
  Endpoint& a = f.net.attach(ProcessId{1}, DomainId{1});
  std::vector<Packet> received;
  f.net.attach(ProcessId{2}, DomainId{2}).set_handler(kProto, record_into(received));
  FaultSpec dupey;
  dupey.dup_prob = 1.0;
  f.net.set_default_faults(dupey);
  a.send(ProcessId{2}, kProto, make_payload(1));
  f.sched.run();
  EXPECT_EQ(received.size(), 2u);
  EXPECT_EQ(f.net.stats().duplicated, 1u);
}

TEST(Network, PerLinkFaultOverridesDefault) {
  Fixture f;
  Endpoint& a = f.net.attach(ProcessId{1}, DomainId{1});
  std::vector<Packet> r2;
  std::vector<Packet> r3;
  f.net.attach(ProcessId{2}, DomainId{2}).set_handler(kProto, record_into(r2));
  f.net.attach(ProcessId{3}, DomainId{3}).set_handler(kProto, record_into(r3));
  f.net.link(ProcessId{1}, ProcessId{2}).drop_prob = 1.0;
  a.send(ProcessId{2}, kProto, make_payload(1));
  a.send(ProcessId{3}, kProto, make_payload(1));
  f.sched.run();
  EXPECT_TRUE(r2.empty());
  EXPECT_EQ(r3.size(), 1u);
}

TEST(Network, PartitionedLinkDeliversNothingUntilHealed) {
  Fixture f;
  Endpoint& a = f.net.attach(ProcessId{1}, DomainId{1});
  std::vector<Packet> received;
  f.net.attach(ProcessId{2}, DomainId{2}).set_handler(kProto, record_into(received));
  f.net.link(ProcessId{1}, ProcessId{2}).partitioned = true;
  a.send(ProcessId{2}, kProto, make_payload(1));
  f.sched.run();
  EXPECT_TRUE(received.empty());
  f.net.link(ProcessId{1}, ProcessId{2}).partitioned = false;
  a.send(ProcessId{2}, kProto, make_payload(2));
  f.sched.run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(payload_tag(received[0].payload), 2u);
}

TEST(Network, DownDestinationDropsInFlightPackets) {
  Fixture f;
  Endpoint& a = f.net.attach(ProcessId{1}, DomainId{1});
  std::vector<Packet> received;
  f.net.attach(ProcessId{2}, DomainId{2}).set_handler(kProto, record_into(received));
  a.send(ProcessId{2}, kProto, make_payload(1));
  f.net.set_process_up(ProcessId{2}, false);  // crash while packet in flight
  f.sched.run();
  EXPECT_TRUE(received.empty());
}

TEST(Network, DownSenderProducesNothing) {
  Fixture f;
  Endpoint& a = f.net.attach(ProcessId{1}, DomainId{1});
  std::vector<Packet> received;
  f.net.attach(ProcessId{2}, DomainId{2}).set_handler(kProto, record_into(received));
  f.net.set_process_up(ProcessId{1}, false);
  a.send(ProcessId{2}, kProto, make_payload(1));
  f.sched.run();
  EXPECT_TRUE(received.empty());
}

TEST(Network, RecoveredDestinationReceivesAgain) {
  Fixture f;
  Endpoint& a = f.net.attach(ProcessId{1}, DomainId{1});
  std::vector<Packet> received;
  Endpoint& b = f.net.attach(ProcessId{2}, DomainId{2});
  b.set_handler(kProto, record_into(received));
  f.net.set_process_up(ProcessId{2}, false);
  a.send(ProcessId{2}, kProto, make_payload(1));
  f.sched.run();
  f.net.set_process_up(ProcessId{2}, true);
  a.send(ProcessId{2}, kProto, make_payload(2));
  f.sched.run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(payload_tag(received[0].payload), 2u);
}

TEST(Network, WideDelayRangeReordersPackets) {
  Fixture f;
  Endpoint& a = f.net.attach(ProcessId{1}, DomainId{1});
  std::vector<Packet> received;
  f.net.attach(ProcessId{2}, DomainId{2}).set_handler(kProto, record_into(received));
  FaultSpec jittery;
  jittery.min_delay = sim::usec(1);
  jittery.max_delay = sim::msec(50);
  f.net.set_default_faults(jittery);
  const int n = 50;
  for (std::uint32_t i = 0; i < n; ++i) a.send(ProcessId{2}, kProto, make_payload(i));
  f.sched.run();
  ASSERT_EQ(received.size(), static_cast<std::size_t>(n));
  bool reordered = false;
  for (std::size_t i = 1; i < received.size(); ++i) {
    if (payload_tag(received[i].payload) < payload_tag(received[i - 1].payload)) {
      reordered = true;
      break;
    }
  }
  EXPECT_TRUE(reordered) << "wide random delays should reorder some packets";
}

TEST(NetMessage, EncodeDecodeRoundTrip) {
  NetMessage m;
  m.type = MsgType::kReply;
  m.id = CallId{123456789};
  m.op = OpId{42};
  Writer(m.args).str("result-bytes");
  m.server = GroupId{9};
  m.sender = ProcessId{3};
  m.inc = 5;
  m.ackid = 777;
  const NetMessage decoded = NetMessage::decode(m.encode());
  EXPECT_EQ(decoded, m);
}

TEST(NetMessage, DecodeRejectsBadType) {
  Buffer b;
  Writer w(b);
  w.u8(9);  // invalid MsgType
  w.u64(0);
  w.u32(0);
  w.raw({});
  w.u32(0);
  w.u32(0);
  w.u32(0);
  w.u64(0);
  EXPECT_THROW((void)NetMessage::decode(b), CodecError);
}

TEST(NetMessage, DecodeRejectsTruncated) {
  NetMessage m;
  Buffer enc = m.encode();
  Buffer cut;
  cut.append(enc.bytes().subspan(0, enc.size() - 3));
  EXPECT_THROW((void)NetMessage::decode(cut), CodecError);
}

// ---- unroutable-send warning rate limiting (satellite of ISSUE 3) ----
//
// A retransmission loop aimed at a detached process used to emit one warn
// line per send.  The warnings are now rate-limited per (src, dst) link --
// first occurrence immediately, then at most one summary per virtual second
// carrying the exact suppressed count -- while stats().unroutable keeps
// counting every occurrence.

std::vector<std::string>& captured_warnings() {
  static std::vector<std::string> lines;
  return lines;
}

void capturing_sink(LogLevel level, std::string_view message) {
  if (level >= LogLevel::kWarn) captured_warnings().emplace_back(message);
}

std::size_t unroutable_lines() {
  std::size_t n = 0;
  for (const std::string& l : captured_warnings()) {
    if (l.find("unroutable") != std::string::npos) ++n;
  }
  return n;
}

struct LogCapture {
  LogSink previous;
  LogCapture() : previous(set_log_sink(capturing_sink)) { captured_warnings().clear(); }
  ~LogCapture() { set_log_sink(previous); }
};

TEST(Network, UnroutableWarningsAreRateLimitedButCountedExactly) {
  Fixture f;
  Endpoint& a = f.net.attach(ProcessId{1}, DomainId{1});
  LogCapture capture;
  // A burst at t=0: one full warning, the rest suppressed.
  for (int i = 0; i < 50; ++i) a.send(ProcessId{2}, kProto, make_payload(1));
  EXPECT_EQ(unroutable_lines(), 1u);
  EXPECT_NE(captured_warnings().front().find("destination not attached"), std::string::npos);
  // After the period, the next occurrence flushes a summary with the exact
  // backlog (49 suppressed + this one).
  f.sched.run_for(sim::seconds(2));
  a.send(ProcessId{2}, kProto, make_payload(1));
  ASSERT_EQ(unroutable_lines(), 2u);
  EXPECT_NE(captured_warnings().back().find("50 more since last report"), std::string::npos)
      << captured_warnings().back();
  // The stats counter saw every single occurrence.
  EXPECT_EQ(f.net.stats().unroutable, 51u);
}

TEST(Network, UnroutableRateLimiterIsPerLink) {
  Fixture f;
  Endpoint& a = f.net.attach(ProcessId{1}, DomainId{1});
  Endpoint& b = f.net.attach(ProcessId{2}, DomainId{2});
  LogCapture capture;
  // Two different links: each gets its own first-occurrence line.
  a.send(ProcessId{77}, kProto, make_payload(1));
  b.send(ProcessId{78}, kProto, make_payload(1));
  a.send(ProcessId{77}, kProto, make_payload(1));  // suppressed
  EXPECT_EQ(unroutable_lines(), 2u);
  EXPECT_EQ(f.net.stats().unroutable, 3u);
}

TEST(Network, UndefinedGroupMulticastIsRateLimitedSeparately) {
  Fixture f;
  Endpoint& a = f.net.attach(ProcessId{1}, DomainId{1});
  LogCapture capture;
  for (int i = 0; i < 10; ++i) a.multicast(GroupId{99}, kProto, make_payload(1));
  EXPECT_EQ(unroutable_lines(), 1u);
  EXPECT_NE(captured_warnings().front().find("undefined group"), std::string::npos);
  EXPECT_EQ(f.net.stats().unroutable, 10u);
}

}  // namespace
}  // namespace ugrpc::net
