// Reply acknowledgement by low watermark: every Call carries its client's
// W, the lowest id it still waits for, and a server frees the client's
// stored results below it.  Explicit kAck messages leave only once a
// client goes idle.  Server-side garbage collection and at-most-once must
// both hold.
#include <gtest/gtest.h>

#include <utility>

#include "core/micro/acceptance.h"
#include "core/micro/unique_execution.h"
#include "core/scenario.h"

namespace ugrpc::core {
namespace {

constexpr OpId kOp{1};

Buffer num_buf(std::uint64_t v) {
  Buffer b;
  Writer(b).u64(v);
  return b;
}

const UniqueExecution& unique(Site& site) { return *site.grpc().unique(); }

/// Sends a Call for `id` that names `sender` straight to server 0, carrying
/// `w` in its watermark field, as a late duplicate or a forged Call would.
void send_call(Scenario& s, ProcessId sender, CallId id, std::uint64_t w) {
  net::NetMessage msg;
  msg.type = net::MsgType::kCall;
  msg.id = id;
  msg.op = kOp;
  msg.args = num_buf(0);
  msg.server = s.group();
  msg.sender = sender;
  msg.inc = 1;
  msg.ackid = w;
  s.client_site(0).grpc().state().net_push(Scenario::server_id(0), msg);
}

TEST(AckWatermark, ClosedLoopClientSendsNoAckAndKeepsOneResultPerServer) {
  // Acceptance waits for every server, so no Call overtakes the one before
  // it and no Reply arrives after its call has ended.
  ScenarioParams p;
  p.config = ConfigBuilder::exactly_once().acceptance_limit(kAll).build();
  Scenario s(std::move(p));
  int ok = 0;
  std::size_t most_stored = 0;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    for (int i = 0; i < 300; ++i) {
      if ((co_await c.call(s.group(), kOp, num_buf(static_cast<unsigned>(i)))).ok()) ++ok;
      for (int k = 0; k < s.num_servers(); ++k) {
        most_stored = std::max(most_stored, unique(s.server(k)).stored_results());
      }
    }
  });
  EXPECT_EQ(ok, 300);
  EXPECT_EQ(most_stored, 1u) << "each Call's watermark frees the previous call's result";
  EXPECT_EQ(unique(s.client_site(0)).ack_messages_sent(), 0u)
      << "a client that keeps calling acknowledges on its Calls alone";
}

TEST(AckWatermark, IdleFlushFreesEveryResult) {
  ScenarioParams p;
  p.config = ConfigBuilder::exactly_once().build();
  Scenario s(std::move(p));
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    for (int i = 0; i < 5; ++i) (void)co_await c.call(s.group(), kOp, num_buf(0));
  });
  for (int k = 0; k < s.num_servers(); ++k) EXPECT_EQ(unique(s.server(k)).stored_results(), 1u);
  s.run_until_quiescent();
  for (int k = 0; k < s.num_servers(); ++k) {
    EXPECT_EQ(unique(s.server(k)).stored_results(), 0u) << "server " << k;
  }
  EXPECT_EQ(unique(s.client_site(0)).ack_messages_sent(),
            static_cast<std::uint64_t>(s.num_servers()))
      << "one ACK per server, when the client has gone idle";
}

TEST(AckWatermark, LateRepliesUnderAcceptanceOneAreFreedByALaterCall) {
  // Server 2 sits behind a slow link, so every call completes on another
  // server's Reply and server 2's Replies arrive after the call has ended.
  ScenarioParams p;
  p.config = ConfigBuilder::exactly_once().acceptance_limit(1).build();
  p.config.retrans_timeout = sim::msec(200);
  Scenario s(std::move(p));
  const ProcessId slow = Scenario::server_id(2);
  s.network().link(s.client_id(0), slow).min_delay = sim::msec(5);
  s.network().link(s.client_id(0), slow).max_delay = sim::msec(5);
  s.network().link(slow, s.client_id(0)).min_delay = sim::msec(5);
  s.network().link(slow, s.client_id(0)).max_delay = sim::msec(5);
  constexpr int kCalls = 50;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    for (int i = 0; i < kCalls; ++i) (void)co_await c.call(s.group(), kOp, num_buf(0));
  });
  // Let the last Calls and the late Replies land, but not the idle flush.
  s.run_for(sim::msec(20));
  EXPECT_EQ(s.server(2).total_executions(), static_cast<std::uint64_t>(kCalls));
  EXPECT_EQ(unique(s.client_site(0)).ack_messages_sent(), 0u);
  for (int k = 0; k < s.num_servers(); ++k) {
    EXPECT_EQ(unique(s.server(k)).stored_results(), 1u)
        << "server " << k << " keeps only the last call's result";
  }
  s.run_until_quiescent();
  for (int k = 0; k < s.num_servers(); ++k) EXPECT_EQ(unique(s.server(k)).stored_results(), 0u);
}

TEST(AckWatermark, DuplicateBelowWatermarkIsSuppressedAfterItsResultIsFreed) {
  ScenarioParams p;
  p.num_servers = 1;
  p.config = ConfigBuilder::exactly_once().build();
  Scenario s(std::move(p));
  CallId first;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    first = (co_await c.call(s.group(), kOp, num_buf(0))).id;
    for (int i = 0; i < 3; ++i) (void)co_await c.call(s.group(), kOp, num_buf(0));
  });
  s.run_until_quiescent();
  Site& server = s.server(0);
  ASSERT_EQ(unique(server).stored_results(), 0u);
  const std::uint64_t executions = server.total_executions();
  const std::uint64_t suppressed = unique(server).duplicates_suppressed();
  // A late copy of the first Call, with the watermark it was first sent with.
  send_call(s, s.client_id(0), first, first.value());
  s.run_until_quiescent();
  EXPECT_EQ(server.total_executions(), executions) << "a freed call must not re-execute";
  EXPECT_EQ(unique(server).duplicates_suppressed(), suppressed + 1);
}

TEST(AckWatermark, UntrustedWatermarkFreesNothing) {
  ScenarioParams p;
  p.num_servers = 1;
  p.num_clients = 2;
  p.config = ConfigBuilder::exactly_once().build();
  p.config.retrans_timeout = sim::seconds(1);  // no idle flush during the test
  Scenario s(std::move(p));
  CallId stored;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    stored = (co_await c.call(s.group(), kOp, num_buf(0))).id;
  });
  const UniqueExecution& server = unique(s.server(0));
  ASSERT_TRUE(server.results().contains(stored));
  const ProcessId owner = s.client_id(0);
  const ProcessId other = s.client_id(1);
  const std::uint64_t above = next_call_id(stored).value() + 100;

  // A Call of another client whose watermark names the owner.
  send_call(s, other, make_call_id(other, first_seq_of_incarnation(1)), above);
  // A Call of the owner whose watermark exceeds its own id.
  send_call(s, owner, next_call_id(stored), above);
  // An ACK from another client whose watermark names the owner.
  net::NetMessage ack;
  ack.type = net::MsgType::kAck;
  ack.sender = other;
  ack.inc = 1;
  ack.ackid = above;
  s.client_site(0).grpc().state().net_push(Scenario::server_id(0), ack);
  s.run_for(sim::msec(50));
  EXPECT_TRUE(server.results().contains(stored));
  EXPECT_EQ(server.stored_results(), 3u) << "the two forged Calls executed and stored theirs";
}

TEST(AckWatermark, ReplyAboveEveryIssuedIdLeavesAnIdleClientQuiet) {
  // A Reply naming a call the client never issued stays owed forever: no
  // watermark will cover it.  The idle client must neither crash on it nor
  // re-arm its flush for it.
  ScenarioParams p;
  p.num_servers = 1;
  p.config = ConfigBuilder::exactly_once().build();
  Scenario s(std::move(p));
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    (void)co_await c.call(s.group(), kOp, num_buf(0));
  });
  s.run_until_quiescent();
  net::NetMessage reply;
  reply.type = net::MsgType::kReply;
  reply.id = make_call_id(s.client_id(0), first_seq_of_incarnation(7));
  reply.server = s.group();
  reply.sender = Scenario::server_id(0);
  reply.inc = 1;
  s.server(0).grpc().state().net_push(s.client_id(0), reply);
  s.run_until_quiescent();
  EXPECT_EQ(unique(s.client_site(0)).ack_messages_sent(), 1u) << "only the idle ACK of the call";
  EXPECT_EQ(unique(s.server(0)).stored_results(), 0u);
}

TEST(AckWatermark, RecoveredClientsFirstCallFreesItsOldIncarnationsResults) {
  ScenarioParams p;
  p.num_servers = 1;
  p.config = ConfigBuilder::exactly_once().build();
  Scenario s(std::move(p));
  CallId old_call;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    for (int i = 0; i < 3; ++i) old_call = (co_await c.call(s.group(), kOp, num_buf(0))).id;
  });
  // The client crashes before its idle ACK leaves.
  s.client_site(0).crash();
  const UniqueExecution& server = unique(s.server(0));
  ASSERT_TRUE(server.results().contains(old_call));
  s.client_site(0).recover();
  CallId new_call;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    new_call = (co_await c.call(s.group(), kOp, num_buf(0))).id;
  });
  EXPECT_FALSE(server.results().contains(old_call));
  EXPECT_TRUE(server.results().contains(new_call));
  EXPECT_EQ(server.stored_results(), 1u);
}

}  // namespace
}  // namespace ugrpc::core
