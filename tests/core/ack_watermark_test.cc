// Reply acknowledgement by low watermark: every Call carries its client's
// W, the lowest id it still waits for, and a server raises that client's
// floor to W, dropping the session's entries below it.  Explicit kAck
// messages leave only once a client goes idle.  Server-side garbage
// collection, a bounded session and at-most-once must all hold.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

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

/// The bytes a checkpoint base holds for `u`.
std::size_t state_bytes(const UniqueExecution& u) {
  Buffer b;
  Writer w(b);
  u.encode_state(w);
  return b.size();
}

/// Whether `u`'s state holds a stored result for `id`.
bool has_result(const UniqueExecution& u, CallId id) {
  Buffer b;
  Writer w(b);
  u.encode_state(w);
  Reader r(b);
  while (!r.at_end()) {
    const std::uint8_t op = r.u8();
    const std::uint64_t at = r.u64();
    if (op == 0) {  // kResultStored
      (void)r.raw();
      if (at == id.value()) return true;
    } else {  // kFloor: skip its missed ranges
      for (std::uint64_t n = 2 * r.u64(); n > 0; --n) (void)r.u64();
    }
  }
  return false;
}

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
  ASSERT_EQ(unique(server).old_calls(), 0u) << "the idle ACK's floor pruned every entry";
  const std::uint64_t executions = server.total_executions();
  const std::uint64_t suppressed = unique(server).duplicates_suppressed();
  // A late copy of the first Call, with the watermark it was first sent with.
  send_call(s, s.client_id(0), first, first.value());
  s.run_until_quiescent();
  EXPECT_EQ(server.total_executions(), executions) << "a freed call must not re-execute";
  EXPECT_EQ(unique(server).duplicates_suppressed(), suppressed + 1);
}

TEST(AckWatermark, NeverSeenCallBelowTheFloorRunsOnce) {
  ScenarioParams p;
  p.num_servers = 1;
  p.config = ConfigBuilder::exactly_once().build();
  p.config.retrans_timeout = sim::seconds(1);  // no idle flush during the test
  Scenario s(std::move(p));
  CallId last;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    last = (co_await c.call(s.group(), kOp, num_buf(0))).id;
  });
  Site& server = s.server(0);
  const ProcessId owner = s.client_id(0);
  // A Call far ahead lifts the floor to its own id: the ids between were
  // never seen here, as if their Calls were still in the network.
  const CallId floor{last.value() + 200};
  send_call(s, owner, floor, floor.value());
  s.run_for(sim::msec(50));
  ASSERT_FALSE(has_result(unique(server), last)) << "the floor pruned the completed call";
  const std::uint64_t executions = server.total_executions();
  const std::uint64_t suppressed = unique(server).duplicates_suppressed();
  const CallId just_below{floor.value() - 1};
  const CallId far_below = next_call_id(last);
  for (CallId id : {just_below, just_below, far_below, last, far_below}) {
    send_call(s, owner, id, last.value());
  }
  s.run_for(sim::msec(50));
  EXPECT_EQ(server.total_executions(), executions + 2)
      << "each never-seen id below the floor runs once, however far below";
  EXPECT_EQ(unique(server).duplicates_suppressed(), suppressed + 3)
      << "the second copies, and the completed call the floor pruned";
  EXPECT_EQ(unique(server).old_calls(), 1u) << "only the Call that set the floor";
}

TEST(AckWatermark, CallsOvertakenInTheNetworkRunAtEveryServer) {
  // Under acceptance 1 a call completes on the first Reply, and the next
  // Call, carrying a W above it, can overtake it on the way to a slower
  // server.  That server must still run it: Total Order there waits for
  // it, and an unordered group would lose it.
  for (const Ordering ordering : {Ordering::kNone, Ordering::kTotal}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      ScenarioParams p;
      p.seed = seed;
      p.config = ConfigBuilder::exactly_once().acceptance_limit(1).ordering(ordering).build();
      p.faults.max_delay = sim::msec(3);
      Scenario s(std::move(p));
      constexpr int kCalls = 300;
      s.run_client(0, [&](Client& c) -> sim::Task<> {
        for (int i = 0; i < kCalls; ++i) (void)co_await c.call(s.group(), kOp, num_buf(0));
      });
      s.run_for(sim::seconds(1));
      for (int k = 0; k < s.num_servers(); ++k) {
        EXPECT_EQ(s.server(k).total_executions(), static_cast<std::uint64_t>(kCalls))
            << "ordering " << static_cast<int>(ordering) << ", seed " << seed << ", server " << k;
      }
    }
  }
}

TEST(AckWatermark, ManyOutstandingAsyncCallsRunAtEveryServer) {
  // An asynchronous client issues 100 calls at once and then collects
  // them, batch after batch.  Under acceptance 1 a batch completes on the
  // Replies of the two fast servers, and the next batch's Calls, carrying a
  // W up to 100 ids above, overtake the last batch's Calls on the slow,
  // jittery link to server 2.  Server 2 must still run them.
  for (const Ordering ordering : {Ordering::kNone, Ordering::kTotal}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      ScenarioParams p;
      p.seed = seed;
      p.config = ConfigBuilder::exactly_once().acceptance_limit(1).ordering(ordering).build();
      p.config.call = CallSemantics::kAsynchronous;
      Scenario s(std::move(p));
      s.network().link(s.client_id(0), Scenario::server_id(2)).max_delay = sim::msec(6);
      constexpr int kBatch = 100;
      constexpr int kCalls = 4 * kBatch;
      int ok = 0;
      s.run_client(0, [&](Client& c) -> sim::Task<> {
        std::vector<CallHandle> batch;
        for (int i = 0; i < kCalls; i += kBatch) {
          for (int k = 0; k < kBatch; ++k) {
            batch.push_back(co_await c.call_async(s.group(), kOp, num_buf(0)));
          }
          for (CallHandle& h : batch) ok += (co_await h.get()).ok() ? 1 : 0;
          batch.clear();
        }
      });
      s.run_for(sim::seconds(1));
      EXPECT_EQ(ok, kCalls);
      for (int k = 0; k < s.num_servers(); ++k) {
        EXPECT_EQ(s.server(k).total_executions(), static_cast<std::uint64_t>(kCalls))
            << "ordering " << static_cast<int>(ordering) << ", seed " << seed << ", server " << k;
      }
    }
  }
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
  ASSERT_TRUE(has_result(server, stored));
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
  EXPECT_TRUE(has_result(server, stored));
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
  ASSERT_TRUE(has_result(server, old_call));
  s.client_site(0).recover();
  CallId new_call;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    new_call = (co_await c.call(s.group(), kOp, num_buf(0))).id;
  });
  EXPECT_FALSE(has_result(server, old_call));
  EXPECT_TRUE(has_result(server, new_call));
  EXPECT_EQ(server.stored_results(), 1u);

  // An orphan of the old incarnation that the server never saw, with the
  // watermark it was sent with, arrives after the new incarnation's first
  // Call: it is below the floor, so it is dropped, not executed.
  const std::uint64_t executions = s.server(0).total_executions();
  const std::uint64_t suppressed = server.duplicates_suppressed();
  send_call(s, s.client_id(0), next_call_id(old_call), old_call.value());
  s.run_for(sim::msec(50));
  EXPECT_EQ(s.server(0).total_executions(), executions) << "an orphan below the floor must not run";
  EXPECT_EQ(server.duplicates_suppressed(), suppressed + 1);
}

TEST(AckWatermark, SessionDoesNotGrowWithCallsServed) {
  // A closed loop under acceptance ALL: when a call returns, every server
  // has replied to it, so each server's session is in the same state after
  // every call -- whatever the number of calls served before.
  ScenarioParams p;
  p.config = ConfigBuilder::exactly_once().acceptance_limit(kAll).build();
  Scenario s(std::move(p));
  constexpr int kEarly = 1'000;
  constexpr int kCalls = 100'000;
  std::vector<std::pair<std::size_t, std::size_t>> early;
  std::vector<std::pair<std::size_t, std::size_t>> late;
  auto measure = [&](std::vector<std::pair<std::size_t, std::size_t>>& at) {
    for (int k = 0; k < s.num_servers(); ++k) {
      const UniqueExecution& u = unique(s.server(k));
      at.emplace_back(u.old_calls(), state_bytes(u));
    }
  };
  int ok = 0;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    for (int i = 1; i <= kCalls; ++i) {
      if ((co_await c.call(s.group(), kOp, num_buf(static_cast<unsigned>(i)))).ok()) ++ok;
      if (i == kEarly) measure(early);
    }
    measure(late);
  });
  ASSERT_EQ(ok, kCalls);
  ASSERT_EQ(early.size(), static_cast<std::size_t>(s.num_servers()));
  EXPECT_EQ(late, early) << "(entries, encoded bytes) per server after 1k and after 100k calls";
  EXPECT_EQ(early.front().first, 1u) << "only the last call, whose result waits for its W";
}

}  // namespace
}  // namespace ugrpc::core
