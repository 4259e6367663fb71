// Regression tests for composition hazards found while building the system.
// Each test pins a specific interaction between micro-protocols that the
// paper's pseudocode leaves unresolved (documented in DESIGN.md).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/micro/acceptance.h"
#include "core/micro/unique_execution.h"
#include "core/scenario.h"
#include "core/telemetry.h"
#include "obs/trace.h"

namespace ugrpc::core {
namespace {

constexpr OpId kOp{1};

Buffer num_buf(std::uint64_t v) {
  Buffer b;
  Writer(b).u64(v);
  return b;
}

Buffer bytes_of(std::initializer_list<int> values) {
  Buffer b;
  for (int v : values) b.push_back(static_cast<std::byte>(v));
  return b;
}

// Bytes from the network never crash a site: a gRPC payload that does not
// decode, or an ACK with args (an ACK carries only its watermark), is
// dropped and counted -- as a kMsgMalformed trace record, which
// SiteTelemetry's msgs.malformed reads -- and the site goes on serving calls.
TEST(Regression, MalformedGrpcMessagesAreDroppedAndCounted) {
  obs::Tracer tracer;
  ScenarioParams p;
  p.num_servers = 1;
  p.config.acceptance_limit = 1;
  p.config.reliable_communication = true;
  p.config.unique_execution = true;
  p.tracer = &tracer;
  Scenario s(std::move(p));
  const SiteTelemetry telemetry(s.server(0));
  const ProcessId server = Scenario::server_id(0);

  net::NetMessage call;
  call.type = net::MsgType::kCall;
  call.id = CallId{1};
  call.args = num_buf(1);
  Buffer truncated;
  truncated.append(call.encode().bytes().subspan(0, 10));
  net::NetMessage ack;
  ack.type = net::MsgType::kAck;
  ack.sender = s.client_id(0);
  ack.ackid = 1;
  Writer(ack.args).u32(0xFFFFFFF0u);  // an ACK carries no args

  net::Endpoint& from = s.client_site(0).grpc().state().endpoint;
  for (const Buffer& payload : {bytes_of({9, 1, 2}), Buffer{}, truncated, ack.encode()}) {
    from.send(server, kGrpcProto, payload);
  }
  s.run_for(sim::msec(10));
  EXPECT_EQ(s.server(0).grpc().state().malformed.count(), 4u);
  std::uint64_t records = 0;
  for (const obs::Event& e : tracer.merged()) {
    if (e.kind != obs::Kind::kMsgMalformed) continue;
    ++records;
    EXPECT_EQ(e.site, server);
    EXPECT_EQ(e.a, s.client_id(0).value()) << "a = the sender";
  }
  EXPECT_EQ(records, 4u);
  const auto counters = telemetry.counters();
  const auto malformed = std::ranges::find(counters, "msgs.malformed", &obs::live::Counter::name);
  ASSERT_NE(malformed, counters.end());
  EXPECT_EQ(malformed->value, 4u);

  CallResult result;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    result = co_await c.call(s.group(), kOp, num_buf(42));
  });
  EXPECT_EQ(result.status, Status::kOk);
  EXPECT_EQ(Reader(result.result).u64(), 42u);
}

// Hazard 1: Total Order's early duplicate-cancel used to run before Unique
// Execution could resend a stored result.  A client whose Reply is lost
// must recover via retransmission even for a call the server has already
// executed and advanced past in the total order.
TEST(Regression, TotalOrderDoesNotSuppressStoredResultResend) {
  ScenarioParams p;
  p.num_servers = 1;
  p.config.acceptance_limit = 1;
  p.config.reliable_communication = true;
  p.config.unique_execution = true;
  p.config.retrans_timeout = sim::msec(25);
  p.config.ordering = Ordering::kTotal;
  Scenario s(std::move(p));
  const ProcessId server = Scenario::server_id(0);
  const ProcessId client = s.client_id(0);
  // First call completes normally (advances next_entry past its order),
  // then the reverse path is cut so the second call's Reply is lost.
  CallResult first;
  CallResult second;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    first = co_await c.call(s.group(), kOp, num_buf(1));
    s.network().link(server, client).partitioned = true;
    s.scheduler().schedule_after(sim::msec(120), [&] {
      s.network().link(server, client).partitioned = false;
    });
    second = co_await c.call(s.group(), kOp, num_buf(2));
  }, sim::seconds(30));
  EXPECT_EQ(first.status, Status::kOk);
  EXPECT_EQ(second.status, Status::kOk)
      << "retransmission must obtain the stored result after the partition heals";
  EXPECT_EQ(s.total_server_executions(), 2u) << "the resend must not re-execute";
}

// A Total Order member orders the calls of the one group it serves.  A Call
// naming an undefined group used to reach the leader lookup and abort the
// site ("unknown group"); it is dropped and counted as malformed instead,
// and the site goes on serving calls.
TEST(Regression, TotalOrderDropsCallForAnotherGroup) {
  obs::Tracer tracer;
  ScenarioParams p;
  p.num_servers = 1;
  p.config.acceptance_limit = 1;
  p.config.reliable_communication = true;
  p.config.unique_execution = true;
  p.config.ordering = Ordering::kTotal;
  p.tracer = &tracer;
  Scenario s(std::move(p));
  const ProcessId server = Scenario::server_id(0);

  net::NetMessage call;
  call.type = net::MsgType::kCall;
  call.id = CallId{0xBAD};
  call.server = GroupId{99};  // never defined
  call.sender = s.client_id(0);
  call.args = num_buf(7);
  s.client_site(0).grpc().state().endpoint.send(server, kGrpcProto, call.encode());
  s.run_for(sim::msec(10));
  EXPECT_EQ(s.server(0).grpc().state().malformed.count(), 1u);
  EXPECT_EQ(tracer.count(obs::Kind::kMsgMalformed), 1u);
  EXPECT_EQ(s.total_server_executions(), 0u);

  CallResult result;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    result = co_await c.call(s.group(), kOp, num_buf(42));
  });
  EXPECT_EQ(result.status, Status::kOk);
  EXPECT_EQ(Reader(result.result).u64(), 42u);
  EXPECT_EQ(s.total_server_executions(), 1u);
}

// Hazard 2: Interference Avoidance's deferral relies on retransmissions
// re-delivering the new incarnation's call.  If Unique Execution saw the
// call first it would eat every retransmission as a duplicate.  (Fixed by
// running orphan handling before unique execution on CALL_FROM_NETWORK.)
TEST(Regression, DeferredNewIncarnationCallIsEventuallyAdmitted) {
  ScenarioParams p;
  p.num_servers = 1;
  p.config.acceptance_limit = 1;
  p.config.reliable_communication = true;
  p.config.unique_execution = true;
  p.config.retrans_timeout = sim::msec(30);
  p.config.orphan = OrphanHandling::kInterferenceAvoidance;
  p.server_app = [](UserProtocol& user, Site& site) {
    user.set_procedure([&site](OpId, Buffer&) -> sim::Task<> {
      co_await site.scheduler().sleep_for(sim::msec(80));  // long enough to orphan
    });
  };
  Scenario s(std::move(p));
  Site& client_site = s.client_site(0);
  s.scheduler().schedule_after(sim::msec(10), [&] { client_site.crash(); });
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    (void)co_await c.call(s.group(), kOp, num_buf(1));
  });
  client_site.recover();
  Client fresh(client_site);
  CallResult second;
  auto driver = [&](Client& c) -> sim::Task<> {
    second = co_await c.call(s.group(), kOp, num_buf(2));
  };
  s.scheduler().spawn(driver(fresh), client_site.domain());
  s.run_for(sim::seconds(3));
  EXPECT_EQ(second.status, Status::kOk);
  EXPECT_EQ(s.total_server_executions(), 2u);
}

// Hazard 3: call-id reuse across client incarnations.  Without
// incarnation-salted ids, the recovered client's first call would collide
// with its orphaned call and be answered with the orphan's stored result.
TEST(Regression, RecoveredClientCallIdsDoNotCollideWithOrphans) {
  EXPECT_NE(first_seq_of_incarnation(1), first_seq_of_incarnation(2));
  ScenarioParams p;
  p.num_servers = 1;
  p.config.acceptance_limit = 1;
  p.config.reliable_communication = true;
  p.config.unique_execution = true;
  Scenario s(std::move(p));
  Site& client_site = s.client_site(0);
  // Issue call, crash before reply lands, recover, issue a different call.
  s.scheduler().schedule_after(sim::usec(50), [&] { client_site.crash(); });
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    (void)co_await c.call(s.group(), kOp, num_buf(111));
  });
  client_site.recover();
  Client fresh(client_site);
  CallResult result;
  auto driver = [&](Client& c) -> sim::Task<> {
    result = co_await c.call(s.group(), kOp, num_buf(222));
  };
  s.scheduler().spawn(driver(fresh), client_site.domain());
  s.run_for(sim::seconds(2));
  EXPECT_EQ(result.status, Status::kOk);
  // Echo server: the result must be the NEW call's argument, not the
  // orphan's stored result.
  EXPECT_EQ(Reader(result.result).u64(), 222u);
}

// Hazard 4: Collation folding a duplicated Reply twice.  With Collation
// running before Acceptance it must itself skip replies already counted.
TEST(Regression, DuplicatedReplyIsCollatedOnce) {
  ScenarioParams p;
  p.num_servers = 2;
  p.config.acceptance_limit = kAll;
  p.config.reliable_communication = true;
  p.config.unique_execution = true;
  // Sum-collation makes double-folding visible.
  p.config.collation = [](const Buffer& acc, const Buffer& reply) {
    Buffer b;
    Writer(b).u64(Reader(acc).u64() + Reader(reply).u64());
    return b;
  };
  p.config.collation_init = num_buf(0);
  p.faults.dup_prob = 1.0;  // every packet (including replies) duplicated
  p.seed = 9;
  Scenario s(std::move(p));
  CallResult result;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    result = co_await c.call(s.group(), kOp, num_buf(10));
  });
  s.run_for(sim::seconds(1));
  EXPECT_EQ(result.status, Status::kOk);
  EXPECT_EQ(Reader(result.result).u64(), 20u) << "10+10 exactly once per server";
}

// Hazard 5: late replies after acceptance must not V the client semaphore
// again (the paper V's unconditionally).  A subsequent call on the same
// client must genuinely wait rather than consuming a stale token.
TEST(Regression, LateRepliesDoNotLeaveStaleSemaphoreTokens) {
  ScenarioParams p;
  p.num_servers = 3;
  p.config.acceptance_limit = 1;  // accepted on the first reply; 2 arrive late
  p.server_app = [](UserProtocol& user, Site& site) {
    // Heterogeneous delays so replies straggle.
    const sim::Duration think = sim::msec(3) * (site.id().value() - 1);
    user.set_procedure([&site, think](OpId, Buffer&) -> sim::Task<> {
      co_await site.scheduler().sleep_for(think);
    });
  };
  Scenario s(std::move(p));
  sim::Time second_elapsed = 0;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    (void)co_await c.call(s.group(), kOp, num_buf(1));
    co_await s.scheduler().sleep_for(sim::msec(50));  // stragglers land now
    const sim::Time t0 = s.scheduler().now();
    (void)co_await c.call(s.group(), kOp, num_buf(2));
    second_elapsed = s.scheduler().now() - t0;
  });
  EXPECT_GT(second_elapsed, sim::usec(100))
      << "the second call must actually wait for its own reply";
}

// Hazard 6: retransmissions must carry the original request bytes, not the
// collation accumulator (the paper shares one args field for both).
TEST(Regression, RetransmissionCarriesOriginalRequest) {
  ScenarioParams p;
  p.num_servers = 1;
  p.config.acceptance_limit = 1;
  p.config.reliable_communication = true;
  p.config.retrans_timeout = sim::msec(20);
  // A collation init that would be visibly wrong as a request.
  p.config.collation = last_reply_collation();
  p.config.collation_init = num_buf(999);
  p.seed = 4;
  Scenario s(std::move(p));
  const ProcessId server = Scenario::server_id(0);
  const ProcessId client = s.client_id(0);
  // Drop the first transmission deterministically: partition briefly.
  s.network().link(client, server).partitioned = true;
  s.scheduler().schedule_after(sim::msec(50), [&] {
    s.network().link(client, server).partitioned = false;
  });
  CallResult result;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    result = co_await c.call(s.group(), kOp, num_buf(77));
  });
  EXPECT_EQ(result.status, Status::kOk);
  EXPECT_EQ(Reader(result.result).u64(), 77u)
      << "the retransmitted (echoed) request must be the original argument";
}

}  // namespace
}  // namespace ugrpc::core
