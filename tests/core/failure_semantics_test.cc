// Tests of the failure-handling micro-protocols: Reliable Communication
// under message loss, Bounded Termination, Unique Execution (exactly-once),
// and the at-least-once / exactly-once distinction of paper Figure 1.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/micro/acceptance.h"
#include "core/micro/reliable_communication.h"
#include "core/micro/unique_execution.h"
#include "core/scenario.h"
#include "obs/trace.h"

namespace ugrpc::core {
namespace {

constexpr OpId kEcho{1};

Buffer num_buf(std::uint64_t v) {
  Buffer b;
  Writer(b).u64(v);
  return b;
}

/// The records of `kind` on `site`'s ring.
std::size_t records(obs::Tracer& tracer, Site& site, obs::Kind kind) {
  return static_cast<std::size_t>(
      std::ranges::count(tracer.site(site.id()).events(), kind, &obs::Event::kind));
}

TEST(ReliableCommunication, CallSurvivesHeavyMessageLoss) {
  ScenarioParams p;
  p.num_servers = 3;
  p.config.acceptance_limit = kAll;
  p.config.reliable_communication = true;
  p.config.retrans_timeout = sim::msec(20);
  p.faults.drop_prob = 0.4;
  p.seed = 11;
  Scenario s(std::move(p));
  int ok = 0;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    for (int i = 0; i < 10; ++i) {
      const CallResult r = co_await c.call(s.group(), kEcho, num_buf(static_cast<unsigned>(i)));
      if (r.ok()) ++ok;
    }
  });
  EXPECT_EQ(ok, 10) << "40% loss must be masked by retransmission";
}

TEST(ReliableCommunication, RetransmissionsHappenUnderLoss) {
  ScenarioParams p;
  p.config.acceptance_limit = kAll;
  p.config.reliable_communication = true;
  p.config.retrans_timeout = sim::msec(20);
  p.faults.drop_prob = 0.5;
  p.seed = 5;
  Scenario s(std::move(p));
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    (void)co_await c.call(s.group(), kEcho, num_buf(1));
  });
  EXPECT_GT(s.client_site(0).grpc().reliable()->retransmissions(), 0u);
}

TEST(ReliableCommunication, NoRetransmissionOnPerfectNetwork) {
  ScenarioParams p;
  p.config.acceptance_limit = kAll;
  p.config.reliable_communication = true;
  p.config.retrans_timeout = sim::msec(500);  // longer than a round trip
  Scenario s(std::move(p));
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    (void)co_await c.call(s.group(), kEcho, num_buf(1));
  });
  EXPECT_EQ(s.client_site(0).grpc().reliable()->retransmissions(), 0u);
}

TEST(UnreliableCall, LostMessagesHangWithoutReliability) {
  ScenarioParams p;
  p.num_servers = 1;
  p.config.acceptance_limit = 1;
  p.faults.drop_prob = 1.0;  // everything lost
  Scenario s(std::move(p));
  bool returned = false;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    (void)co_await c.call(s.group(), kEcho, num_buf(1));
    returned = true;
  }, sim::seconds(10));
  EXPECT_FALSE(returned) << "without reliability or bounded termination the call blocks forever";
}

TEST(BoundedTermination, TimesOutWhenServersUnreachable) {
  ScenarioParams p;
  p.num_servers = 1;
  p.config.acceptance_limit = 1;
  p.config.termination_bound = sim::msec(200);
  p.faults.drop_prob = 1.0;
  obs::Tracer tracer;
  p.tracer = &tracer;
  Scenario s(std::move(p));
  CallResult result;
  sim::Time elapsed = 0;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    const sim::Time t0 = s.scheduler().now();
    result = co_await c.call(s.group(), kEcho, num_buf(1));
    elapsed = s.scheduler().now() - t0;
  });
  EXPECT_EQ(result.status, Status::kTimeout);
  EXPECT_EQ(elapsed, sim::msec(200)) << "the call must return exactly at the bound";
  EXPECT_EQ(records(tracer, s.client_site(0), obs::Kind::kDeadlineExpired), 1u);
}

TEST(BoundedTermination, FastCallDoesNotTimeOut) {
  ScenarioParams p;
  p.config.acceptance_limit = kAll;
  p.config.termination_bound = sim::seconds(5);
  obs::Tracer tracer;
  p.tracer = &tracer;
  Scenario s(std::move(p));
  CallResult result;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    result = co_await c.call(s.group(), kEcho, num_buf(1));
  });
  s.run_until_quiescent();  // let the (now irrelevant) deadline fire
  EXPECT_EQ(result.status, Status::kOk);
  EXPECT_EQ(records(tracer, s.client_site(0), obs::Kind::kDeadlineExpired), 0u);
}

TEST(BoundedTermination, TimeoutCountsOnlyIncompleteCalls) {
  ScenarioParams p;
  p.num_servers = 3;
  p.config.acceptance_limit = kAll;
  p.config.termination_bound = sim::msec(300);
  p.config.reliable_communication = true;
  p.faults.drop_prob = 0.3;
  p.seed = 3;
  Scenario s(std::move(p));
  int ok = 0;
  int timeout = 0;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    for (int i = 0; i < 20; ++i) {
      const CallResult r = co_await c.call(s.group(), kEcho, num_buf(static_cast<unsigned>(i)));
      (r.ok() ? ok : timeout)++;
    }
  });
  EXPECT_EQ(ok + timeout, 20);
  EXPECT_GT(ok, 0);
}

// One deadline timer serves every call: calls that all complete within the
// bound leave at most the one timer armed for the first of them, which
// fires, finds no call waiting and arms nothing.
TEST(BoundedTermination, CompletedCallsLeaveAtMostOneTimerFire) {
  ScenarioParams p;
  p.config = ConfigBuilder::read_optimized().build();
  ASSERT_EQ(p.config.termination_bound, sim::seconds(1));
  obs::Tracer tracer;
  p.tracer = &tracer;
  Scenario s(std::move(p));
  int ok = 0;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    for (int i = 0; i < 10; ++i) {
      ok += (co_await c.call(s.group(), kEcho, num_buf(static_cast<unsigned>(i)))).ok() ? 1 : 0;
      co_await s.scheduler().sleep_for(sim::msec(10));
    }
  });
  ASSERT_EQ(ok, 10);
  s.run_for(sim::seconds(3));
  std::size_t fires = 0;
  for (const obs::Event& e : tracer.site(s.client_site(0).id()).events()) {
    fires += e.kind == obs::Kind::kTimerFired &&
             tracer.name(e.name) == "BoundedTerm.handle_timeout";
  }
  EXPECT_LE(fires, 1u);
  EXPECT_EQ(records(tracer, s.client_site(0), obs::Kind::kDeadlineExpired), 0u);
}

// ---- Figure 1: failure semantics as property combinations ----

// At least once: no unique execution.  Duplicated messages cause duplicate
// executions at the server.
TEST(Figure1, AtLeastOnceExecutesDuplicatesUnderDuplication) {
  ScenarioParams p;
  p.num_servers = 1;
  p.config.acceptance_limit = 1;
  p.config.reliable_communication = true;
  p.config.retrans_timeout = sim::msec(20);
  p.faults.dup_prob = 1.0;  // every packet delivered twice
  p.seed = 2;
  Scenario s(std::move(p));
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    (void)co_await c.call(s.group(), kEcho, num_buf(1));
  });
  s.run_for(sim::msec(500));  // let duplicates land
  EXPECT_GT(s.total_server_executions(), 1u)
      << "without Unique Execution, duplicated calls re-execute";
}

// Exactly once: unique execution suppresses duplicates.
TEST(Figure1, ExactlyOnceSuppressesDuplicates) {
  ScenarioParams p;
  p.num_servers = 1;
  p.config.acceptance_limit = 1;
  p.config.reliable_communication = true;
  p.config.unique_execution = true;
  p.config.retrans_timeout = sim::msec(20);
  p.faults.dup_prob = 1.0;
  p.seed = 2;
  Scenario s(std::move(p));
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    (void)co_await c.call(s.group(), kEcho, num_buf(1));
  });
  s.run_for(sim::msec(500));
  EXPECT_EQ(s.total_server_executions(), 1u);
  EXPECT_GT(s.server(0).grpc().unique()->duplicates_suppressed(), 0u);
}

TEST(Figure1, ExactlyOnceUnderLossAndDuplication) {
  ScenarioParams p;
  p.num_servers = 3;
  p.config.acceptance_limit = kAll;
  p.config.reliable_communication = true;
  p.config.unique_execution = true;
  p.config.retrans_timeout = sim::msec(20);
  p.faults.drop_prob = 0.3;
  p.faults.dup_prob = 0.3;
  p.seed = 17;
  Scenario s(std::move(p));
  const int calls = 15;
  int ok = 0;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    for (int i = 0; i < calls; ++i) {
      const CallResult r = co_await c.call(s.group(), kEcho, num_buf(static_cast<unsigned>(i)));
      if (r.ok()) ++ok;
    }
  });
  s.run_for(sim::seconds(1));
  EXPECT_EQ(ok, calls);
  EXPECT_EQ(s.total_server_executions(), static_cast<std::uint64_t>(calls) * 3)
      << "each call executes exactly once per server despite loss+dup";
}

TEST(UniqueExecution, StoredResultIsResentForDuplicateCall) {
  // Drop the first Reply deterministically by partitioning the reverse link
  // briefly: the client retransmits, and the server must answer from the
  // stored result without re-executing.
  ScenarioParams p;
  p.num_servers = 1;
  p.config.acceptance_limit = 1;
  p.config.reliable_communication = true;
  p.config.unique_execution = true;
  p.config.retrans_timeout = sim::msec(30);
  Scenario s(std::move(p));
  const ProcessId server = Scenario::server_id(0);
  const ProcessId client = s.client_id(0);
  s.network().link(server, client).partitioned = true;  // replies blocked
  s.scheduler().schedule_after(sim::msec(100), [&] {
    s.network().link(server, client).partitioned = false;
  });
  CallResult result;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    result = co_await c.call(s.group(), kEcho, num_buf(9));
  });
  EXPECT_EQ(result.status, Status::kOk);
  EXPECT_EQ(s.total_server_executions(), 1u);
  EXPECT_GT(s.server(0).grpc().unique()->duplicates_suppressed(), 0u);
}

TEST(UniqueExecution, AckGarbageCollectsStoredResults) {
  ScenarioParams p;
  p.num_servers = 1;
  p.config.acceptance_limit = 1;
  p.config.reliable_communication = true;
  p.config.unique_execution = true;
  Scenario s(std::move(p));
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    for (int i = 0; i < 5; ++i) {
      (void)co_await c.call(s.group(), kEcho, num_buf(static_cast<unsigned>(i)));
    }
  });
  s.run_until_quiescent();
  EXPECT_EQ(s.server(0).grpc().unique()->stored_results(), 0u)
      << "watermarks on Calls and the idle ACK must free every stored result";
}

}  // namespace
}  // namespace ugrpc::core
