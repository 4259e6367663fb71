// Tests for the Scenario testbed helper itself.
#include "core/scenario.h"

#include <gtest/gtest.h>

#include "core/micro/acceptance.h"

namespace ugrpc::core {
namespace {

TEST(Scenario, AssignsSequentialProcessIds) {
  ScenarioParams p;
  p.num_servers = 3;
  p.num_clients = 2;
  Scenario s(std::move(p));
  EXPECT_EQ(Scenario::server_id(0), ProcessId{1});
  EXPECT_EQ(Scenario::server_id(2), ProcessId{3});
  EXPECT_EQ(s.client_id(0), ProcessId{4});
  EXPECT_EQ(s.client_id(1), ProcessId{5});
  EXPECT_EQ(s.num_servers(), 3);
  EXPECT_EQ(s.num_clients(), 2);
}

TEST(Scenario, GroupContainsExactlyTheServers) {
  ScenarioParams p;
  p.num_servers = 4;
  Scenario s(std::move(p));
  const auto& members = s.network().group_members(s.group());
  ASSERT_EQ(members.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(members[static_cast<std::size_t>(i)], Scenario::server_id(i));
  }
}

TEST(Scenario, AllSitesBootUp) {
  ScenarioParams p;
  p.num_servers = 2;
  p.num_clients = 2;
  Scenario s(std::move(p));
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(s.server(i).up());
    EXPECT_TRUE(s.client_site(i).up());
  }
}

TEST(Scenario, MembershipHeartbeatsFromBootReachEveryPeer) {
  // Every site is attached before any boots, so the heartbeats each monitor
  // sends at start have a destination.
  ScenarioParams p;
  p.num_servers = 3;
  p.num_clients = 1;
  p.config = ConfigBuilder().membership().build();
  Scenario s(std::move(p));
  EXPECT_EQ(s.network().stats().unroutable, 0u);
  s.run_for(sim::seconds(1));
  EXPECT_EQ(s.network().stats().unroutable, 0u);
}

TEST(Scenario, DefaultAppEchoesArguments) {
  ScenarioParams p;
  p.config.acceptance_limit = kAll;
  Scenario s(std::move(p));
  Buffer args;
  Writer(args).str("echo me");
  CallResult r;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    r = co_await c.call(s.group(), OpId{1}, args);
  });
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.result, args);
}

TEST(Scenario, RunClientReturnsWhenSystemWedges) {
  // Everything dropped, no reliability: the call can never complete and no
  // timer will ever fire.  run_client must return (quiescence), leaving the
  // stuck client fiber parked rather than spinning or hanging the test.
  ScenarioParams p;
  p.num_servers = 1;
  p.faults.drop_prob = 1.0;
  Scenario s(std::move(p));
  bool finished = false;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    (void)co_await c.call(s.group(), OpId{1}, Buffer{});
    finished = true;
  }, sim::msec(100));
  EXPECT_FALSE(finished);
  EXPECT_EQ(s.scheduler().live_fiber_count(), 1u) << "the client fiber is parked, not dead";
}

TEST(Scenario, RunClientDeadlineBoundsBusyWorkloads) {
  // With reliability configured the retransmission timer fires forever; the
  // deadline must stop the run.
  ScenarioParams p;
  p.num_servers = 1;
  p.config.reliable_communication = true;
  p.config.retrans_timeout = sim::msec(10);
  p.faults.drop_prob = 1.0;
  Scenario s(std::move(p));
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    (void)co_await c.call(s.group(), OpId{1}, Buffer{});
  }, sim::msec(100));
  EXPECT_GE(s.scheduler().now(), sim::msec(100));
  EXPECT_LE(s.scheduler().now(), sim::msec(200)) << "must stop promptly at the deadline";
}

TEST(Scenario, SeedFlowsIntoTheScheduler) {
  ScenarioParams p1;
  p1.seed = 5;
  p1.faults.drop_prob = 0.5;
  ScenarioParams p2 = p1;
  Scenario a(std::move(p1));
  Scenario b(std::move(p2));
  // Same seed, same construction: first random decisions must agree.
  EXPECT_EQ(a.scheduler().rng().next(), b.scheduler().rng().next());
}

TEST(Scenario, TotalServerExecutionsSumsAcrossGroup) {
  ScenarioParams p;
  p.num_servers = 3;
  p.config.acceptance_limit = kAll;
  Scenario s(std::move(p));
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    (void)co_await c.call(s.group(), OpId{1}, Buffer{});
    (void)co_await c.call(s.group(), OpId{1}, Buffer{});
  });
  EXPECT_EQ(s.total_server_executions(), 6u);
}

}  // namespace
}  // namespace ugrpc::core
