// Integration of the membership service with the gRPC micro-protocols:
// Acceptance reacting to server failures, and Total Order leader failover.
#include <gtest/gtest.h>

#include "core/micro/acceptance.h"
#include "core/micro/total_order.h"
#include "core/scenario.h"

namespace ugrpc::core {
namespace {

constexpr OpId kEcho{1};

Buffer num_buf(std::uint64_t v) {
  Buffer b;
  Writer(b).u64(v);
  return b;
}

membership::Params fast_membership() {
  membership::Params m;
  m.heartbeat_interval = sim::msec(10);
  m.failure_timeout = sim::msec(80);
  return m;
}

TEST(MembershipIntegration, AcceptanceAllCompletesDespiteServerCrash) {
  // acceptance=ALL with membership: when a server crashes mid-call, the
  // client settles for the replies of the survivors instead of hanging.
  ScenarioParams p;
  p.num_servers = 3;
  p.config.acceptance_limit = kAll;
  p.config.reliable_communication = true;
  p.config.unique_execution = true;
  p.config.use_membership = true;
  p.config.membership_params = fast_membership();
  // Servers delay their reply so the crash lands mid-call.
  p.server_app = [](UserProtocol& user, Site& site) {
    user.set_procedure([&site](OpId, Buffer&) -> sim::Task<> {
      co_await site.scheduler().sleep_for(sim::msec(400));
    });
  };
  Scenario s(std::move(p));
  s.scheduler().schedule_after(sim::msec(100), [&] { s.server(1).crash(); });
  CallResult result;
  sim::Time elapsed = 0;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    const sim::Time t0 = s.scheduler().now();
    result = co_await c.call(s.group(), kEcho, num_buf(1));
    elapsed = s.scheduler().now() - t0;
  }, sim::seconds(30));
  EXPECT_EQ(result.status, Status::kOk)
      << "the failure of one server must not block acceptance=ALL with membership";
  EXPECT_LT(elapsed, sim::seconds(2));
}

TEST(MembershipIntegration, WithoutMembershipAcceptanceAllHangsOnCrash) {
  // The same scenario without membership: "a call will only terminate when
  // Acceptance_Limit responses are received even when some servers fail".
  ScenarioParams p;
  p.num_servers = 3;
  p.config.acceptance_limit = kAll;
  p.config.reliable_communication = true;
  p.config.unique_execution = true;
  p.server_app = [](UserProtocol& user, Site& site) {
    user.set_procedure([&site](OpId, Buffer&) -> sim::Task<> {
      co_await site.scheduler().sleep_for(sim::msec(400));
    });
  };
  Scenario s(std::move(p));
  s.scheduler().schedule_after(sim::msec(100), [&] { s.server(1).crash(); });
  bool returned = false;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    (void)co_await c.call(s.group(), kEcho, num_buf(1));
    returned = true;
  }, sim::seconds(10));
  EXPECT_FALSE(returned);
}

TEST(MembershipIntegration, NewCallsExcludeKnownFailedServers) {
  // After the failure is detected, new calls compute nres from the live set
  // only, so they complete at full speed.
  ScenarioParams p;
  p.num_servers = 3;
  p.config.acceptance_limit = kAll;
  p.config.reliable_communication = true;
  p.config.use_membership = true;
  p.config.membership_params = fast_membership();
  Scenario s(std::move(p));
  s.server(2).crash();
  s.run_for(sim::msec(300));  // let the detector fire
  EXPECT_FALSE(s.client_site(0).grpc().state().members.contains(Scenario::server_id(2)));
  CallResult result;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    result = co_await c.call(s.group(), kEcho, num_buf(1));
  }, sim::seconds(5));
  EXPECT_EQ(result.status, Status::kOk);
}

TEST(MembershipIntegration, TotalOrderLeaderFailover) {
  // The leader (largest id = server 3) crashes; the next-largest member
  // takes over order assignment and calls keep completing in a consistent
  // total order at the survivors.
  std::map<std::uint32_t, std::vector<std::uint64_t>> logs;
  ScenarioParams p;
  p.num_servers = 3;
  p.config.acceptance_limit = 2;  // survivors can accept
  p.config.reliable_communication = true;
  p.config.unique_execution = true;
  p.config.retrans_timeout = sim::msec(40);
  p.config.ordering = Ordering::kTotal;
  p.config.use_membership = true;
  p.config.membership_params = fast_membership();
  p.server_app = [&logs](UserProtocol& user, Site& site) {
    user.set_procedure([&logs, &site](OpId, Buffer& args) -> sim::Task<> {
      logs[site.id().value()].push_back(Reader(args).u64());
      co_return;
    });
  };
  Scenario s(std::move(p));
  TotalOrder* view = s.server(0).grpc().total();
  ASSERT_EQ(view->leader(), Scenario::server_id(2));
  s.scheduler().schedule_after(sim::msec(500), [&] { s.server(2).crash(); });
  int ok = 0;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    for (std::uint64_t i = 0; i < 20; ++i) {
      const CallResult r = co_await c.call(s.group(), kEcho, num_buf(i));
      if (r.ok()) ++ok;
      co_await s.scheduler().sleep_for(sim::msec(60));
    }
  }, sim::seconds(60));
  EXPECT_EQ(ok, 20) << "calls must keep completing across the failover";
  EXPECT_EQ(view->leader(), Scenario::server_id(1)) << "next-largest id leads";
  // The two survivors agree on the execution order.
  const auto& log0 = logs[Scenario::server_id(0).value()];
  const auto& log1 = logs[Scenario::server_id(1).value()];
  EXPECT_EQ(log0.size(), 20u);
  EXPECT_EQ(log0, log1);
}

TEST(MembershipIntegration, RecoveredServerRejoinsMemberSet) {
  ScenarioParams p;
  p.num_servers = 2;
  p.config.acceptance_limit = kAll;
  p.config.reliable_communication = true;
  p.config.use_membership = true;
  p.config.membership_params = fast_membership();
  Scenario s(std::move(p));
  s.server(0).crash();
  s.run_for(sim::msec(300));
  EXPECT_FALSE(s.client_site(0).grpc().state().members.contains(Scenario::server_id(0)));
  s.server(0).recover();
  s.run_for(sim::msec(300));
  EXPECT_TRUE(s.client_site(0).grpc().state().members.contains(Scenario::server_id(0)));
}

}  // namespace
}  // namespace ugrpc::core
