// Tests of the Total Order leader-change agreement extension (the phase the
// paper omits "for brevity").  The dangerous window: the old leader's last
// Order messages reached some members but not the successor; without the
// agreement round, the new leader reassigns those order numbers to other
// calls and members execute divergent sequences.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/micro/acceptance.h"
#include "core/micro/total_order.h"
#include "core/scenario.h"

namespace ugrpc::core {
namespace {

constexpr OpId kOp{1};

Buffer num_buf(std::uint64_t v) {
  Buffer b;
  Writer(b).u64(v);
  return b;
}

using Logs = std::map<std::uint32_t, std::vector<std::uint64_t>>;

ScenarioParams agreement_params(Logs& logs) {
  ScenarioParams p;
  p.num_servers = 3;  // leader = server 3
  p.num_clients = 2;
  p.config.acceptance_limit = 2;
  p.config.call = CallSemantics::kAsynchronous;
  p.config.reliable_communication = true;
  p.config.unique_execution = true;
  p.config.retrans_timeout = sim::msec(40);
  p.config.ordering = Ordering::kTotal;
  p.config.use_membership = true;
  p.config.membership_params = {sim::msec(10), sim::msec(80)};
  p.seed = 61;
  p.server_app = [&logs](UserProtocol& user, Site& site) {
    user.set_procedure([&logs, &site](OpId, Buffer& args) -> sim::Task<> {
      logs[site.id().value()].push_back(Reader(args).u64());
      co_return;
    });
  };
  return p;
}

/// Drives the hazardous schedule: cut the old leader's link to the
/// SUCCESSOR (server 2) so late Orders reach only server 1, then crash the
/// leader mid-burst.
void run_hazard(Scenario& s) {
  const ProcessId old_leader = Scenario::server_id(2);  // id 3
  const ProcessId successor = Scenario::server_id(1);   // id 2
  s.scheduler().schedule_after(sim::msec(120), [&s, old_leader, successor] {
    s.network().link(old_leader, successor).partitioned = true;
  });
  s.scheduler().schedule_after(sim::msec(200), [&s] { s.server(2).crash(); });
  auto burst = [&s](Client& c, std::uint64_t base, int n) -> sim::Task<> {
    for (int i = 0; i < n; ++i) {
      (void)co_await c.call_async(s.group(), kOp, num_buf(base + static_cast<std::uint64_t>(i)));
      co_await s.scheduler().sleep_for(sim::msec(15));
    }
  };
  s.scheduler().spawn(burst(s.client(0), 100, 15), s.client_site(0).domain());
  s.scheduler().spawn(burst(s.client(1), 200, 15), s.client_site(1).domain());
  s.run_for(sim::seconds(30));
}

TEST(TotalOrderAgreement, SurvivorsConvergeAcrossHazardousFailover) {
  Logs logs;
  Scenario s(agreement_params(logs));
  run_hazard(s);
  const auto& log1 = logs[Scenario::server_id(0).value()];
  const auto& log2 = logs[Scenario::server_id(1).value()];
  EXPECT_EQ(log1.size(), 30u) << "all calls must eventually execute at survivor 1";
  EXPECT_EQ(log1, log2) << "survivors must agree on one total order";
  // The successor must have actually run a reconciliation round.
  EXPECT_GE(s.server(1).grpc().total()->reconciliations(), 1u);
}

TEST(TotalOrderAgreement, ReconciliationAdoptsOrdersTheNewLeaderMissed) {
  // Focused variant: one call's Order reaches only server 1 before the
  // leader dies.  The new leader (server 2) must adopt server 1's
  // assignment rather than reusing the number.
  Logs logs;
  Scenario s(agreement_params(logs));
  const ProcessId old_leader = Scenario::server_id(2);
  const ProcessId successor = Scenario::server_id(1);
  // Cut leader->successor from the start: successor never sees any Order
  // from the old leader.
  s.network().link(old_leader, successor).partitioned = true;
  s.scheduler().schedule_after(sim::msec(100), [&] { s.server(2).crash(); });
  auto burst = [&s](Client& c) -> sim::Task<> {
    for (std::uint64_t i = 0; i < 5; ++i) {
      (void)co_await c.call_async(s.group(), kOp, num_buf(i));
      co_await s.scheduler().sleep_for(sim::msec(10));
    }
  };
  s.scheduler().spawn(burst(s.client(0)), s.client_site(0).domain());
  s.run_for(sim::seconds(30));
  const auto& log1 = logs[Scenario::server_id(0).value()];
  const auto& log2 = logs[Scenario::server_id(1).value()];
  EXPECT_EQ(log1.size(), 5u);
  EXPECT_EQ(log1, log2);
}

TEST(TotalOrderAgreement, BootReconciliationDoesNotBlockFreshGroup) {
  // At first boot every member's table is empty; the leader's initial
  // reconciliation round must close quickly and not delay the first calls.
  Logs logs;
  ScenarioParams p = agreement_params(logs);
  p.num_clients = 1;
  Scenario s(std::move(p));
  CallResult result;
  sim::Time elapsed = 0;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    const sim::Time t0 = s.scheduler().now();
    CallHandle h = co_await c.call_async(s.group(), kOp, num_buf(1));
    result = co_await h.get();
    elapsed = s.scheduler().now() - t0;
  }, sim::seconds(30));
  EXPECT_EQ(result.status, Status::kOk);
  EXPECT_LT(elapsed, sim::msec(150)) << "boot reconciliation must not stall early calls";
}

TEST(TotalOrderAgreement, MalformedOrderInfoIsDroppedAndCounted) {
  Logs logs;
  ScenarioParams p = agreement_params(logs);
  p.num_clients = 1;
  Scenario s(std::move(p));
  GrpcComposite& leader = s.server(2).grpc();
  // Hold the members' real answers back so the leader's boot round is
  // still open when the garbage arrives.
  for (int i = 0; i < 2; ++i) {
    s.network().link(Scenario::server_id(i), Scenario::server_id(2)).partitioned = true;
  }
  net::NetMessage info;
  info.type = net::MsgType::kOrderInfo;
  info.server = s.group();
  info.sender = Scenario::server_id(0);
  Writer(info.args).u32(1'000'000);  // announces a million pairs, carries none
  s.client_site(0).grpc().state().net_push(Scenario::server_id(2), info);
  s.run_for(sim::msec(5));
  EXPECT_TRUE(leader.total()->reconciling());
  EXPECT_EQ(leader.state().malformed.count(), 1u);

  for (int i = 0; i < 2; ++i) {
    s.network().link(Scenario::server_id(i), Scenario::server_id(2)).partitioned = false;
  }
  CallResult result;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    CallHandle h = co_await c.call_async(s.group(), kOp, num_buf(1));
    result = co_await h.get();
  }, sim::seconds(30));
  EXPECT_EQ(result.status, Status::kOk);
  EXPECT_FALSE(leader.total()->reconciling());
}

}  // namespace
}  // namespace ugrpc::core
