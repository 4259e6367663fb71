// Unit tests for the heartbeat membership monitor.
#include "membership/membership.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/network.h"

namespace ugrpc::membership {
namespace {

struct ChangeEvent {
  ProcessId who;
  Change change;
};

struct Cluster {
  sim::Scheduler sched{7};
  net::Network net{sched};
  std::vector<ProcessId> procs;
  std::vector<net::Endpoint*> endpoints;
  std::vector<std::unique_ptr<MembershipMonitor>> monitors;
  Params params;

  explicit Cluster(int n, Params p = {}) : params(p) {
    for (int i = 1; i <= n; ++i) procs.push_back(ProcessId{static_cast<std::uint32_t>(i)});
    for (ProcessId pid : procs) {
      endpoints.push_back(&net.attach(pid, DomainId{pid.value()}));
      monitors.push_back(
          std::make_unique<MembershipMonitor>(net, *endpoints.back(), procs, params));
    }
    for (auto& m : monitors) m->start();
  }

  void crash(int index) {
    const ProcessId pid = procs[static_cast<std::size_t>(index)];
    net.set_process_up(pid, false);
    sched.kill_domain(DomainId{pid.value()});
    monitors[static_cast<std::size_t>(index)].reset();  // volatile state gone
    endpoints[static_cast<std::size_t>(index)]->clear_all_handlers();
  }

  void recover(int index) {
    const ProcessId pid = procs[static_cast<std::size_t>(index)];
    net.set_process_up(pid, true);
    auto& slot = monitors[static_cast<std::size_t>(index)];
    slot = std::make_unique<MembershipMonitor>(
        net, *endpoints[static_cast<std::size_t>(index)], procs, params);
    slot->start();
  }
};

TEST(Membership, AllAliveInitially) {
  Cluster c(3);
  c.sched.run_until(sim::msec(500));
  for (auto& m : c.monitors) {
    EXPECT_EQ(m->live_members().size(), 3u);
  }
}

TEST(Membership, SelfIsAlwaysLive) {
  Cluster c(2);
  EXPECT_TRUE(c.monitors[0]->is_live(ProcessId{1}));
}

TEST(Membership, CrashedProcessDetectedAsFailed) {
  Cluster c(3);
  std::vector<ChangeEvent> events;
  c.monitors[0]->set_listener([&](ProcessId who, Change ch) { events.push_back({who, ch}); });
  c.sched.run_until(sim::msec(200));
  c.crash(2);
  c.sched.run_until(sim::msec(600));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].who, ProcessId{3});
  EXPECT_EQ(events[0].change, Change::kFailure);
  EXPECT_FALSE(c.monitors[0]->is_live(ProcessId{3}));
  EXPECT_EQ(c.monitors[0]->live_members().size(), 2u);
}

TEST(Membership, FailureReportedByEveryLiveObserver) {
  Cluster c(4);
  std::vector<int> reporters;
  for (int i = 0; i < 3; ++i) {
    c.monitors[static_cast<std::size_t>(i)]->set_listener(
        [&reporters, i](ProcessId, Change ch) {
          if (ch == Change::kFailure) reporters.push_back(i);
        });
  }
  c.sched.run_until(sim::msec(100));
  c.crash(3);
  c.sched.run_until(sim::msec(800));
  EXPECT_EQ(reporters.size(), 3u) << "all three live observers must detect the failure";
}

TEST(Membership, RecoveryDetectedWhenHeartbeatsResume) {
  Cluster c(2);
  std::vector<ChangeEvent> events;
  c.monitors[0]->set_listener([&](ProcessId who, Change ch) { events.push_back({who, ch}); });
  c.sched.run_until(sim::msec(100));
  c.crash(1);
  c.sched.run_until(sim::msec(500));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].change, Change::kFailure);
  c.recover(1);
  c.sched.run_until(sim::msec(800));
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].who, ProcessId{2});
  EXPECT_EQ(events[1].change, Change::kRecovery);
  EXPECT_TRUE(c.monitors[0]->is_live(ProcessId{2}));
}

TEST(Membership, NoFalsePositivesOnModeratelyLossyNetwork) {
  Cluster c(3, Params{.heartbeat_interval = sim::msec(10), .failure_timeout = sim::msec(150)});
  net::FaultSpec lossy;
  lossy.drop_prob = 0.2;
  c.net.set_default_faults(lossy);
  int failures = 0;
  for (auto& m : c.monitors) {
    m->set_listener([&](ProcessId, Change ch) {
      if (ch == Change::kFailure) ++failures;
    });
  }
  c.sched.run_until(sim::seconds(5));
  EXPECT_EQ(failures, 0) << "20% loss with 15x timeout margin must not trigger false failures";
}

}  // namespace
}  // namespace ugrpc::membership
