// Randomized fault campaigns validated by the trace checker (tentpole of
// ISSUE 3): each of the three Fig. 1 failure-semantics presets runs a lossy
// duplicating schedule with a mid-run server crash + recovery, under a
// sweep of fixed seeds, and the merged trace must satisfy exactly the
// invariants expectations_from(config) derives -- zero violations, with a
// complete trace (no ring overwrites).  Additional campaigns cover the
// ordering and orphan configurations.
#include <gtest/gtest.h>

#include <tuple>

#include "core/config_builder.h"
#include "core/micro/acceptance.h"
#include "core/micro/total_order.h"
#include "core/observe.h"
#include "core/scenario.h"
#include "obs/checker.h"
#include "obs/trace.h"

namespace ugrpc::core {
namespace {

constexpr OpId kOp{1};

struct Campaign {
  const char* name;
  Config config;
};

Campaign preset(int which) {
  switch (which) {
    case 0: return {"at_least_once", ConfigBuilder::at_least_once().build()};
    case 1: return {"exactly_once", ConfigBuilder::exactly_once().build()};
    default: return {"at_most_once", ConfigBuilder::at_most_once().build()};
  }
}

/// Runs `calls` echo calls under duplication+loss with one crash+recovery
/// cycle of server 0 mid-run, then checks the merged trace.
obs::Report run_campaign(Config config, std::uint64_t seed, obs::Tracer& tracer,
                         int num_servers = 1, int calls = 20) {
  config.retrans_timeout = sim::msec(25);
  ScenarioParams p;
  p.num_servers = num_servers;
  p.config = config;
  p.faults.dup_prob = 0.3;
  p.faults.drop_prob = 0.15;
  p.seed = seed;
  p.tracer = &tracer;
  Scenario s(std::move(p));
  s.scheduler().schedule_after(sim::msec(40), [&] { s.server(0).crash(); });
  s.scheduler().schedule_after(sim::msec(120), [&] { s.server(0).recover(); });
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    for (int i = 0; i < calls; ++i) (void)co_await c.call(s.group(), kOp, Buffer{});
  });
  s.run_for(sim::seconds(2));  // drain stragglers and retransmissions
  EXPECT_EQ(tracer.total_dropped(), 0u)
      << "ring overwrote events; the checker verdict would be unreliable";
  return obs::check(tracer.merged(), expectations_from(s.server(0).grpc().config()));
}

class Fig1Campaign : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(Fig1Campaign, NoInvariantViolationsUnderFaultsAndCrash) {
  const Campaign c = preset(std::get<0>(GetParam()));
  const std::uint64_t seed = std::get<1>(GetParam());
  obs::Tracer tracer;
  const obs::Report report = run_campaign(c.config, seed, tracer);
  EXPECT_TRUE(report.ok()) << c.name << " seed " << seed << ": " << report.brief() << " -- "
                           << (report.violations.empty() ? ""
                                                         : report.violations.front().detail);
  // The campaign actually exercised something: calls ran, the server
  // crashed and recovered, and the adversarial schedule bit.
  EXPECT_GT(report.summary.calls_issued, 0u);
  EXPECT_GT(report.summary.execs_committed, 0u);
  EXPECT_EQ(report.summary.crashes, 1u);
  EXPECT_EQ(report.summary.recoveries, 1u);
}

INSTANTIATE_TEST_SUITE_P(PresetsBySeed, Fig1Campaign,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(7u, 21u, 101u)),
                         [](const auto& info) {
                           return std::string(preset(std::get<0>(info.param)).name) + "_seed" +
                                  std::to_string(std::get<1>(info.param));
                         });

TEST(Fig1Campaign, AtLeastOnceShowsDuplicatesTheCheckerTolerates) {
  // The evidence counters must show why at-least-once is the weak row of
  // Fig. 1: duplicates commit, yet its (empty) invariant set is satisfied.
  obs::Tracer tracer;
  const obs::Report report =
      run_campaign(ConfigBuilder::at_least_once().build(), /*seed=*/21, tracer);
  EXPECT_TRUE(report.ok());
  EXPECT_GT(report.summary.duplicate_commits, 0u)
      << "dup_prob=0.3 without Unique Execution should re-execute something";
}

TEST(Fig1Campaign, ExactlyOnceSuppressesDuplicatesWhileUp) {
  obs::Tracer tracer;
  const obs::Report report =
      run_campaign(ConfigBuilder::exactly_once().build(), /*seed=*/21, tracer);
  EXPECT_TRUE(report.ok());
  EXPECT_GT(report.summary.duplicates_suppressed, 0u)
      << "Unique Execution should have answered retransmissions from the store";
}

TEST(OrderingCampaign, FifoStackSatisfiesFifoInvariant) {
  Config config = ConfigBuilder::exactly_once().ordering(Ordering::kFifo).build();
  for (const std::uint64_t seed : {7u, 21u, 101u}) {
    obs::Tracer tracer;
    const obs::Report report = run_campaign(config, seed, tracer);
    EXPECT_TRUE(report.ok()) << "seed " << seed << ": " << report.brief();
  }
}

TEST(OrderingCampaign, TotalOrderStackAgreesAcrossReplicas) {
  // Three replicas, every one must execute the calls in the same order.
  // Total order excludes Bounded Termination (Fig. 4), so no bound here.
  // The crashed member can only rejoin the sequence because Atomic
  // Execution checkpoints the protocol state (see ordering_recovery_test);
  // without it a recovered replica is stuck behind entries it missed, and
  // acceptance_limit=kAll would hang the client.
  Config config = ConfigBuilder::exactly_once()
                      .ordering(Ordering::kTotal)
                      .execution(ExecutionMode::kSerialAtomic)
                      .acceptance_limit(kAll)
                      .build();
  for (const std::uint64_t seed : {7u, 21u}) {
    // Three fault-ridden replicas trace far more events than one (per-handler
    // dispatch records, retransmissions, order announcements): size the rings
    // for the experiment, as trace.h prescribes.
    obs::Tracer tracer(1 << 19);
    const obs::Report report =
        run_campaign(config, seed, tracer, /*num_servers=*/3, /*calls=*/10);
    EXPECT_TRUE(report.ok()) << "seed " << seed << ": " << report.brief();
    EXPECT_EQ(report.summary.calls_issued, 10u);
    EXPECT_EQ(report.summary.calls_completed, 10u);
    EXPECT_GT(report.summary.execs_committed, 0u);
  }
}

// The leader (server id 3) crashes and recovers while three clients call
// concurrently under loss and duplication.  Atomic Execution restores its
// assignments, and it boots back into the role: its reconciliation round
// merges what the followers learned and re-announces the tail, Orders that
// carry their predecessor.  Every call completes, and the replicas agree on
// one order.  (No membership service: with one, a follower would take over
// and calls would complete without the crashed leader, which has no state
// transfer and could not execute those calls once back.  Under acceptance
// ALL the calls pending when it rejoined would then wait for it for good.)
TEST(OrderingCampaign, TotalOrderSurvivesALeaderCrashUnderConcurrentClients) {
  Config config = ConfigBuilder::exactly_once()
                      .total_order()
                      .execution(ExecutionMode::kSerialAtomic)
                      .acceptance_limit(kAll)
                      .build();
  config.retrans_timeout = sim::msec(25);
  constexpr int kClients = 3;
  constexpr int kCallsEach = 10;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    obs::Tracer tracer(1 << 16);  // holds each site's whole run
    ScenarioParams p;
    p.num_servers = 3;
    p.num_clients = kClients;
    p.config = config;
    p.faults.dup_prob = 0.3;
    p.faults.drop_prob = 0.15;
    p.seed = seed;
    p.tracer = &tracer;
    Scenario s(std::move(p));
    s.scheduler().schedule_after(sim::msec(40), [&] { s.server(2).crash(); });
    s.scheduler().schedule_after(sim::msec(300), [&] { s.server(2).recover(); });
    int completed = 0;
    auto burst = [&](Client& c) -> sim::Task<> {
      for (int i = 0; i < kCallsEach; ++i) {
        if ((co_await c.call(s.group(), kOp, Buffer{})).ok()) ++completed;
      }
    };
    for (int i = 0; i < kClients; ++i) {
      s.scheduler().spawn(burst(s.client(i)), s.client_site(i).domain());
    }
    s.run_for(sim::seconds(10));
    EXPECT_EQ(completed, kClients * kCallsEach) << "seed " << seed;
    EXPECT_GE(s.server(2).grpc().total()->reconciliations(), 1u) << "seed " << seed;
    EXPECT_EQ(tracer.total_dropped(), 0u) << "seed " << seed;
    const obs::Report report =
        obs::check(tracer.merged(), expectations_from(s.server(0).grpc().config()));
    EXPECT_TRUE(report.ok()) << "seed " << seed << ": " << report.brief() << " -- "
                             << (report.violations.empty() ? ""
                                                           : report.violations.front().detail);
    EXPECT_EQ(report.summary.crashes, 1u) << "seed " << seed;
    EXPECT_EQ(report.summary.recoveries, 1u) << "seed " << seed;
  }
}

TEST(OrphanCampaign, TerminateOrphansLeavesNoInterferingCommit) {
  Config config = ConfigBuilder::exactly_once()
                      .orphan_handling(OrphanHandling::kTerminateOrphans)
                      .build();
  for (const std::uint64_t seed : {7u, 101u}) {
    obs::Tracer tracer;
    ScenarioParams p;
    p.num_servers = 1;
    p.config = config;
    p.config.retrans_timeout = sim::msec(25);
    p.faults.dup_prob = 0.2;
    p.faults.drop_prob = 0.1;
    p.seed = seed;
    p.tracer = &tracer;
    Scenario s(std::move(p));
    // The client crashes mid-call (orphaning it) and comes back as a new
    // incarnation that issues more calls.
    s.scheduler().schedule_after(sim::msec(5), [&] { s.client_site(0).crash(); });
    s.scheduler().schedule_after(sim::msec(50), [&] { s.client_site(0).recover(); });
    s.run_client(0, [&](Client& c) -> sim::Task<> {
      (void)co_await c.call(s.group(), kOp, Buffer{});
    });
    s.run_for(sim::msec(100));
    s.run_client(0, [&](Client& c) -> sim::Task<> {
      for (int i = 0; i < 5; ++i) (void)co_await c.call(s.group(), kOp, Buffer{});
    });
    s.run_for(sim::seconds(2));
    EXPECT_EQ(tracer.total_dropped(), 0u);
    const obs::Report report =
        obs::check(tracer.merged(), expectations_from(s.server(0).grpc().config()));
    EXPECT_TRUE(report.ok()) << "seed " << seed << ": " << report.brief() << " -- "
                             << (report.violations.empty() ? ""
                                                           : report.violations.front().detail);
  }
}

TEST(CampaignEvidence, BoundedTerminationIsCheckedWhenConfigured) {
  Config config = ConfigBuilder::read_optimized().build();  // 1s bound
  obs::Tracer tracer;
  const obs::Report report = run_campaign(config, /*seed=*/7, tracer);
  EXPECT_TRUE(report.ok()) << report.brief();
  bool bounded_checked = false;
  for (obs::Invariant inv : report.checked) {
    if (inv == obs::Invariant::kBoundedTermination) bounded_checked = true;
  }
  EXPECT_TRUE(bounded_checked);
}

}  // namespace
}  // namespace ugrpc::core
