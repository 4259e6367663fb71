// Tests of the orphan-handling micro-protocols (paper section 4.4.7).
//
// An orphan arises when a client crashes while its call is executing: the
// server computation continues for a dead incarnation.  The recovered
// client's new calls carry a higher incarnation number, which is how the
// servers detect the orphans.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/micro/acceptance.h"
#include "core/scenario.h"
#include "obs/trace.h"

namespace ugrpc::core {
namespace {

constexpr OpId kSlowAppend{1};

Buffer num_buf(std::uint64_t v) {
  Buffer b;
  Writer(b).u64(v);
  return b;
}

/// App whose procedure runs for 100ms and appends its argument to a log on
/// completion -- so we can observe whether orphans finish, interleave, or die.
struct SlowLog {
  std::vector<std::uint64_t> completed;

  Site::AppSetup app() {
    return [this](UserProtocol& user, Site& site) {
      user.set_procedure([this, &site](OpId, Buffer& args) -> sim::Task<> {
        const std::uint64_t v = Reader(args).u64();
        co_await site.scheduler().sleep_for(sim::msec(100));
        completed.push_back(v);
      });
    };
  }
};

/// The records of `kind` on `site`'s ring.
std::size_t records(obs::Tracer& tracer, Site& site, obs::Kind kind) {
  return static_cast<std::size_t>(
      std::ranges::count(tracer.site(site.id()).events(), kind, &obs::Event::kind));
}

ScenarioParams orphan_params(OrphanHandling orphan, SlowLog& log, obs::Tracer* tracer = nullptr) {
  ScenarioParams p;
  p.tracer = tracer;
  p.num_servers = 1;
  p.config.acceptance_limit = 1;
  p.config.reliable_communication = true;
  p.config.unique_execution = true;
  p.config.retrans_timeout = sim::msec(50);
  p.config.orphan = orphan;
  p.config.execution = ExecutionMode::kSerial;
  p.server_app = log.app();
  return p;
}

/// Crash the client 20ms into its first call (the server is mid-execution),
/// recover it, and issue a second call from the new incarnation.
template <typename ScenarioT>
void run_orphan_scenario(ScenarioT& s, CallResult& second_result) {
  Site& client_site = s.client_site(0);
  s.scheduler().schedule_after(sim::msec(20), [&] { client_site.crash(); });
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    (void)co_await c.call(s.group(), kSlowAppend, num_buf(1));  // killed mid-flight
  });
  client_site.recover();
  Client fresh(client_site);
  auto driver = [&](Client& c) -> sim::Task<> {
    second_result = co_await c.call(s.group(), kSlowAppend, num_buf(2));
  };
  s.scheduler().spawn(driver(fresh), client_site.domain());
  s.run_for(sim::seconds(3));
}

TEST(OrphanIgnore, OrphanRunsToCompletion) {
  SlowLog log;
  Scenario s(orphan_params(OrphanHandling::kIgnore, log));
  CallResult second;
  run_orphan_scenario(s, second);
  EXPECT_EQ(second.status, Status::kOk);
  // The orphaned call finished (1 appears) and the new call too.
  ASSERT_EQ(log.completed.size(), 2u);
  EXPECT_EQ(log.completed[0], 1u) << "ignored orphan completes first";
  EXPECT_EQ(log.completed[1], 2u);
}

TEST(InterferenceAvoidance, NewIncarnationWaitsForOrphanToDrain) {
  SlowLog log;
  obs::Tracer tracer;
  Scenario s(orphan_params(OrphanHandling::kInterferenceAvoidance, log, &tracer));
  CallResult second;
  run_orphan_scenario(s, second);
  EXPECT_EQ(second.status, Status::kOk);
  ASSERT_EQ(log.completed.size(), 2u);
  EXPECT_EQ(log.completed[0], 1u) << "old generation drains before the new one starts";
  EXPECT_EQ(log.completed[1], 2u);
  EXPECT_GT(records(tracer, s.server(0), obs::Kind::kCallDeferred), 0u)
      << "the new call must have been deferred at least once";
}

TEST(TerminateOrphan, OrphanIsKilledAndNewCallProceeds) {
  SlowLog log;
  obs::Tracer tracer;
  Scenario s(orphan_params(OrphanHandling::kTerminateOrphans, log, &tracer));
  CallResult second;
  run_orphan_scenario(s, second);
  EXPECT_EQ(second.status, Status::kOk);
  // The orphan died mid-sleep: only the new call's value is in the log.
  ASSERT_EQ(log.completed.size(), 1u);
  EXPECT_EQ(log.completed[0], 2u);
  EXPECT_EQ(records(tracer, s.server(0), obs::Kind::kOrphanKilled), 1u);
}

TEST(TerminateOrphan, SerialTokenIsReleasedWhenHolderKilled) {
  // The orphan holds the serial token while executing; killing it must free
  // the token or the second call deadlocks.  The second call completing
  // (previous test) already implies this; here we additionally check the
  // holder bookkeeping is clean afterwards.
  SlowLog log;
  Scenario s(orphan_params(OrphanHandling::kTerminateOrphans, log));
  CallResult second;
  run_orphan_scenario(s, second);
  EXPECT_EQ(second.status, Status::kOk);
  EXPECT_FALSE(s.server(0).grpc().state().serial_holder.has_value());
  EXPECT_EQ(s.server(0).grpc().state().serial.count(), 1) << "token fully returned";
}

// A killed execution never reaches the end that would erase its sRPC row,
// so the kill erases it.  Without Unique Execution nothing else would: the
// row stayed, and the stall watchdog counted it as an orphaned entry.
TEST(TerminateOrphan, KilledCallLeavesNoServerRow) {
  SlowLog log;
  obs::Tracer tracer;
  ScenarioParams p = orphan_params(OrphanHandling::kTerminateOrphans, log, &tracer);
  p.config = ConfigBuilder::at_least_once()
                 .orphan_handling(OrphanHandling::kTerminateOrphans)
                 .acceptance_limit(1)
                 .build();
  Scenario s(std::move(p));
  CallResult second;
  run_orphan_scenario(s, second);
  s.run_for(sim::seconds(2));
  EXPECT_EQ(second.status, Status::kOk);
  EXPECT_EQ(records(tracer, s.server(0), obs::Kind::kOrphanKilled), 1u);
  const GrpcState& server = s.server(0).grpc().state();
  for (const auto& [id, row] : server.sRPC) {
    ADD_FAILURE() << "call " << id.value() << " of incarnation " << row.client_inc
                  << " is still in sRPC";
  }
}

TEST(OrphanIgnore, StaleIncarnationRequestsAreDropped) {
  // After the client recovers, a lingering duplicate of the OLD incarnation
  // must not execute (InterferenceAvoidance path: Cinfo.inc > msg.inc).
  SlowLog log;
  Scenario s(orphan_params(OrphanHandling::kInterferenceAvoidance, log));
  CallResult second;
  run_orphan_scenario(s, second);
  const std::size_t executed = log.completed.size();
  // Manually re-inject the first incarnation's call (a very late duplicate).
  net::NetMessage stale;
  stale.type = net::MsgType::kCall;
  stale.id = make_call_id(s.client_id(0), first_seq_of_incarnation(1));
  stale.op = kSlowAppend;
  Writer(stale.args).u64(1);
  stale.server = s.group();
  stale.sender = s.client_id(0);
  stale.inc = 1;  // dead incarnation
  s.network().attach(ProcessId{99}, DomainId{99});
  // Send it "from" the client's address via a raw endpoint injection: use
  // the client's own endpoint (sender field is what the protocol reads).
  s.client_site(0).grpc().state().net_push(Scenario::server_id(0), stale);
  s.run_for(sim::seconds(1));
  EXPECT_EQ(log.completed.size(), executed) << "stale-incarnation call must not execute";
}


TEST(TerminateOrphan, ProbingKillsOrphanOfClientThatNeverRecovers) {
  // The paper's second detection approach: the membership service's
  // heartbeats are the probe.  The client crashes mid-call and never comes
  // back; no new-incarnation message will ever arrive, yet the orphan must
  // still die once the failure detector fires.
  SlowLog log;
  obs::Tracer tracer;
  ScenarioParams p = orphan_params(OrphanHandling::kTerminateOrphans, log, &tracer);
  p.config.use_membership = true;
  p.config.membership_params = {sim::msec(10), sim::msec(50)};
  // A procedure slow enough that the detector fires while it runs.
  p.server_app = [&log](UserProtocol& user, Site& site) {
    user.set_procedure([&log, &site](OpId, Buffer& args) -> sim::Task<> {
      const std::uint64_t v = Reader(args).u64();
      co_await site.scheduler().sleep_for(sim::msec(400));
      log.completed.push_back(v);
    });
  };
  Scenario s(std::move(p));
  Site& client_site = s.client_site(0);
  s.scheduler().schedule_after(sim::msec(20), [&] { client_site.crash(); });
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    (void)co_await c.call(s.group(), kSlowAppend, num_buf(1));
  });
  s.run_for(sim::seconds(2));
  EXPECT_TRUE(log.completed.empty()) << "the orphan must have been killed mid-sleep";
  EXPECT_EQ(records(tracer, s.server(0), obs::Kind::kOrphanKilled), 1u);
}


TEST(InterferenceAvoidance, SurvivesMultipleGenerations) {
  // The client crashes and recovers twice while calls are in flight; each
  // generation must drain before the next starts, and the final call
  // completes from the third incarnation.
  SlowLog log;
  Scenario s(orphan_params(OrphanHandling::kInterferenceAvoidance, log));
  Site& client_site = s.client_site(0);
  // Generation 1.
  s.scheduler().schedule_after(sim::msec(20), [&] { client_site.crash(); });
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    (void)co_await c.call(s.group(), kSlowAppend, num_buf(1));
  });
  // Generation 2: recover, issue, crash mid-flight again.
  client_site.recover();
  Client second_client(client_site);
  s.scheduler().schedule_after(sim::msec(40), [&] { client_site.crash(); });
  auto driver2 = [&](Client& c) -> sim::Task<> {
    (void)co_await c.call(s.group(), kSlowAppend, num_buf(2));
  };
  s.scheduler().spawn(driver2(second_client), client_site.domain());
  s.run_for(sim::msec(60));
  // Generation 3: recover and complete a call.
  client_site.recover();
  Client third_client(client_site);
  CallResult final_result;
  auto driver3 = [&](Client& c) -> sim::Task<> {
    final_result = co_await c.call(s.group(), kSlowAppend, num_buf(3));
  };
  s.scheduler().spawn(driver3(third_client), client_site.domain());
  s.run_for(sim::seconds(5));
  EXPECT_EQ(final_result.status, Status::kOk);
  EXPECT_EQ(client_site.incarnation(), 3u);
  // All admitted executions completed in generation order.
  ASSERT_FALSE(log.completed.empty());
  for (std::size_t i = 1; i < log.completed.size(); ++i) {
    EXPECT_LE(log.completed[i - 1], log.completed[i]) << "generations must not interleave";
  }
  EXPECT_EQ(log.completed.back(), 3u);
}

}  // namespace
}  // namespace ugrpc::core
