// Unit tests for the Site lifecycle (boot/crash/recover) and its contract
// with the stable store and the network.
#include "core/site.h"

#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "core/micro/acceptance.h"
#include "core/scenario.h"
#include "core/telemetry.h"
#include "net/network.h"
#include "net/udp_transport.h"
#include "obs/trace.h"

namespace ugrpc::core {
namespace {

constexpr OpId kOp{1};

TEST(Site, BootBringsSiteUpWithIncarnationOne) {
  ScenarioParams p;
  Scenario s(std::move(p));
  EXPECT_TRUE(s.server(0).up());
  EXPECT_EQ(s.server(0).incarnation(), 1u);
  EXPECT_TRUE(s.network().process_up(Scenario::server_id(0)));
}

TEST(Site, CrashTakesSiteDownAndKillsFibers) {
  ScenarioParams p;
  p.num_servers = 1;
  p.server_app = [](UserProtocol& user, Site& site) {
    user.set_procedure([&site](OpId, Buffer&) -> sim::Task<> {
      co_await site.scheduler().sleep_for(sim::seconds(100));  // effectively forever
    });
  };
  Scenario s(std::move(p));
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    (void)co_await c.call_async(s.group(), kOp, Buffer{});  // cannot: sync config...
  }, sim::msec(50));
  const std::size_t fibers_before = s.scheduler().live_fiber_count();
  s.server(0).crash();
  EXPECT_FALSE(s.server(0).up());
  EXPECT_FALSE(s.network().process_up(Scenario::server_id(0)));
  EXPECT_LT(s.scheduler().live_fiber_count(), fibers_before)
      << "the server's in-flight procedure fiber must be killed";
}

TEST(Site, StableStoreSurvivesCrash) {
  ScenarioParams p;
  p.num_servers = 1;
  Scenario s(std::move(p));
  Buffer v;
  Writer(v).u64(42);
  s.server(0).stable().put("k", v);
  s.server(0).crash();
  s.server(0).recover();
  auto got = s.server(0).stable().get("k");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(Reader(*got).u64(), 42u);
}

TEST(Site, RecoverRunsAppSetupAgain) {
  int setups = 0;
  ScenarioParams p;
  p.num_servers = 1;
  p.server_app = [&setups](UserProtocol& user, Site&) {
    ++setups;
    user.set_procedure([](OpId, Buffer&) -> sim::Task<> { co_return; });
  };
  Scenario s(std::move(p));
  EXPECT_EQ(setups, 1);
  s.server(0).crash();
  s.server(0).recover();
  EXPECT_EQ(setups, 2) << "the application re-initializes with the volatile stack";
  EXPECT_EQ(s.server(0).incarnation(), 2u);
}

TEST(Site, TotalExecutionsAccumulatesAcrossIncarnations) {
  ScenarioParams p;
  p.num_servers = 1;
  p.config.acceptance_limit = 1;
  Scenario s(std::move(p));
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    (void)co_await c.call(s.group(), kOp, Buffer{});
  });
  EXPECT_EQ(s.server(0).total_executions(), 1u);
  s.server(0).crash();
  s.server(0).recover();
  s.run_for(sim::msec(10));
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    (void)co_await c.call(s.group(), kOp, Buffer{});
  });
  EXPECT_EQ(s.server(0).total_executions(), 2u)
      << "executions from before the crash must still be counted";
}

TEST(Site, RepeatedCrashRecoverCycles) {
  ScenarioParams p;
  p.num_servers = 1;
  p.config.acceptance_limit = 1;
  p.config.reliable_communication = true;
  Scenario s(std::move(p));
  for (int cycle = 0; cycle < 5; ++cycle) {
    s.server(0).crash();
    s.run_for(sim::msec(5));
    s.server(0).recover();
    s.run_for(sim::msec(5));
  }
  EXPECT_EQ(s.server(0).incarnation(), 6u);
  CallResult result;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    result = co_await c.call(s.group(), kOp, Buffer{});
  });
  EXPECT_EQ(result.status, Status::kOk) << "the service works after many cycles";
}

TEST(CallIdScheme, PacksClientAndSequence) {
  const ProcessId client{77};
  const CallId id = make_call_id(client, first_seq_of_incarnation(3) + 5);
  EXPECT_EQ(call_client(id), client);
  EXPECT_EQ(call_seq(id), first_seq_of_incarnation(3) + 5);
  EXPECT_EQ(call_seq(next_call_id(id)), first_seq_of_incarnation(3) + 6);
  EXPECT_EQ(call_client(next_call_id(id)), client);
}

TEST(CallIdScheme, DifferentClientsNeverCollide) {
  const CallId a = make_call_id(ProcessId{1}, 5);
  const CallId b = make_call_id(ProcessId{2}, 5);
  EXPECT_NE(a, b);
}

/// Two sites on `t`, whose only tracing switch is the transport's
/// set_tracer, and one call between them: each site's ring holds its own
/// lifecycle and stack records beside its message spans, and the client's
/// telemetry counts the call from the same tracer.
void check_transport_tracer_traces_every_site(
    net::Transport& t, obs::Tracer& tracer, const std::function<bool(FiberId)>& run_until_done) {
  constexpr ProcessId kServer{1};
  constexpr ProcessId kClient{2};
  constexpr GroupId kGroup{1};
  t.set_tracer(&tracer);
  const std::set<ProcessId> known{kServer, kClient};
  Site server(t, kServer, Config{}, known);
  Site client(t, kClient, Config{}, known);
  t.define_group(kGroup, {kServer});
  server.set_app(echo_app);
  server.boot();
  client.boot();

  Client c(client);
  Status status = Status::kWaiting;
  const FiberId fiber = t.spawn(
      [](Client& c, Status& status) -> sim::Task<> {
        status = (co_await c.call(kGroup, kOp, Buffer{})).status;
      }(c, status),
      client.domain());
  ASSERT_TRUE(run_until_done(fiber));
  ASSERT_EQ(status, Status::kOk);

  const auto records = [&](ProcessId site, obs::Kind kind) {
    std::size_t n = 0;
    for (const obs::Event& e : tracer.site(site).events()) n += e.kind == kind ? 1 : 0;
    return n;
  };
  const auto spans = [&](ProcessId site, obs::Kind kind) {
    std::size_t n = 0;
    for (const obs::Span& span : tracer.spans()) n += span.site == site && span.kind == kind;
    return n;
  };
  EXPECT_EQ(records(kClient, obs::Kind::kCallIssued), 1u);
  EXPECT_EQ(records(kServer, obs::Kind::kExecStarted), 1u);
  EXPECT_EQ(records(kServer, obs::Kind::kExecCommitted), 1u);
  for (ProcessId site : {kServer, kClient}) {
    EXPECT_GE(spans(site, obs::Kind::kMsgSent), 1u) << "site " << site.value();
    EXPECT_GE(spans(site, obs::Kind::kMsgDelivered), 1u) << "site " << site.value();
  }

  const SiteTelemetry telemetry(client);
  std::uint64_t started = 0;
  for (const obs::live::Counter& counter : telemetry.counters()) {
    if (counter.name == "calls.started") started = counter.value;
  }
  EXPECT_EQ(started, 1u);
}

TEST(Site, TracesThroughItsTransportInTheSimulator) {
  obs::Tracer tracer;  // outlives the transport that records into it
  sim::Scheduler sched{1};
  net::Network net{sched};
  check_transport_tracer_traces_every_site(net, tracer, [&](FiberId fiber) {
    while (sched.fiber_alive(fiber) && sched.step()) {
    }
    return !sched.fiber_alive(fiber);
  });
}

TEST(Site, TracesThroughItsTransportOverUdp) {
  obs::Tracer tracer;
  net::UdpTransport t;
  check_transport_tracer_traces_every_site(
      t, tracer, [&](FiberId fiber) { return t.run_until_fiber_done(fiber, sim::seconds(10)); });
}

}  // namespace
}  // namespace ugrpc::core
