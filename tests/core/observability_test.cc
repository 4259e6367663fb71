// Tests for the trace/observability hooks: the framework's per-handler
// trace observer and the message records an attached obs::Tracer collects
// from the simulated network, exercised through a full call so the recorded
// sequences reflect real protocol behaviour.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/micro/acceptance.h"
#include "core/scenario.h"
#include "membership/membership.h"
#include "obs/trace.h"

namespace ugrpc::core {
namespace {

constexpr OpId kOp{1};

TEST(TraceObserver, RecordsHandlerChainOfACall) {
  ScenarioParams p;
  p.num_servers = 1;
  p.config.acceptance_limit = 1;
  Scenario s(std::move(p));
  std::vector<std::string> client_events;
  s.client_site(0).grpc().framework().set_trace_observer(
      [&](sim::Time, const std::string& event, const std::string& handler) {
        client_events.push_back(event + "/" + handler);
      });
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    (void)co_await c.call(s.group(), kOp, Buffer{});
  });
  // The client-side story: user call enters, record created, call sent,
  // reply processed, acceptance completes.
  ASSERT_FALSE(client_events.empty());
  EXPECT_EQ(client_events.front(), "CALL_FROM_USER/RPCMain.call_from_user");
  bool saw_new_call = false;
  bool saw_accept = false;
  for (const std::string& e : client_events) {
    if (e == "NEW_RPC_CALL/Acceptance.handle_new_call") saw_new_call = true;
    if (e == "REPLY_FROM_NETWORK/Acceptance.reply_from_net") saw_accept = true;
  }
  EXPECT_TRUE(saw_new_call);
  EXPECT_TRUE(saw_accept);
}

TEST(TraceObserver, ObserverSeesVirtualTimeMonotonically) {
  ScenarioParams p;
  p.num_servers = 2;
  p.config.acceptance_limit = kAll;
  Scenario s(std::move(p));
  std::vector<sim::Time> times;
  s.client_site(0).grpc().framework().set_trace_observer(
      [&](sim::Time t, const std::string&, const std::string&) { times.push_back(t); });
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    for (int i = 0; i < 3; ++i) (void)co_await c.call(s.group(), kOp, Buffer{});
  });
  for (std::size_t i = 1; i < times.size(); ++i) EXPECT_GE(times[i], times[i - 1]);
}

TEST(TraceObserver, RemovableWithNullptr) {
  ScenarioParams p;
  p.num_servers = 1;
  p.config.acceptance_limit = 1;
  Scenario s(std::move(p));
  int count = 0;
  auto& fw = s.client_site(0).grpc().framework();
  fw.set_trace_observer([&](sim::Time, const std::string&, const std::string&) { ++count; });
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    (void)co_await c.call(s.group(), kOp, Buffer{});
  });
  const int after_first = count;
  EXPECT_GT(after_first, 0);
  fw.set_trace_observer(nullptr);
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    (void)co_await c.call(s.group(), kOp, Buffer{});
  });
  EXPECT_EQ(count, after_first);
}

TEST(PacketTracer, ObservesDeliveriesAndDrops) {
  ScenarioParams p;
  p.num_servers = 1;
  p.config.acceptance_limit = 1;
  p.config.reliable_communication = true;
  p.config.retrans_timeout = sim::msec(20);
  p.faults.drop_prob = 0.5;
  p.seed = 8;
  obs::Tracer tracer;
  p.tracer = &tracer;
  Scenario s(std::move(p));
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    for (int i = 0; i < 10; ++i) (void)co_await c.call(s.group(), kOp, Buffer{});
  });
  EXPECT_GT(tracer.count(obs::Kind::kMsgSent), 0u);
  EXPECT_GT(tracer.count(obs::Kind::kMsgDelivered), 0u);
  EXPECT_GT(tracer.count(obs::Kind::kMsgDropped), 0u);
  EXPECT_EQ(tracer.count(obs::Kind::kMsgDropped), s.network().stats().dropped);
}

TEST(PacketTracer, SeesProtocolDemuxKeys) {
  ScenarioParams p;
  p.num_servers = 1;
  p.config.acceptance_limit = 1;
  p.config.use_membership = true;
  obs::Tracer tracer;
  p.tracer = &tracer;
  Scenario s(std::move(p));
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    (void)co_await c.call(s.group(), kOp, Buffer{});
  }, sim::msec(500));
  // Heartbeats repeat every interval; give a few periods beyond the call.
  s.run_for(sim::msec(200));
  // Message records carry the protocol id (the demux key) in `b`.
  bool saw_grpc = false;
  bool saw_membership = false;
  for (const obs::Event& e : tracer.merged()) {
    if (e.kind != obs::Kind::kMsgSent && e.kind != obs::Kind::kMsgDelivered) continue;
    if (e.b == kGrpcProto.value()) saw_grpc = true;
    if (e.b == membership::kMembershipProto.value()) saw_membership = true;
  }
  EXPECT_EQ(tracer.total_dropped(), 0u);
  EXPECT_TRUE(saw_grpc);
  EXPECT_TRUE(saw_membership);
}

}  // namespace
}  // namespace ugrpc::core
