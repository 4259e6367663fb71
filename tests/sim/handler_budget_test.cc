// Event handler runs per group RPC on the steady-state call path.
//
// Every handler the framework runs costs a dispatch, traced or not, and a
// handler that may block a coroutine frame too (frame_budget_test.cc counts
// those), so the count is a per-layer cost of the micro-protocol
// composition.  Each message kind raises an event of its own, so a chain
// holds only handlers that act on its kind.  This test counts, through the
// framework's trace observer on every site, the handlers run by 1 client
// and 3 servers on a loss-free network over 200 calls after 50 warm-up
// calls, for the three configurations the benchmark's workloads run.  A
// handler bound to a kind it ignores, or a chain that grows, fails here.
// The bounds are today's counts; with the paper's single network event and
// single user event, whose handlers filter by kind, the same runs counted
// 81.11, 30.08 and 41.08 handlers per call.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/config_builder.h"
#include "core/micro/acceptance.h"
#include "core/scenario.h"

namespace ugrpc::core {
namespace {

constexpr OpId kOp{1};
constexpr int kWarmupCalls = 50;
constexpr int kCountedCalls = 200;

/// Handler runs per call of `config` on all four sites, counted over
/// kCountedCalls calls after kWarmupCalls; every call must succeed.
double handlers_per_call(Config config) {
  ScenarioParams p;
  p.num_servers = 3;
  p.num_clients = 1;
  p.config = std::move(config);
  const bool async = p.config.call == CallSemantics::kAsynchronous;
  Scenario s(std::move(p));
  bool counting = false;
  std::uint64_t handlers = 0;
  std::vector<Site*> sites{&s.client_site(0)};
  for (int i = 0; i < s.num_servers(); ++i) sites.push_back(&s.server(i));
  for (Site* site : sites) {
    site->grpc().framework().set_trace_observer(
        [&](sim::Time, const std::string&, const std::string&) { handlers += counting ? 1 : 0; });
  }
  const Buffer args(std::vector<std::byte>(64, std::byte{0x5a}));
  int completed = 0;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    for (int i = 0; i < kWarmupCalls + kCountedCalls; ++i) {
      counting = i >= kWarmupCalls;
      CallResult r;
      if (async) {
        CallHandle h = co_await c.call_async(s.group(), kOp, args);
        r = co_await h.get();
      } else {
        r = co_await c.call(s.group(), kOp, args);
      }
      completed += r.ok() ? 1 : 0;
    }
  });
  // What the last call left in flight (the idle ACK flush, late Replies)
  // belongs to it too.
  s.run_for(sim::seconds(1));
  EXPECT_EQ(completed, kWarmupCalls + kCountedCalls);
  const double per_call = static_cast<double>(handlers) / kCountedCalls;
  std::printf("handlers per call: %.2f\n", per_call);
  return per_call;
}

// An Order sometimes reaches a follower before the client's Call does; the
// follower then runs the Call the Order carries through its own chain, and
// answers the client's late copy as a duplicate.
TEST(HandlerBudget, OrderedWrite) {
  EXPECT_LE(
      handlers_per_call(ConfigBuilder::at_most_once().total_order().acceptance_limit(kAll).build()),
      48.01);
}

TEST(HandlerBudget, ReadOptimized) {
  EXPECT_LE(handlers_per_call(ConfigBuilder::read_optimized().build()), 18.05);
}

TEST(HandlerBudget, AsynchronousExactlyOnce) {
  EXPECT_LE(handlers_per_call(
                ConfigBuilder::exactly_once().asynchronous().acceptance_limit(kAll).build()),
            27.02);
}

}  // namespace
}  // namespace ugrpc::core
