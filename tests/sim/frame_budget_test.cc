// Coroutine frames per group RPC on the steady-state call path.
//
// A handler that cannot block runs as a plain call; only one that may
// suspend, a fiber, a trigger() and what they await cost a coroutine frame.
// This test counts the frames the frame pool hands out on the simulation's
// thread while 1 client calls 3 servers on a loss-free network (64 B args):
// 500 warm-up calls, then 2,000 counted ones, the scenarios of AllocBudget.
// The bounds sit at or a little above today's counts (65.59, 42.00 and
// 42.04; read_optimized's deadline timer fires about once per bound, not
// once per call), so a handler that turns back into a coroutine without
// needing to suspend fails here.  With every handler a coroutine, the same
// runs counted 96.05, 55.29 and 64.05 frames per call.
//
// Under AddressSanitizer the frame pool is compiled out, so nothing is
// counted and the bounds are skipped.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <vector>

#include "core/config_builder.h"
#include "core/scenario.h"
#include "sim/task.h"

namespace ugrpc::core {
namespace {

constexpr OpId kOp{1};
constexpr int kWarmupCalls = 500;
constexpr int kCountedCalls = 2'000;

/// Coroutine frames per call of `config`, counted over kCountedCalls calls
/// after kWarmupCalls; every call must succeed.
double frames_per_call(Config config) {
  ScenarioParams p;
  p.num_servers = 3;
  p.num_clients = 1;
  p.config = std::move(config);
  Scenario s(std::move(p));
  const Buffer args(std::vector<std::byte>(64, std::byte{0x5a}));
  int completed = 0;
  std::uint64_t first = 0;
  std::uint64_t last = 0;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    for (int i = 0; i < kWarmupCalls + kCountedCalls; ++i) {
      if (i == kWarmupCalls) first = sim::detail::FramePool::frames();
      const CallResult r = co_await c.call(s.group(), kOp, args);
      completed += r.ok() ? 1 : 0;
    }
    last = sim::detail::FramePool::frames();
  });
  EXPECT_EQ(completed, kWarmupCalls + kCountedCalls);
  const double per_call = static_cast<double>(last - first) / kCountedCalls;
  std::printf("coroutine frames per call: %.2f\n", per_call);
  return per_call;
}

class FrameBudget : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!sim::detail::kFramePoolEnabled) {
      GTEST_SKIP() << "AddressSanitizer build: the coroutine frame pool is compiled out, so no "
                      "frame is counted";
    }
  }
};

TEST_F(FrameBudget, OrderedWrite) {
  EXPECT_LE(frames_per_call(ConfigBuilder::at_most_once().total_order().build()), 66.0);
}

TEST_F(FrameBudget, ReadOptimized) {
  EXPECT_LE(frames_per_call(ConfigBuilder::read_optimized().build()), 42.0);
}

TEST_F(FrameBudget, ExactlyOnce) {
  EXPECT_LE(frames_per_call(ConfigBuilder::exactly_once().build()), 43.0);
}

}  // namespace
}  // namespace ugrpc::core
