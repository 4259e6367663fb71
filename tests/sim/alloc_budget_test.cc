// Heap allocations per group RPC on the steady-state call path.
//
// Every handler that may block is a coroutine and every message is a
// Buffer, so the allocator is a per-layer cost of the micro-protocol
// composition.  This binary replaces the global operator new with one that
// counts, runs 1 client against 3 servers on a loss-free network (64 B
// args), warms the path up with 500 calls and then counts the allocations of
// the next 2,000.  The bounds sit a little above what the call path needs
// today, so a change that puts an allocation back on every call -- a
// coroutine frame that misses the frame pool, a message buffer that regrows,
// a string built per timer, a map node per fiber, timer, packet in flight or
// stored checkpoint, arguments copied out of a received message, a second
// allocation per encoded message -- fails here.
//
// It is a binary of its own because it replaces operator new for the whole
// program.  Under AddressSanitizer the replacement is compiled out (ASan's
// own operator new must see every allocation) and the bounds are skipped.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/config_builder.h"
#include "core/scenario.h"

namespace {

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kCounting = false;
#else
constexpr bool kCounting = true;
#endif
// The simulation runs on one thread, so plain globals suffice.
bool g_counting = false;
std::uint64_t g_allocations = 0;

}  // namespace

#if !defined(__SANITIZE_ADDRESS__)
// The standard library's array and nothrow forms forward to these.  None is
// inlined: GCC would otherwise warn that malloc's pointer meets operator
// delete, or operator new's meets free().
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace ugrpc::core {
namespace {

constexpr OpId kOp{1};
constexpr int kWarmupCalls = 500;
constexpr int kCountedCalls = 2'000;

/// Allocations per call of `config`, counted over kCountedCalls calls after
/// kWarmupCalls; every call must succeed.
double allocations_per_call(Config config) {
  ScenarioParams p;
  p.num_servers = 3;
  p.num_clients = 1;
  p.config = std::move(config);
  Scenario s(std::move(p));
  const Buffer args(std::vector<std::byte>(64, std::byte{0x5a}));
  int failed = 0;
  int completed = 0;
  std::uint64_t allocations = 0;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    for (int i = 0; i < kWarmupCalls + kCountedCalls; ++i) {
      if (i == kWarmupCalls) {
        g_allocations = 0;
        g_counting = true;
      }
      const CallResult r = co_await c.call(s.group(), kOp, args);
      if (r.ok()) {
        ++completed;
      } else {
        ++failed;
      }
    }
    g_counting = false;
    allocations = g_allocations;
  });
  EXPECT_EQ(failed, 0);
  EXPECT_EQ(completed, kWarmupCalls + kCountedCalls);
  const double per_call = static_cast<double>(allocations) / kCountedCalls;
  std::printf("allocations per call: %.1f\n", per_call);
  return per_call;
}

class AllocBudget : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kCounting) {
      GTEST_SKIP() << "AddressSanitizer build: operator new is ASan's own (not counted) and "
                      "the coroutine frame pool is compiled out, so the budget does not apply";
    }
  }
};

TEST_F(AllocBudget, OrderedWrite) {
  EXPECT_LE(allocations_per_call(ConfigBuilder::at_most_once().total_order().build()), 17.0);
}

TEST_F(AllocBudget, ReadOptimized) {
  EXPECT_LE(allocations_per_call(ConfigBuilder::read_optimized().build()), 10.0);
}

TEST_F(AllocBudget, ExactlyOnce) {
  EXPECT_LE(allocations_per_call(ConfigBuilder::exactly_once().build()), 10.0);
}

}  // namespace
}  // namespace ugrpc::core
