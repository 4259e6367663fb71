// Unit tests for Task<T> value/exception propagation and move semantics,
// and for the coroutine frame pool.
#include "sim/task.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>

#include "sim/scheduler.h"
#include "sim/sync.h"

namespace ugrpc::sim {
namespace {

Task<int> make_int() { co_return 41; }

Task<std::string> make_string() { co_return "value"; }

Task<std::unique_ptr<int>> make_move_only() { co_return std::make_unique<int>(9); }

Task<> consume(std::vector<std::string>& out) {
  const int i = co_await make_int();
  const std::string s = co_await make_string();
  std::unique_ptr<int> p = co_await make_move_only();
  out.push_back(std::to_string(i) + s + std::to_string(*p));
}

TEST(Task, ValueTypesPropagate) {
  Scheduler sched;
  std::vector<std::string> out;
  sched.spawn(consume(out));
  sched.run();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], "41value9");
}

Task<int> throwing_int() {
  co_await std::suspend_never{};
  throw std::runtime_error("nope");
}

Task<> catch_from_value_task(bool& caught) {
  try {
    (void)co_await throwing_int();
  } catch (const std::runtime_error&) {
    caught = true;
  }
}

TEST(Task, ExceptionFromValueTaskPropagates) {
  Scheduler sched;
  bool caught = false;
  sched.spawn(catch_from_value_task(caught));
  sched.run();
  EXPECT_TRUE(caught);
}

TEST(Task, MoveTransfersOwnership) {
  Task<int> a = make_int();
  EXPECT_TRUE(a.valid());
  Task<int> b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move) - asserting moved-from state
  EXPECT_TRUE(b.valid());
  Task<int> c;
  c = std::move(b);
  EXPECT_TRUE(c.valid());
  // c's destructor destroys the never-started frame without leaking.
}

Task<> never_started(int& touched) {
  ++touched;
  co_return;
}

TEST(Task, DestroyingUnstartedTaskIsSafe) {
  int touched = 0;
  {
    Task<> t = never_started(touched);
    EXPECT_TRUE(t.valid());
  }  // destroyed without ever resuming: lazy start means the body never ran
  EXPECT_EQ(touched, 0);
}

Task<int> deep(int n) {
  if (n == 0) co_return 0;
  co_return 1 + co_await deep(n - 1);
}

Task<> run_deep(int& result) { result = co_await deep(200); }

TEST(Task, DeepAwaitChains) {
  Scheduler sched;
  int result = 0;
  sched.spawn(run_deep(result));
  sched.run();
  EXPECT_EQ(result, 200);
}

Task<> waits_then_returns(Scheduler& sched, int& order, int tag) {
  co_await sched.sleep_for(msec(tag));
  order = order * 10 + tag;
}

Task<> sequential_awaits(Scheduler& sched, int& order) {
  co_await waits_then_returns(sched, order, 1);
  co_await waits_then_returns(sched, order, 2);
  co_await waits_then_returns(sched, order, 3);
}

TEST(Task, SequentialAwaitsRunInOrderAcrossSuspensions) {
  Scheduler sched;
  int order = 0;
  sched.spawn(sequential_awaits(sched, order));
  sched.run();
  EXPECT_EQ(order, 123);
  EXPECT_EQ(sched.now(), msec(6));
}

// Killing a fiber blocked deep in a nested await chain must unwind every
// frame (each with RAII locals) without touching freed queues.
struct UnwindCounter {
  int* count;
  explicit UnwindCounter(int* c) : count(c) {}
  ~UnwindCounter() { ++*count; }
};

Task<> leaf(Semaphore& sem, int* unwound) {
  UnwindCounter guard(unwound);
  co_await sem.acquire();
}

Task<> mid(Semaphore& sem, int* unwound) {
  UnwindCounter guard(unwound);
  co_await leaf(sem, unwound);
}

Task<> root(Semaphore& sem, int* unwound) {
  UnwindCounter guard(unwound);
  co_await mid(sem, unwound);
}

TEST(Task, KillUnwindsNestedFrames) {
  Scheduler sched;
  Semaphore sem(sched, 0);
  int unwound = 0;
  FiberId id = sched.spawn(root(sem, &unwound));
  sched.run();
  EXPECT_EQ(unwound, 0);
  sched.kill(id);
  EXPECT_EQ(unwound, 3) << "all three frames' locals must be destroyed";
  sem.release();
  sched.run();  // must not resume destroyed frames
}

// ---- coroutine frame pool ----

using detail::FramePool;

/// A coroutine whose frame holds N bytes of locals, so N picks its size
/// class.  Only its address matters: it is created, never run.
template <std::size_t N>
Task<> padded() {
  std::array<std::byte, N> pad{};
  co_await std::suspend_always{};
  static_cast<void>(*static_cast<volatile std::byte*>(&pad[N - 1]));
}

class TaskFramePool : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!detail::kFramePoolEnabled) {
      GTEST_SKIP() << "AddressSanitizer build: the frame pool is compiled out "
                      "(Task.FramePoolIsOffUnderAddressSanitizer covers it)";
    }
  }
};

TEST_F(TaskFramePool, DestroyedFrameIsReusedBySameSizeClass) {
  void* first = nullptr;
  {
    const Task<> t = padded<16>();
    first = t.handle().address();
  }
  const Task<> again = padded<16>();
  EXPECT_EQ(again.handle().address(), first);
}

TEST_F(TaskFramePool, SizeClassesKeepSeparateLists) {
  void* small = nullptr;
  {
    const Task<> t = padded<16>();
    small = t.handle().address();
  }
  // A frame of another class must not take the small frame's block...
  const Task<> large = padded<1024>();
  EXPECT_NE(large.handle().address(), small);
  // ...which stays on its own list for the next small frame.
  const Task<> small_again = padded<16>();
  EXPECT_EQ(small_again.handle().address(), small);
}

TEST_F(TaskFramePool, FrameAboveLargestClassBypassesPool) {
  { const Task<> warm = padded<16>(); }
  const std::size_t before = FramePool::cached();
  {
    const Task<> huge = padded<2 * FramePool::kMaxPooled>();
    EXPECT_EQ(FramePool::cached(), before) << "a huge frame must not come from a list";
  }
  EXPECT_EQ(FramePool::cached(), before) << "a huge frame must not be kept on a list";
}

// Killing a domain destroys every fiber's whole await chain; each frame of
// each chain must come back to the pool.
TEST_F(TaskFramePool, KillDomainReturnsEveryFrame) {
  constexpr DomainId kDomain{7};
  constexpr int kFibers = 4;
  Scheduler sched;
  Semaphore sem(sched, 0);
  int unwound = 0;
  const auto spawn_chains = [&] {
    for (int i = 0; i < kFibers; ++i) sched.spawn(root(sem, &unwound), kDomain);
    sched.run();
  };
  // The first round may find the lists short and allocate; after its kill
  // the lists hold every frame the round needs.
  spawn_chains();
  sched.kill_domain(kDomain);
  const std::size_t cached = FramePool::cached();
  spawn_chains();
  EXPECT_EQ(FramePool::cached(), cached - 3 * kFibers) << "root, mid and leaf of every fiber";
  sched.kill_domain(kDomain);
  EXPECT_EQ(FramePool::cached(), cached);
  EXPECT_EQ(unwound, 2 * 3 * kFibers);
}

// A frame destroyed after its thread's pool was freed (by a thread_local
// destructor that runs after the pool's) goes to global delete: no crash,
// and no block left on a list that nothing will free.
TEST(Task, FrameFreedAfterThreadPoolIsGoneIsSafe) {
  std::atomic<std::size_t> cached_after_exit{~std::size_t{0}};
  std::thread([&cached_after_exit] {
    struct Holder {
      Task<> task;
      std::atomic<std::size_t>* out = nullptr;
      ~Holder() {
        task = Task<>();
        if (out != nullptr) *out = FramePool::cached();
      }
    };
    // Constructed before this thread's first frame arms the pool's exit
    // hook, so destroyed after the hook has freed the lists.
    static thread_local Holder holder;
    holder.out = &cached_after_exit;
    { const Task<> first = padded<16>(); }
    holder.task = padded<16>();
  }).join();
  EXPECT_EQ(cached_after_exit.load(), 0u);
}

TEST(Task, FramePoolIsOffUnderAddressSanitizer) {
  if (detail::kFramePoolEnabled) {
    GTEST_SKIP() << "frame pool build: this check runs in the AddressSanitizer build";
  }
  // ASan's quarantine holds a freed frame back, so a recycled-size frame
  // gets a fresh address -- unless a pool handed the freed block back.
  void* first = nullptr;
  {
    const Task<> t = padded<16>();
    first = t.handle().address();
  }
  const Task<> again = padded<16>();
  EXPECT_NE(again.handle().address(), first);
  EXPECT_EQ(FramePool::cached(), 0u);
}

}  // namespace
}  // namespace ugrpc::sim
