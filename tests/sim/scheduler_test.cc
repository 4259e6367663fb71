// Unit tests for the discrete-event scheduler: fiber lifecycle, virtual
// time, timers, kill semantics, determinism, the per-fiber ambient trace
// context, and the reuse of fiber and timer slots.
#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/config_builder.h"
#include "core/scenario.h"
#include "obs/trace.h"
#include "sim/sync.h"

namespace ugrpc::sim {
namespace {

Task<> append_value(std::vector<int>& out, int value) {
  out.push_back(value);
  co_return;
}

TEST(Scheduler, SpawnedFiberRunsOnStep) {
  Scheduler sched;
  std::vector<int> out;
  sched.spawn(append_value(out, 1));
  EXPECT_TRUE(out.empty()) << "spawn must not run the fiber inline";
  sched.run();
  EXPECT_EQ(out, std::vector<int>({1}));
}

TEST(Scheduler, FibersRunInSpawnOrder) {
  Scheduler sched;
  std::vector<int> out;
  for (int i = 0; i < 5; ++i) sched.spawn(append_value(out, i));
  sched.run();
  EXPECT_EQ(out, std::vector<int>({0, 1, 2, 3, 4}));
}

Task<> sleeper(Scheduler& sched, std::vector<Time>& out, Duration d) {
  co_await sched.sleep_for(d);
  out.push_back(sched.now());
}

TEST(Scheduler, SleepAdvancesVirtualTime) {
  Scheduler sched;
  std::vector<Time> wake_times;
  sched.spawn(sleeper(sched, wake_times, msec(5)));
  sched.spawn(sleeper(sched, wake_times, msec(2)));
  sched.run();
  ASSERT_EQ(wake_times.size(), 2u);
  EXPECT_EQ(wake_times[0], msec(2));
  EXPECT_EQ(wake_times[1], msec(5));
  EXPECT_EQ(sched.now(), msec(5));
}

TEST(Scheduler, SleepZeroDoesNotSuspend) {
  Scheduler sched;
  std::vector<Time> wake_times;
  sched.spawn(sleeper(sched, wake_times, 0));
  sched.run();
  ASSERT_EQ(wake_times.size(), 1u);
  EXPECT_EQ(wake_times[0], kTimeZero);
}

TEST(Scheduler, TimersFireInDeadlineThenRegistrationOrder) {
  Scheduler sched;
  std::vector<int> out;
  sched.schedule_after(msec(3), [&] { out.push_back(3); });
  sched.schedule_after(msec(1), [&] { out.push_back(1); });
  sched.schedule_after(msec(3), [&] { out.push_back(4); });  // same deadline, later reg
  sched.schedule_after(msec(2), [&] { out.push_back(2); });
  sched.run();
  EXPECT_EQ(out, std::vector<int>({1, 2, 3, 4}));
}

TEST(Scheduler, CancelledTimerDoesNotFire) {
  Scheduler sched;
  int fired = 0;
  TimerId id = sched.schedule_after(msec(1), [&] { ++fired; });
  sched.cancel_timer(id);
  sched.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sched.now(), kTimeZero) << "cancelled timer must not advance time";
}

TEST(Scheduler, RunUntilStopsAtDeadline) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_after(msec(10), [&] { ++fired; });
  sched.run_until(msec(4));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sched.now(), msec(4));
  sched.run_until(msec(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.now(), msec(20));
}

TEST(Scheduler, ScheduleAtFiresAtTheAbsoluteDeadline) {
  Scheduler sched;
  sched.run_until(msec(5));
  Time fired_at = 0;
  sched.schedule_at(msec(8), [&] { fired_at = sched.now(); });
  sched.run();
  EXPECT_EQ(fired_at, msec(8));
}

TEST(Scheduler, CallbackCancelsAnotherTimerDueInTheSameRunUntil) {
  Scheduler sched;
  int second_fired = 0;
  TimerId second{};
  // Both are due before the run_until limit; the first cancels the second
  // before the loop reaches it.
  sched.schedule_after(msec(5), [&] { sched.cancel_timer(second); });
  second = sched.schedule_after(msec(6), [&] { ++second_fired; });
  sched.run_until(msec(50));
  EXPECT_EQ(second_fired, 0);
}

TEST(Scheduler, TimerArmedByACallbackWaitsForItsOwnDeadline) {
  Scheduler sched;
  int chained = 0;
  sched.schedule_after(msec(5), [&] { sched.schedule_after(msec(100), [&] { ++chained; }); });
  sched.run_until(msec(10));
  EXPECT_EQ(chained, 0) << "the new timer is due at 105 ms, not in this batch";
  sched.run_until(msec(104));
  EXPECT_EQ(chained, 0);
  sched.run_until(msec(105));
  EXPECT_EQ(chained, 1);
}

TEST(Scheduler, NextTimerDeadlineSkipsACancelledEarliestTimer) {
  Scheduler sched;
  EXPECT_FALSE(sched.next_timer_deadline().has_value());
  sched.schedule_after(msec(30), [] {});
  const TimerId early = sched.schedule_after(msec(10), [] {});
  EXPECT_EQ(sched.next_timer_deadline(), std::optional<Time>(msec(10)));
  sched.cancel_timer(early);
  EXPECT_EQ(sched.next_timer_deadline(), std::optional<Time>(msec(30)));
  sched.run();
  EXPECT_FALSE(sched.next_timer_deadline().has_value());
}

Task<> nested_child(std::vector<int>& out) {
  out.push_back(2);
  co_return;
}

Task<int> nested_value() { co_return 42; }

Task<> nested_parent(std::vector<int>& out) {
  out.push_back(1);
  co_await nested_child(out);
  const int v = co_await nested_value();
  out.push_back(v);
}

TEST(Scheduler, NestedTaskAwaitPropagatesValues) {
  Scheduler sched;
  std::vector<int> out;
  sched.spawn(nested_parent(out));
  sched.run();
  EXPECT_EQ(out, std::vector<int>({1, 2, 42}));
}

Task<> thrower() {
  co_await std::suspend_never{};
  throw std::runtime_error("boom");
}

TEST(Scheduler, FiberExceptionPropagatesFromRun) {
  Scheduler sched;
  sched.spawn(thrower());
  EXPECT_THROW(sched.run(), std::runtime_error);
}

Task<> catching_parent(std::vector<int>& out) {
  try {
    co_await thrower();
  } catch (const std::runtime_error&) {
    out.push_back(7);
  }
}

TEST(Scheduler, ChildExceptionCatchableInParent) {
  Scheduler sched;
  std::vector<int> out;
  sched.spawn(catching_parent(out));
  sched.run();
  EXPECT_EQ(out, std::vector<int>({7}));
}

struct DtorFlag {
  bool* flag;
  explicit DtorFlag(bool* f) : flag(f) {}
  ~DtorFlag() { *flag = true; }
};

Task<> sleeps_forever(Scheduler& sched, bool* destroyed) {
  DtorFlag guard(destroyed);
  co_await sched.sleep_for(seconds(3600));
}

TEST(Scheduler, KillRunsDestructorsOfSuspendedFrame) {
  Scheduler sched;
  bool destroyed = false;
  FiberId id = sched.spawn(sleeps_forever(sched, &destroyed));
  sched.run_until(msec(1));  // let it reach the sleep
  EXPECT_FALSE(destroyed);
  EXPECT_TRUE(sched.fiber_alive(id));
  sched.kill(id);
  EXPECT_TRUE(destroyed) << "kill must unwind the coroutine chain";
  EXPECT_FALSE(sched.fiber_alive(id));
  sched.run();  // the cancelled sleep timer must not fire into freed memory
}

Task<> block_on(Semaphore& sem, bool* destroyed) {
  DtorFlag guard(destroyed);
  co_await sem.acquire();
}

TEST(Scheduler, KillUnlinksFromSemaphoreWaitQueue) {
  Scheduler sched;
  Semaphore sem(sched, 0);
  bool destroyed = false;
  FiberId id = sched.spawn(block_on(sem, &destroyed));
  sched.run();
  EXPECT_TRUE(sem.has_waiters());
  sched.kill(id);
  EXPECT_TRUE(destroyed);
  EXPECT_FALSE(sem.has_waiters()) << "killed waiter must unlink from the queue";
  sem.release();  // must not resume a destroyed coroutine
  sched.run();
}

TEST(Scheduler, KillUnknownFiberIsNoOp) {
  Scheduler sched;
  sched.kill(FiberId{9999});
}

Task<> record_domain(Scheduler& sched, std::vector<DomainId>& out) {
  out.push_back(sched.current_domain());
  co_return;
}

TEST(Scheduler, KillDomainKillsOnlyThatDomain) {
  Scheduler sched;
  Semaphore sem(sched, 0);
  bool destroyed_a = false;
  bool destroyed_b = false;
  sched.spawn(block_on(sem, &destroyed_a), DomainId{1});
  sched.spawn(block_on(sem, &destroyed_b), DomainId{2});
  int timer_fired = 0;
  sched.schedule_after(msec(5), [&] { ++timer_fired; }, DomainId{1});
  sched.schedule_after(msec(5), [&] { ++timer_fired; }, DomainId{2});
  sched.run_until(msec(1));
  sched.kill_domain(DomainId{1});
  EXPECT_TRUE(destroyed_a);
  EXPECT_FALSE(destroyed_b);
  sched.run_until(msec(10));
  EXPECT_EQ(timer_fired, 1) << "domain 1's timer must be cancelled with the domain";
}

TEST(Scheduler, CurrentDomainVisibleInsideFiber) {
  Scheduler sched;
  std::vector<DomainId> seen;
  sched.spawn(record_domain(sched, seen), DomainId{42});
  sched.run();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], DomainId{42});
}

Task<> spawn_from_inside(Scheduler& sched, std::vector<int>& out) {
  out.push_back(1);
  sched.spawn(append_value(out, 2));
  co_return;
}

TEST(Scheduler, SpawnFromInsideFiber) {
  Scheduler sched;
  std::vector<int> out;
  sched.spawn(spawn_from_inside(sched, out));
  sched.run();
  EXPECT_EQ(out, std::vector<int>({1, 2}));
}

/// Re-queues the awaiting fiber at the back of the ready list.
struct Requeue {
  Scheduler& sched;
  ScheduleNode node;
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    node.handle = h;
    node.fiber = sched.current_fiber();
    sched.make_ready(node);
  }
  void await_resume() const noexcept {}
};

Task<> yielder(Scheduler& sched, std::vector<int>& out, int tag, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    out.push_back(tag);
    co_await Requeue{sched, {}};
  }
}

TEST(Scheduler, YieldInterleavesFibersRoundRobin) {
  Scheduler sched;
  std::vector<int> out;
  sched.spawn(yielder(sched, out, 1, 3));
  sched.spawn(yielder(sched, out, 2, 3));
  sched.run();
  EXPECT_EQ(out, std::vector<int>({1, 2, 1, 2, 1, 2}));
}

TEST(Scheduler, LiveFiberCountTracksCompletion) {
  Scheduler sched;
  std::vector<int> out;
  sched.spawn(append_value(out, 1));
  EXPECT_EQ(sched.live_fiber_count(), 1u);
  sched.run();
  EXPECT_EQ(sched.live_fiber_count(), 0u);
}

// ---- the ambient trace context ----

Task<> ambient_owner(Scheduler& sched, obs::SpanCtx ctx, std::vector<obs::SpanCtx>& seen) {
  seen.push_back(sched.ambient());
  sched.set_ambient(ctx);
  co_await sched.sleep_for(msec(2));
  seen.push_back(sched.ambient());
}

Task<> ambient_reader(Scheduler& sched, std::vector<obs::SpanCtx>& seen) {
  co_await sched.sleep_for(msec(1));
  seen.push_back(sched.ambient());
}

TEST(Scheduler, AmbientContextStaysWithItsFiber) {
  Scheduler sched;
  std::vector<obs::SpanCtx> owner, other, timer, fresh;
  sched.spawn(ambient_owner(sched, obs::SpanCtx{7, 3}, owner));
  // Both read at 1 ms, while the owner sleeps with its context set.
  sched.spawn(ambient_reader(sched, other));
  sched.schedule_after(msec(1), [&] { timer.push_back(sched.ambient()); });
  sched.run();
  const obs::SpanCtx none;
  EXPECT_EQ(owner, (std::vector<obs::SpanCtx>{none, obs::SpanCtx{7, 3}}))
      << "a new fiber starts at {}, and its context survives a suspension";
  EXPECT_EQ(other, std::vector<obs::SpanCtx>{none}) << "invisible to another fiber";
  EXPECT_EQ(timer, std::vector<obs::SpanCtx>{none}) << "invisible to a timer callback";
  EXPECT_EQ(sched.ambient(), none) << "and outside any fiber";
  sched.spawn(ambient_reader(sched, fresh));
  sched.run();
  EXPECT_EQ(fresh, std::vector<obs::SpanCtx>{none});
}

TEST(SchedulerDeathTest, SetAmbientOutsideAFiberIsFatal) {
  Scheduler sched;
  EXPECT_DEATH(sched.set_ambient(obs::SpanCtx{1, 1}), "set_ambient outside a fiber");
}

TEST(Scheduler, TracedCallFibersAndCrashCyclesLeaveNoFiberState) {
  // One client fiber per call, with server 1 crashed and recovered every
  // 50 calls: every fiber's state, its ambient context included, must go
  // with the fiber, whether it finishes or is killed.
  obs::Tracer tracer;
  core::ScenarioParams p;
  p.num_servers = 3;
  p.config = core::ConfigBuilder::at_most_once().total_order().build();
  p.tracer = &tracer;
  core::Scenario s(std::move(p));
  Scheduler& sched = s.scheduler();
  const std::size_t baseline = sched.live_fiber_count();
  constexpr int kCalls = 4000;
  int ok = 0;
  for (int i = 1; i <= kCalls; ++i) {
    s.run_client(0, [&](core::Client& c) -> Task<> {
      const core::CallResult r = co_await c.call(s.group(), OpId{1}, Buffer{});
      if (r.ok()) ++ok;
    });
    if (i % 50 == 0) {
      s.server(0).crash();
      s.server(0).recover();
    }
  }
  s.run_until_quiescent();
  EXPECT_EQ(ok, kCalls);
  EXPECT_EQ(tracer.count(obs::Kind::kCallIssued), static_cast<std::uint64_t>(kCalls));
  EXPECT_EQ(tracer.count(obs::Kind::kSiteCrashed), 80u);
  EXPECT_EQ(sched.live_fiber_count(), baseline);
  std::vector<obs::SpanCtx> fresh;
  sched.spawn(ambient_reader(sched, fresh));
  sched.run();
  EXPECT_EQ(fresh, std::vector<obs::SpanCtx>{obs::SpanCtx{}});
}

// ---- slot reuse ----

TEST(Scheduler, StaleFiberIdDoesNotMatchTheSlotsNextFiber) {
  Scheduler sched;
  Semaphore sem(sched, 0);
  bool destroyed_a = false;
  bool destroyed_b = false;
  const FiberId a = sched.spawn(block_on(sem, &destroyed_a));
  sched.run();
  sched.kill(a);
  const FiberId b = sched.spawn(block_on(sem, &destroyed_b));
  sched.run();
  ASSERT_EQ(sched.fiber_slot_count(), 1u) << "b must reuse a's slot";
  EXPECT_NE(a, b);
  EXPECT_FALSE(sched.fiber_alive(a));
  EXPECT_TRUE(sched.fiber_alive(b));
  sched.kill(a);
  EXPECT_FALSE(destroyed_b) << "killing a stale id must not kill the slot's next fiber";
  EXPECT_TRUE(sched.fiber_alive(b));
  EXPECT_TRUE(sem.has_waiters());
}

TEST(Scheduler, StaleTimerIdDoesNotCancelTheSlotsNextTimer) {
  Scheduler sched;
  int fired = 0;
  const TimerId cancelled = sched.schedule_after(msec(1), [&] { fired += 100; });
  sched.cancel_timer(cancelled);
  const TimerId next = sched.schedule_after(msec(2), [&] { ++fired; });
  ASSERT_EQ(sched.timer_slot_count(), 1u) << "next must reuse the cancelled timer's slot";
  EXPECT_NE(cancelled, next);
  sched.cancel_timer(cancelled);
  sched.run();
  EXPECT_EQ(fired, 1) << "the slot's live timer must stay armed";

  // The same after the first timer fired rather than being cancelled.
  const TimerId done = sched.schedule_after(msec(1), [&] { ++fired; });
  sched.run();
  sched.schedule_after(msec(1), [&] { ++fired; });
  sched.cancel_timer(done);
  sched.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sched.timer_slot_count(), 1u);
}

TEST(Scheduler, NullIdsTouchNoFreeSlot) {
  // Leave slot 0 of both tables free, with a finished fiber's domain and a
  // cancelled timer behind it.
  Scheduler sched;
  std::vector<DomainId> seen;
  sched.spawn(record_domain(sched, seen), DomainId{5});
  sched.run();
  sched.cancel_timer(sched.schedule_after(msec(1), [] {}));
  ASSERT_EQ(sched.fiber_slot_count(), 1u);
  ASSERT_EQ(sched.timer_slot_count(), 1u);

  // Outside a fiber the current fiber is FiberId{}: it must not read slot 0.
  EXPECT_EQ(sched.current_domain(), kGlobalDomain);
  EXPECT_EQ(sched.ambient(), obs::SpanCtx{});
  EXPECT_FALSE(sched.fiber_alive(FiberId{}));
  EXPECT_DEATH(sched.set_ambient(obs::SpanCtx{1, 1}), "set_ambient outside a fiber");

  // Cancelling TimerId{} (a protocol's never-armed timer) must not free
  // slot 0 a second time: two timers would then share it, and one of them
  // would never fire.
  sched.cancel_timer(TimerId{});
  sched.cancel_timer(TimerId{});
  int fired = 0;
  sched.schedule_after(msec(1), [&] { ++fired; });
  sched.schedule_after(msec(1), [&] { ++fired; });
  sched.schedule_after(msec(1), [&] { ++fired; });
  sched.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sched.timer_slot_count(), 3u);
}

TEST(Scheduler, FiberIdsAscendInSpawnOrder) {
  // Reused slots must not make a later fiber's id compare lower: ordered
  // sets of fiber ids (TerminateOrphan's) rely on creation order.
  Scheduler sched;
  Semaphore sem(sched, 0);
  std::vector<int> out;
  bool destroyed = false;
  std::vector<FiberId> ids;
  for (int i = 0; i < 64; ++i) {
    // Every other fiber runs to completion and every third blocked one is
    // killed, so later spawns land in freed slots below the highest one.
    ids.push_back(i % 2 == 0 ? sched.spawn(append_value(out, i))
                             : sched.spawn(block_on(sem, &destroyed)));
    sched.run();
    if (i % 6 == 5) sched.kill(ids.back());
  }
  EXPECT_LT(sched.fiber_slot_count(), ids.size()) << "slots must have been reused";
  for (std::size_t i = 1; i < ids.size(); ++i) EXPECT_LT(ids[i - 1], ids[i]) << i;
}

TEST(Scheduler, SlotCountsStayAtThePeakLiveCountOverManyCalls) {
  // 100k ordered writes: each makes delivery fibers, timers and packets in
  // flight, so slots that were not reused would number in the millions.  A
  // slot count is the peak number live at once, which a loss-free run keeps
  // to a few dozen.
  core::ScenarioParams p;
  p.num_servers = 3;
  p.config = core::ConfigBuilder::at_most_once().total_order().build();
  core::Scenario s(std::move(p));
  constexpr int kCalls = 100'000;
  int ok = 0;
  s.run_client(0, [&](core::Client& c) -> Task<> {
    for (int i = 0; i < kCalls; ++i) {
      const core::CallResult r = co_await c.call(s.group(), OpId{1}, Buffer{});
      if (r.ok()) ++ok;
    }
  });
  EXPECT_EQ(ok, kCalls);
  const std::size_t fibers = s.scheduler().fiber_slot_count();
  const std::size_t timers = s.scheduler().timer_slot_count();
  const std::size_t packets = s.network().in_flight_slot_count();
  std::printf("slots after %d calls: %zu fibers, %zu timers, %zu packets\n", kCalls, fibers,
              timers, packets);
  for (const std::size_t n : {fibers, timers, packets}) {
    EXPECT_GT(n, 0u);
    EXPECT_LE(n, 64u);
  }
}

}  // namespace
}  // namespace ugrpc::sim
