// Unit tests for the event framework: registration, priority order,
// blocking sequential invocation, cancel_event, deregistration, the table
// freeze at the first trigger, teardown order, timeouts.
#include "runtime/framework.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/network.h"
#include "runtime/composite.h"
#include "runtime/micro_protocol.h"
#include "sim/sync.h"

namespace ugrpc::runtime {
namespace {

constexpr EventId kPing{1};
constexpr EventId kOther{2};

struct Fixture {
  sim::Scheduler sched;
  net::Network net{sched};
  Framework fw{net, DomainId{1}};
};

Handler appender(std::vector<int>& out, int tag) {
  return [&out, tag](EventContext&) -> sim::Task<> {
    out.push_back(tag);
    co_return;
  };
}

sim::Task<> run_trigger(Framework& fw, EventId ev, EventArg arg, bool* completed = nullptr) {
  const bool ok = co_await fw.trigger(ev, arg);
  if (completed != nullptr) *completed = ok;
}

/// Runs one trigger of `ev`, which freezes the handler table.
void freeze(Fixture& f, EventId ev) {
  f.sched.spawn(run_trigger(f.fw, ev, {}));
  f.sched.run();
}

TEST(Framework, HandlersRunInAscendingPriorityOrder) {
  Fixture f;
  std::vector<int> out;
  f.fw.register_handler(kPing, "c", 30, appender(out, 3));
  f.fw.register_handler(kPing, "a", 10, appender(out, 1));
  f.fw.register_handler(kPing, "b", 20, appender(out, 2));
  f.sched.spawn(run_trigger(f.fw, kPing, {}));
  f.sched.run();
  EXPECT_EQ(out, std::vector<int>({1, 2, 3}));
}

TEST(Framework, DefaultPriorityRunsLast) {
  Fixture f;
  std::vector<int> out;
  f.fw.register_handler(kPing, "default", appender(out, 99));
  f.fw.register_handler(kPing, "late", 500, appender(out, 2));
  f.fw.register_handler(kPing, "early", 1, appender(out, 1));
  f.sched.spawn(run_trigger(f.fw, kPing, {}));
  f.sched.run();
  EXPECT_EQ(out, std::vector<int>({1, 2, 99}));
}

TEST(Framework, EqualPriorityRunsInRegistrationOrder) {
  Fixture f;
  std::vector<int> out;
  f.fw.register_handler(kPing, "first", 5, appender(out, 1));
  f.fw.register_handler(kPing, "second", 5, appender(out, 2));
  f.fw.register_handler(kPing, "third", 5, appender(out, 3));
  f.sched.spawn(run_trigger(f.fw, kPing, {}));
  f.sched.run();
  EXPECT_EQ(out, std::vector<int>({1, 2, 3}));
}

TEST(Framework, TriggerOnlyRunsMatchingEvent) {
  Fixture f;
  std::vector<int> out;
  f.fw.register_handler(kPing, "ping", appender(out, 1));
  f.fw.register_handler(kOther, "other", appender(out, 2));
  f.sched.spawn(run_trigger(f.fw, kOther, {}));
  f.sched.run();
  EXPECT_EQ(out, std::vector<int>({2}));
}

TEST(Framework, ArgumentIsSharedMutablyAcrossHandlers) {
  Fixture f;
  f.fw.register_handler(kPing, "inc1", 1, [](EventContext& ctx) -> sim::Task<> {
    ctx.arg_as<int>() += 1;
    co_return;
  });
  f.fw.register_handler(kPing, "dbl", 2, [](EventContext& ctx) -> sim::Task<> {
    ctx.arg_as<int>() *= 2;
    co_return;
  });
  int value = 10;
  f.sched.spawn(run_trigger(f.fw, kPing, EventArg::ref(value)));
  f.sched.run();
  EXPECT_EQ(value, 22);
}

TEST(Framework, CancelSkipsRemainingHandlers) {
  Fixture f;
  std::vector<int> out;
  f.fw.register_handler(kPing, "a", 1, appender(out, 1));
  f.fw.register_handler(kPing, "cancel", 2, [](EventContext& ctx) -> sim::Task<> {
    ctx.cancel();
    co_return;
  });
  f.fw.register_handler(kPing, "never", 3, appender(out, 3));
  bool completed = true;
  f.sched.spawn(run_trigger(f.fw, kPing, {}, &completed));
  f.sched.run();
  EXPECT_EQ(out, std::vector<int>({1}));
  EXPECT_FALSE(completed) << "trigger must report cancellation";
}

TEST(Framework, NestedTriggerHasIndependentCancellation) {
  Fixture f;
  std::vector<int> out;
  f.fw.register_handler(kOther, "inner-cancel", 1, [](EventContext& ctx) -> sim::Task<> {
    ctx.cancel();
    co_return;
  });
  f.fw.register_handler(kPing, "outer-a", 1, [&f, &out](EventContext&) -> sim::Task<> {
    out.push_back(1);
    co_await f.fw.trigger(kOther, {});
    co_return;
  });
  f.fw.register_handler(kPing, "outer-b", 2, appender(out, 2));
  bool completed = false;
  f.sched.spawn(run_trigger(f.fw, kPing, {}, &completed));
  f.sched.run();
  EXPECT_EQ(out, std::vector<int>({1, 2})) << "inner cancel must not cancel the outer event";
  EXPECT_TRUE(completed);
}

TEST(Framework, BlockingHandlerBlocksTheChain) {
  Fixture f;
  sim::Semaphore gate(f.sched, 0);
  std::vector<int> out;
  f.fw.register_handler(kPing, "blocker", 1, [&](EventContext&) -> sim::Task<> {
    out.push_back(1);
    co_await gate.acquire();
    out.push_back(2);
  });
  f.fw.register_handler(kPing, "after", 2, appender(out, 3));
  f.sched.spawn(run_trigger(f.fw, kPing, {}));
  f.sched.run();
  EXPECT_EQ(out, std::vector<int>({1})) << "chain must be blocked at the semaphore";
  gate.release();
  f.sched.run();
  EXPECT_EQ(out, std::vector<int>({1, 2, 3}));
}

TEST(Framework, ReentrantTriggerOfTheSameEventRunsTheFullChain) {
  Fixture f;
  std::vector<int> out;
  bool nested = false;
  f.fw.register_handler(kPing, "a", 1, [&](EventContext&) -> sim::Task<> {
    out.push_back(1);
    if (!nested) {
      nested = true;
      co_await f.fw.trigger(kPing, {});
    }
  });
  f.fw.register_handler(kPing, "b", 2, appender(out, 2));
  f.sched.spawn(run_trigger(f.fw, kPing, {}));
  f.sched.run();
  EXPECT_EQ(out, std::vector<int>({1, 1, 2, 2}));
}

TEST(FrameworkDeathTest, RegisterAfterFirstTriggerAborts) {
  Fixture f;
  std::vector<int> out;
  f.fw.register_handler(kPing, "a", 1, appender(out, 1));
  freeze(f, kPing);
  EXPECT_DEATH(f.fw.register_handler(kOther, "late", 1, appender(out, 2)), "frozen");
}

TEST(FrameworkDeathTest, DefineEventAfterFirstTriggerAborts) {
  Fixture f;
  freeze(f, kPing);
  EXPECT_DEATH(f.fw.define_event(kPing, "PING"), "frozen");
}

TEST(Framework, KilledDomainLetsTheFrameworkGoWhileAHandlerIsBlocked) {
  // Handlers run on closures the framework owns.  A site tears down by
  // killing its domain's fibers first and destroying the framework second;
  // under ASan this pins that the order leaves nothing dangling.
  sim::Scheduler sched;
  net::Network net{sched};
  constexpr DomainId kSite{7};
  sim::Semaphore gate(sched, 0);
  auto fw = std::make_unique<Framework>(net, kSite);
  bool resumed = false;
  fw->register_handler(kPing, "blocker", 1,
                       [&gate, &resumed, tag = std::string(64, 'x')](EventContext&) -> sim::Task<> {
                         co_await gate.acquire();
                         resumed = !tag.empty();
                       });
  net.spawn(run_trigger(*fw, kPing, {}), kSite);
  sched.run();
  ASSERT_TRUE(gate.has_waiters()) << "the handler must be blocked mid-chain";
  net.kill_domain(kSite);
  EXPECT_FALSE(gate.has_waiters());
  fw.reset();
  gate.release();
  sched.run();
  EXPECT_FALSE(resumed);
}

TEST(Framework, TimeoutFiresOnceAfterDelay) {
  Fixture f;
  int fired = 0;
  f.fw.register_timeout("tick", sim::msec(10), [&]() -> sim::Task<> {
    ++fired;
    co_return;
  });
  f.sched.run_until(sim::msec(5));
  EXPECT_EQ(fired, 0);
  f.sched.run_until(sim::msec(50));
  EXPECT_EQ(fired, 1) << "TIMEOUT handlers run exactly once";
}

TEST(Framework, TimeoutCanReregisterItselfForPeriodicBehaviour) {
  Fixture f;
  int fired = 0;
  std::function<sim::Task<>()> tick = [&]() -> sim::Task<> {
    ++fired;
    if (fired < 3) f.fw.register_timeout("tick", sim::msec(10), tick);
    co_return;
  };
  f.fw.register_timeout("tick", sim::msec(10), tick);
  f.sched.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(f.sched.now(), sim::msec(30));
}

TEST(Framework, CancelledTimeoutNeverFires) {
  Fixture f;
  int fired = 0;
  TimerId id = f.fw.register_timeout("tick", sim::msec(10), [&]() -> sim::Task<> {
    ++fired;
    co_return;
  });
  f.fw.cancel_timeout(id);
  f.sched.run();
  EXPECT_EQ(fired, 0);
}

TEST(Framework, FiredTimeoutsAreForgotten) {
  // Every call arms timers (retransmission, ack flush); a site that kept the
  // ids of fired ones would grow by one set entry per timer for its life.
  Fixture f;
  int fired = 0;
  std::vector<TimerId> ids;
  for (int i = 0; i < 10'000; ++i) {
    ids.push_back(f.fw.register_timeout("tick", sim::usec(1 + i % 97), [&]() -> sim::Task<> {
      ++fired;
      co_return;
    }));
  }
  TimerId cancelled = f.fw.register_timeout("never", sim::msec(5), [&]() -> sim::Task<> {
    ++fired;
    co_return;
  });
  EXPECT_EQ(f.fw.live_timeouts(), 10'001u);
  f.fw.cancel_timeout(cancelled);
  EXPECT_EQ(f.fw.live_timeouts(), 10'000u);
  f.sched.run();
  EXPECT_EQ(fired, 10'000);
  EXPECT_EQ(f.fw.live_timeouts(), 0u);
  // Cancelling a timer that already fired stays a no-op.
  for (TimerId id : ids) f.fw.cancel_timeout(id);
  f.fw.cancel_timeout(cancelled);
  EXPECT_EQ(f.fw.live_timeouts(), 0u);
}

TEST(Framework, DestructionCancelsPendingTimeouts) {
  sim::Scheduler sched;
  net::Network net{sched};
  int fired = 0;
  {
    Framework fw(net, DomainId{1});
    fw.register_timeout("tick", sim::msec(10), [&]() -> sim::Task<> {
      ++fired;
      co_return;
    });
  }  // framework destroyed (site crash)
  sched.run();
  EXPECT_EQ(fired, 0) << "a crashed composite's timers must not fire";
}

TEST(Framework, IntrospectionListsRegistrationsInOrder) {
  Fixture f;
  f.fw.define_event(kPing, "PING");
  f.fw.register_handler(kPing, "second", 2, [](EventContext&) -> sim::Task<> { co_return; });
  f.fw.register_handler(kPing, "first", 1, [](EventContext&) -> sim::Task<> { co_return; });
  auto regs = f.fw.registrations();
  ASSERT_EQ(regs.size(), 2u);
  EXPECT_EQ(regs[0].event, "PING");
  EXPECT_EQ(regs[0].handler, "first");
  EXPECT_EQ(regs[1].handler, "second");
  EXPECT_EQ(f.fw.handler_count(kPing), 2u);
  EXPECT_EQ(f.fw.event_name(kOther), "event#2");
}

class CountingMp : public MicroProtocol {
 public:
  CountingMp(std::vector<std::string>& started) : MicroProtocol("Counting"), started_(started) {}
  void start(Framework&) override { started_.push_back(name()); }

 private:
  std::vector<std::string>& started_;
};

TEST(CompositeProtocol, StartStartsAllMicroProtocolsInOrder) {
  sim::Scheduler sched;
  net::Network net{sched};
  CompositeProtocol comp(net, DomainId{1});
  std::vector<std::string> started;
  comp.emplace<CountingMp>(started);
  comp.emplace<CountingMp>(started);
  EXPECT_FALSE(comp.started());
  comp.start();
  EXPECT_TRUE(comp.started());
  EXPECT_EQ(started.size(), 2u);
  EXPECT_EQ(comp.micro_protocol_names(), std::vector<std::string>({"Counting", "Counting"}));
}

}  // namespace
}  // namespace ugrpc::runtime
