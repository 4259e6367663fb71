// Unit tests for EventArg / EventContext and framework edge cases not
// covered by framework_test.cc.
#include "runtime/event.h"

#include <gtest/gtest.h>

#include <string>

#include "net/network.h"
#include "runtime/framework.h"
#include "sim/scheduler.h"
#include "sim/sync.h"

namespace ugrpc::runtime {
namespace {

TEST(EventArg, RefRoundTripsMutableReference) {
  int value = 5;
  EventArg arg = EventArg::ref(value);
  EXPECT_FALSE(arg.empty());
  arg.as<int>() = 7;
  EXPECT_EQ(value, 7);
}

TEST(EventArg, EmptyByDefault) {
  EventArg arg;
  EXPECT_TRUE(arg.empty());
}

TEST(EventArg, TypeMismatchAborts) {
  int value = 5;
  EventArg arg = EventArg::ref(value);
  EXPECT_DEATH((void)arg.as<double>(), "type mismatch");
}

TEST(EventArg, EmptyAccessAborts) {
  EventArg arg;
  EXPECT_DEATH((void)arg.as<int>(), "no argument");
}

TEST(EventContext, CancelIsSticky) {
  int value = 0;
  EventContext ctx(EventArg::ref(value));
  EXPECT_FALSE(ctx.cancelled());
  ctx.cancel();
  EXPECT_TRUE(ctx.cancelled());
  ctx.cancel();
  EXPECT_TRUE(ctx.cancelled());
}

constexpr EventId kEv{9};

TEST(Framework, TriggerWithNoHandlersCompletes) {
  sim::Scheduler sched;
  net::Network net{sched};
  Framework fw(net, DomainId{1});
  bool completed = false;
  sched.spawn([](Framework& f, bool& done) -> sim::Task<> {
    done = co_await f.trigger(kEv, {});
  }(fw, completed));
  sched.run();
  EXPECT_TRUE(completed);
}

TEST(Framework, ManyTimeoutsFireInDelayOrder) {
  sim::Scheduler sched;
  net::Network net{sched};
  Framework fw(net, DomainId{1});
  std::string order;
  fw.register_timeout("c", sim::msec(30), [&]() -> sim::Task<> {
    order += 'c';
    co_return;
  });
  fw.register_timeout("a", sim::msec(10), [&]() -> sim::Task<> {
    order += 'a';
    co_return;
  });
  fw.register_timeout("b", sim::msec(20), [&]() -> sim::Task<> {
    order += 'b';
    co_return;
  });
  sched.run();
  EXPECT_EQ(order, "abc");
}

TEST(Framework, TimeoutHandlerMayBlock) {
  sim::Scheduler sched;
  net::Network net{sched};
  Framework fw(net, DomainId{1});
  sim::Semaphore gate(sched, 0);
  bool finished = false;
  fw.register_timeout("blocking", sim::msec(1), [&]() -> sim::Task<> {
    co_await gate.acquire();
    finished = true;
  });
  sched.run();
  EXPECT_FALSE(finished);
  gate.release();
  sched.run();
  EXPECT_TRUE(finished);
}

}  // namespace
}  // namespace ugrpc::runtime
