// Unit tests for the event framework: registration, priority order,
// blocking sequential invocation, plain and coroutine handlers in one chain,
// cancel_event, deregistration, the table freeze at the first trigger,
// teardown order, timeouts.
#include "runtime/framework.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "net/network.h"
#include "obs/trace.h"
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

/// The plain (frameless) counterpart of appender().
PlainHandler plain_appender(std::vector<int>& out, int tag) {
  return [&out, tag](EventContext&) { out.push_back(tag); };
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

// ---- plain and coroutine handlers in one chain ----

TEST(Framework, MixedChainRunsInPriorityThenRegistrationOrder) {
  Fixture f;
  std::vector<int> out;
  f.fw.register_handler(kPing, "c", 30, plain_appender(out, 5));
  f.fw.register_handler(kPing, "b1", 20, plain_appender(out, 2));
  f.fw.register_handler(kPing, "b2", 20, [&](EventContext&) -> sim::Task<> {
    out.push_back(3);
    co_await f.sched.sleep_for(sim::msec(1));  // the plain handlers after it wait
  });
  f.fw.register_handler(kPing, "a", 10, appender(out, 1));
  f.fw.register_handler(kPing, "b3", 20, [&out](EventContext&) { out.push_back(4); });
  f.fw.register_handler(kPing, "default", plain_appender(out, 6));
  bool completed = false;
  f.sched.spawn(run_trigger(f.fw, kPing, {}, &completed));
  f.sched.run();
  EXPECT_EQ(out, std::vector<int>({1, 2, 3, 4, 5, 6}));
  EXPECT_TRUE(completed);
  EXPECT_EQ(f.sched.now(), sim::msec(1));
}

TEST(Framework, CancelFromAPlainHandlerSkipsTheRestOfTheChain) {
  Fixture f;
  std::vector<int> out;
  f.fw.register_handler(kPing, "a", 1, appender(out, 1));
  f.fw.register_handler(kPing, "cancel", 2, [](EventContext& ctx) { ctx.cancel(); });
  f.fw.register_handler(kPing, "never-plain", 3, plain_appender(out, 3));
  f.fw.register_handler(kPing, "never-coroutine", 4, appender(out, 4));
  bool completed = true;
  f.sched.spawn(run_trigger(f.fw, kPing, {}, &completed));
  f.sched.run();
  EXPECT_EQ(out, std::vector<int>({1}));
  EXPECT_FALSE(completed) << "trigger must report cancellation";
}

sim::Task<> trigger_catching(Framework& fw, EventId ev, std::string& what) {
  try {
    co_await fw.trigger(ev, {});
  } catch (const std::runtime_error& e) {
    what = e.what();
  }
}

TEST(Framework, AnExceptionFromEitherKindOfHandlerReachesTheTriggersAwaiter) {
  Fixture f;
  std::vector<int> out;
  f.fw.register_handler(kPing, "plain-throws", 1,
                        [](EventContext&) { throw std::runtime_error("plain"); });
  f.fw.register_handler(kPing, "skipped", 2, plain_appender(out, 2));
  f.fw.register_handler(kOther, "coroutine-throws", 1, [](EventContext&) -> sim::Task<> {
    throw std::runtime_error("coroutine");
    co_return;
  });
  f.fw.register_handler(kOther, "skipped", 2, plain_appender(out, 2));
  std::string plain_what;
  std::string coroutine_what;
  f.sched.spawn(trigger_catching(f.fw, kPing, plain_what));
  f.sched.spawn(trigger_catching(f.fw, kOther, coroutine_what));
  f.sched.run();
  EXPECT_EQ(plain_what, "plain");
  EXPECT_EQ(coroutine_what, "coroutine");
  EXPECT_TRUE(out.empty()) << "a throwing handler ends its chain";
}

/// A span as (kind, name, priority, id, parent).
using SpanRow = std::tuple<obs::Kind, std::string, std::uint64_t, std::uint64_t, std::uint64_t>;

/// The spans one traced trigger of a three-handler chain records; `plain`
/// picks the kind of the first and the last handler.
std::vector<SpanRow> traced_chain(bool plain) {
  sim::Scheduler sched;
  net::Network net{sched};
  obs::Tracer tracer;
  Framework fw(net, DomainId{1}, &tracer.site(ProcessId{1}));
  fw.define_event(kPing, "PING");
  const auto add = [&](std::string name, int priority) {
    if (plain) {
      fw.register_handler(kPing, std::move(name), priority, [](EventContext&) {});
    } else {
      fw.register_handler(kPing, std::move(name), priority,
                          [](EventContext&) -> sim::Task<> { co_return; });
    }
  };
  add("first", 1);
  fw.register_handler(kPing, "middle", 2, [&](EventContext&) -> sim::Task<> {
    co_await sched.sleep_for(sim::usec(5));
  });
  add("last", 3);
  sched.spawn(run_trigger(fw, kPing, {}));
  sched.run();
  std::vector<SpanRow> out;
  for (const obs::Span& s : tracer.spans()) {
    out.emplace_back(s.kind, tracer.name(s.name), s.b, s.id, s.parent);
  }
  return out;
}

TEST(Framework, ATracedMixedChainRecordsWhatAnAllCoroutineChainRecords) {
  const auto mixed = traced_chain(/*plain=*/true);
  ASSERT_EQ(mixed.size(), 4u) << "one chain span and one span per handler";
  EXPECT_EQ(std::get<0>(mixed[0]), obs::Kind::kEventTriggered);
  EXPECT_EQ(std::get<1>(mixed[0]), "PING");
  const std::vector<std::string> handlers{"first", "middle", "last"};
  for (std::size_t i = 1; i < mixed.size(); ++i) {
    EXPECT_EQ(std::get<0>(mixed[i]), obs::Kind::kEventHandled);
    EXPECT_EQ(std::get<1>(mixed[i]), handlers[i - 1]);
    EXPECT_EQ(std::get<2>(mixed[i]), i) << "the handler span carries its priority";
    EXPECT_EQ(std::get<4>(mixed[i]), std::get<3>(mixed[0])) << "parented to the chain span";
  }
  EXPECT_EQ(mixed, traced_chain(/*plain=*/false));
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
