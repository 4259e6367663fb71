// TimerWheel unit tests: firing order, cancellation semantics and
// per-domain cancellation.  `net::TimerWheel` is now a shim over the
// executor's timer heap (see its header), so these cases pin the same
// contract on the queue that replaced the hashed wheel; the wheel's
// ring-wrap cases had no counterpart on a heap and were dropped with it.
#include <gtest/gtest.h>

#include <vector>

#include "net/timer_wheel.h"
#include "sim/scheduler.h"

namespace ugrpc::net {
namespace {

TEST(TimerWheel, FiresInDeadlineOrder) {
  TimerWheel wheel;
  std::vector<int> fired;
  wheel.add(sim::msec(30), [&] { fired.push_back(3); }, sim::kGlobalDomain);
  wheel.add(sim::msec(10), [&] { fired.push_back(1); }, sim::kGlobalDomain);
  wheel.add(sim::msec(20), [&] { fired.push_back(2); }, sim::kGlobalDomain);
  wheel.advance(sim::msec(100));
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(wheel.size(), 0u);
}

TEST(TimerWheel, SameDeadlineFiresInRegistrationOrder) {
  TimerWheel wheel;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    wheel.add(sim::msec(5), [&fired, i] { fired.push_back(i); }, sim::kGlobalDomain);
  }
  wheel.advance(sim::msec(10));
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(TimerWheel, DoesNotFireBeforeDeadline) {
  TimerWheel wheel;
  int fired = 0;
  wheel.add(sim::msec(50), [&] { ++fired; }, sim::kGlobalDomain);
  wheel.advance(sim::msec(49));
  EXPECT_EQ(fired, 0);
  wheel.advance(sim::msec(50));
  EXPECT_EQ(fired, 1);
  wheel.advance(sim::msec(200));  // no double-fire
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheel, CancelPreventsFiring) {
  TimerWheel wheel;
  int fired = 0;
  const TimerId id = wheel.add(sim::msec(10), [&] { ++fired; }, sim::kGlobalDomain);
  wheel.cancel(id);
  wheel.advance(sim::msec(100));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(wheel.size(), 0u);
}

TEST(TimerWheel, CancelAfterFireIsNoop) {
  TimerWheel wheel;
  const TimerId id = wheel.add(sim::msec(1), [] {}, sim::kGlobalDomain);
  wheel.advance(sim::msec(10));
  wheel.cancel(id);  // must not crash or cancel anything else
  int fired = 0;
  wheel.add(sim::msec(20), [&] { ++fired; }, sim::kGlobalDomain);
  wheel.advance(sim::msec(30));
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheel, CancelDomainCancelsOnlyThatDomain) {
  TimerWheel wheel;
  std::vector<int> fired;
  wheel.add(sim::msec(10), [&] { fired.push_back(1); }, DomainId{1});
  wheel.add(sim::msec(11), [&] { fired.push_back(2); }, DomainId{2});
  wheel.add(sim::msec(12), [&] { fired.push_back(1); }, DomainId{1});
  wheel.cancel_domain(DomainId{1});
  wheel.advance(sim::msec(100));
  EXPECT_EQ(fired, (std::vector<int>{2}));
}

}  // namespace
}  // namespace ugrpc::net
