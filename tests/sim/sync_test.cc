// Unit tests for Semaphore under cooperative scheduling.
#include "sim/sync.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/scheduler.h"

namespace ugrpc::sim {
namespace {

Task<> acquire_then_record(Semaphore& sem, std::vector<int>& out, int tag) {
  co_await sem.acquire();
  out.push_back(tag);
}

TEST(Semaphore, AcquireSucceedsImmediatelyWhenPositive) {
  Scheduler sched;
  Semaphore sem(sched, 2);
  std::vector<int> out;
  sched.spawn(acquire_then_record(sem, out, 1));
  sched.spawn(acquire_then_record(sem, out, 2));
  sched.run();
  EXPECT_EQ(out, std::vector<int>({1, 2}));
  EXPECT_EQ(sem.count(), 0);
}

TEST(Semaphore, AcquireBlocksWhenZeroAndReleaseWakesFifo) {
  Scheduler sched;
  Semaphore sem(sched, 0);
  std::vector<int> out;
  sched.spawn(acquire_then_record(sem, out, 1));
  sched.spawn(acquire_then_record(sem, out, 2));
  sched.run();
  EXPECT_TRUE(out.empty());
  sem.release();
  sched.run();
  EXPECT_EQ(out, std::vector<int>({1}));
  sem.release();
  sched.run();
  EXPECT_EQ(out, std::vector<int>({1, 2}));
}

TEST(Semaphore, ReleaseWithoutWaitersIncrementsCount) {
  Scheduler sched;
  Semaphore sem(sched, 0);
  sem.release();
  sem.release();
  EXPECT_EQ(sem.count(), 2);
}

Task<> producer(Scheduler& sched, Semaphore& items, int n) {
  for (int i = 0; i < n; ++i) {
    co_await sched.sleep_for(msec(1));
    items.release();
  }
}

Task<> consumer(Semaphore& items, int n, int& consumed) {
  for (int i = 0; i < n; ++i) {
    co_await items.acquire();
    ++consumed;
  }
}

TEST(Semaphore, ProducerConsumerCompletes) {
  Scheduler sched;
  Semaphore items(sched, 0);
  int consumed = 0;
  sched.spawn(consumer(items, 10, consumed));
  sched.spawn(producer(sched, items, 10));
  sched.run();
  EXPECT_EQ(consumed, 10);
  EXPECT_EQ(sched.now(), msec(10));
}

Task<> abandoned_waiter(Semaphore& sem) { co_await sem.acquire(); }

TEST(Semaphore, KilledWaiterDoesNotReceiveToken) {
  Scheduler sched;
  Semaphore sem(sched, 0);
  FiberId victim = sched.spawn(abandoned_waiter(sem));
  std::vector<int> out;
  sched.spawn(acquire_then_record(sem, out, 2));
  sched.run();
  sched.kill(victim);
  sem.release();
  sched.run();
  EXPECT_EQ(out, std::vector<int>({2})) << "token must go to the surviving waiter";
}

}  // namespace
}  // namespace ugrpc::sim
