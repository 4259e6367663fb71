// The counting semaphore of simulated threads.
//
// Semaphore gives the paper's P/V: `co_await sem.acquire()` is P, `release()`
// is V.  release() uses direct handoff -- if a waiter is parked, it receives
// the token and is moved to the scheduler's ready list (it runs later, not
// inline), matching the paper's model where V makes a blocked thread
// runnable.
//
// There is no mutex: on the single-threaded cooperative executor, code that
// does not co_await runs atomically (see GrpcState).
#pragma once

#include <coroutine>

#include "common/assert.h"
#include "sim/intrusive_list.h"
#include "sim/scheduler.h"

namespace ugrpc::sim {

class Semaphore {
 public:
  Semaphore(Scheduler& sched, int initial) : sched_(sched), count_(initial) {
    UGRPC_ASSERT(initial >= 0);
  }

  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  /// P operation: decrements the count, suspending until positive.
  [[nodiscard]] auto acquire() {
    struct Awaiter {
      Semaphore& sem;
      ScheduleNode node;
      [[nodiscard]] bool await_ready() {
        if (sem.count_ > 0) {
          --sem.count_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        node.handle = h;
        node.fiber = sem.sched_.current_fiber();
        sem.waiters_.push_back(node);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, {}};
  }

  /// V operation: wakes the oldest waiter (direct handoff) or increments.
  void release() {
    if (ScheduleNode* waiter = waiters_.pop_front()) {
      sched_.make_ready(*waiter);
    } else {
      ++count_;
    }
  }

  [[nodiscard]] int count() const { return count_; }
  [[nodiscard]] bool has_waiters() { return !waiters_.empty(); }

 private:
  Scheduler& sched_;
  int count_;
  IntrusiveList<ScheduleNode> waiters_;
};

}  // namespace ugrpc::sim
