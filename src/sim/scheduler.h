// Discrete-event scheduler: the simulator's kernel.
//
// The scheduler owns (a) virtual time, (b) a FIFO ready list of suspended
// coroutines waiting to run "now", (c) a timer heap of callbacks to fire at
// future virtual times, and (d) the table of spawned fibers.  Execution is
// single-threaded and cooperative: `step()` resumes one ready coroutine or,
// if none is ready, advances the clock to the next timer.  Determinism
// follows from FIFO ready order and (deadline, registration-sequence) timer
// order.
//
// Fibers are the unit of kill: `spawn` creates one from a Task<> and tags it
// with a DomainId (one domain per simulated site), `kill` destroys a fiber's
// entire coroutine chain, and `kill_domain` does so for every fiber of a
// crashing site, also cancelling the site's timers.
//
// Fibers and timers live in SlotTables (common/slot_table.h), not in map
// nodes: spawning a fiber or arming a timer allocates nothing once the
// tables have grown to the peak number live at once.  A FiberId or TimerId
// names its slot plus a sequence number in the high bits, so a stale id
// never matches the slot's next occupant, FiberId{} and TimerId{} match
// nothing, and fiber ids ascend in spawn order (TerminateOrphan kills from a
// std::set<FiberId>).  Timer ids ascend in arming order too, which is the
// heap's tie-break among equal deadlines.
//
// Each fiber also carries one ambient trace context (obs::SpanCtx): which
// trace the code it runs belongs to.  It is per fiber because fibers
// interleave at every suspension point, so one value per site would be
// clobbered by whichever fiber ran last.  The tracing layers read and write
// it through ambient()/set_ambient(); the scheduler only stores it, and it
// is cleared when its fiber ends.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/ids.h"
#include "common/slot_table.h"
#include "obs/span.h"
#include "sim/intrusive_list.h"
#include "sim/rng.h"
#include "sim/task.h"
#include "sim/time.h"

namespace ugrpc::sim {

/// Domain used by fibers that do not belong to any crashable site.
inline constexpr DomainId kGlobalDomain{0};

/// A parked coroutine: lives inside an awaiter frame, unlinks itself from
/// whatever queue holds it when destroyed.  See intrusive_list.h.
class ScheduleNode : public ListNode {
 public:
  std::coroutine_handle<> handle;
  FiberId fiber;
};

class Scheduler {
 public:
  explicit Scheduler(std::uint64_t seed = 1);

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  ~Scheduler();

  // ---- time ----
  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] Rng& rng() { return rng_; }

  // ---- fibers ----

  /// Starts a new fiber running `task`, tagged with `domain`.  The task body
  /// begins executing when the scheduler next runs (not inline).
  FiberId spawn(Task<> task, DomainId domain = kGlobalDomain);

  /// Destroys a suspended fiber and its whole coroutine chain.  Destructors
  /// of in-scope locals run; wait-queue entries unlink.  It is a fatal error
  /// to kill the currently running fiber.  Killing an unknown/finished fiber
  /// is a no-op (the paper's kill(thread) races with thread completion).
  void kill(FiberId fiber);

  /// Kills every fiber of `domain` and cancels the domain's timers.  Models
  /// a site crash: all volatile threads of control vanish.
  void kill_domain(DomainId domain);

  /// Fiber currently executing (valid only while inside a resumed coroutine).
  [[nodiscard]] FiberId current_fiber() const { return current_fiber_; }
  [[nodiscard]] DomainId current_domain() const;
  [[nodiscard]] bool fiber_alive(FiberId fiber) const {
    return fibers_.find(fiber.value()) != nullptr;
  }
  [[nodiscard]] std::size_t live_fiber_count() const { return fibers_.size(); }
  [[nodiscard]] std::size_t live_timer_count() const { return timers_.size(); }
  /// Fiber and timer slots ever used: the peak numbers live at once.
  [[nodiscard]] std::size_t fiber_slot_count() const { return fibers_.slot_count(); }
  [[nodiscard]] std::size_t timer_slot_count() const { return timers_.slot_count(); }

  /// The running fiber's ambient trace context; {} when no fiber runs (a
  /// timer callback, the thread driving the scheduler) and in a fiber that
  /// never set one.
  [[nodiscard]] obs::SpanCtx ambient() const;
  /// Sets the running fiber's ambient trace context.  Fatal outside a fiber.
  void set_ambient(const obs::SpanCtx& ctx);

  // ---- timers ----

  /// Runs `fn` at virtual time `deadline` (not before now()).  The callback
  /// executes inline in the scheduler loop (it typically spawns a fiber or
  /// releases a semaphore).  Returns an id usable with cancel_timer.
  TimerId schedule_at(Time deadline, std::function<void()> fn, DomainId domain = kGlobalDomain);
  /// schedule_at(now() + delay).
  TimerId schedule_after(Duration delay, std::function<void()> fn,
                         DomainId domain = kGlobalDomain) {
    UGRPC_ASSERT(delay >= 0);
    return schedule_at(now_ + delay, std::move(fn), domain);
  }

  /// Cancels a pending timer; no-op if it already fired or was cancelled.
  void cancel_timer(TimerId id);

  /// Deadline of the earliest live timer, or no value when none is pending.
  /// Lazily discards cancelled heap entries, hence non-const.  Real-time
  /// drivers (net::UdpTransport) use this to size their poll timeout.
  [[nodiscard]] std::optional<Time> next_timer_deadline();

  /// True when a fiber is ready to run without advancing the clock.
  [[nodiscard]] bool has_ready() const { return !ready_.empty(); }

  // ---- running ----

  /// Executes one scheduling step.  Returns false when no work remains.
  bool step();

  /// Runs until the system is quiescent (no ready fibers, no timers).
  void run();

  /// Runs until quiescent or until virtual time would pass `deadline`;
  /// in the latter case the clock is left at `deadline`.
  void run_until(Time deadline);
  void run_for(Duration d) { run_until(now_ + d); }

  // ---- awaitables ----

  /// co_await sched.sleep_for(d): suspends the caller for d of virtual time.
  [[nodiscard]] auto sleep_for(Duration d);

  // ---- internal (used by awaiters and sync primitives) ----

  /// Makes an already-stamped node (from a wait queue) ready to run.
  void make_ready(ScheduleNode& node) { ready_.push_back(node); }

 private:
  friend void detail::notify_fiber_finished(Scheduler& sched, FiberId fiber);

  struct FiberState {
    Task<> task;
    DomainId domain;
    ScheduleNode start_node;  // used once, to schedule the initial resume
    obs::SpanCtx ambient;     // ambient()/set_ambient()
  };

  /// A heap entry; ids ascend in arming order, so (deadline, id) orders
  /// equal deadlines by registration.
  struct TimerEntry {
    Time deadline;
    TimerId id;
  };
  struct TimerLater {
    bool operator()(const TimerEntry& a, const TimerEntry& b) const {
      if (a.deadline != b.deadline) return a.deadline > b.deadline;
      return a.id > b.id;
    }
  };

  struct TimerRecord {
    std::function<void()> fn;
    DomainId domain;
  };

  /// Frees the slot of the live fiber `fiber`, then destroys its coroutine
  /// chain.
  void release_fiber(FiberId fiber, FiberState& state);
  void fiber_finished(FiberId fiber);
  /// Discards cancelled entries from the top of the timer heap.  Returns the
  /// record of the earliest live timer, whose entry is then the heap's top,
  /// or nullptr when no timer is pending.
  TimerRecord* earliest_live_timer();
  /// Fires the earliest live timer if its deadline is at most `limit`.
  bool fire_due_timer(Time limit);

  Time now_ = kTimeZero;
  Rng rng_;
  IntrusiveList<ScheduleNode> ready_;
  std::priority_queue<TimerEntry, std::vector<TimerEntry>, TimerLater> timer_heap_;
  SlotTable<TimerRecord> timers_;
  SlotTable<FiberState> fibers_;
  FiberId current_fiber_{0};
  std::exception_ptr pending_exception_;
};

inline auto Scheduler::sleep_for(Duration d) {
  struct SleepAwaiter {
    Scheduler& sched;
    Duration delay;
    ScheduleNode node;
    TimerId timer{};
    bool fired = false;

    [[nodiscard]] bool await_ready() const noexcept { return delay <= 0; }
    void await_suspend(std::coroutine_handle<> h) {
      node.handle = h;
      node.fiber = sched.current_fiber();
      timer = sched.schedule_after(delay, [this] {
        fired = true;
        sched.make_ready(node);
      });
    }
    void await_resume() noexcept {}
    ~SleepAwaiter() {
      // Frame destroyed while still sleeping: cancel the timer so its
      // callback never touches this (freed) awaiter.
      if (!fired && timer != TimerId{}) sched.cancel_timer(timer);
    }
  };
  return SleepAwaiter{*this, d, {}, {}, false};
}

}  // namespace ugrpc::sim
