#include "sim/scheduler.h"

#include <limits>
#include <utility>

#include "common/log.h"

namespace ugrpc::sim {

Scheduler::Scheduler(std::uint64_t seed) : rng_(seed) {}

Scheduler::~Scheduler() {
  // Destroy remaining fibers explicitly; their awaiter destructors unlink
  // from ready_/timer queues, which must still be alive here.
  fibers_.clear();
}

FiberId Scheduler::spawn(Task<> task, DomainId domain) {
  UGRPC_ASSERT(task.valid());
  const FiberId fiber{next_fiber_++};
  auto [it, inserted] = fibers_.try_emplace(fiber);
  UGRPC_ASSERT(inserted);
  FiberState& state = it->second;
  state.task = std::move(task);
  state.domain = domain;
  auto handle = state.task.handle();
  handle.promise().root_scheduler = this;
  handle.promise().root_fiber = fiber;
  state.start_node.handle = handle;
  state.start_node.fiber = fiber;
  ready_.push_back(state.start_node);
  return fiber;
}

void Scheduler::kill(FiberId fiber) {
  UGRPC_ASSERT(fiber != current_fiber_ && "a fiber cannot kill itself");
  // Erasing the FiberState destroys the Task, which destroys the whole
  // coroutine chain; intrusive nodes unlink from ready_/wait queues.
  fibers_.erase(fiber);
}

void Scheduler::kill_domain(DomainId domain) {
  std::vector<FiberId> victims;
  victims.reserve(fibers_.size());
  for (const auto& [id, state] : fibers_) {
    if (state.domain == domain) victims.push_back(id);
  }
  for (FiberId id : victims) kill(id);

  std::vector<TimerId> dead_timers;
  for (const auto& [id, rec] : timers_) {
    if (rec.domain == domain) dead_timers.push_back(id);
  }
  for (TimerId id : dead_timers) cancel_timer(id);
}

DomainId Scheduler::current_domain() const {
  auto it = fibers_.find(current_fiber_);
  return it != fibers_.end() ? it->second.domain : kGlobalDomain;
}

obs::SpanCtx Scheduler::ambient() const {
  auto it = fibers_.find(current_fiber_);
  return it != fibers_.end() ? it->second.ambient : obs::SpanCtx{};
}

void Scheduler::set_ambient(const obs::SpanCtx& ctx) {
  auto it = fibers_.find(current_fiber_);
  UGRPC_ASSERT(it != fibers_.end() && "set_ambient outside a fiber");
  it->second.ambient = ctx;
}

TimerId Scheduler::schedule_after(Duration delay, std::function<void()> fn, DomainId domain) {
  UGRPC_ASSERT(delay >= 0);
  const TimerId id{next_timer_++};
  timers_.emplace(id, TimerRecord{std::move(fn), domain});
  timer_heap_.push(TimerEntry{now_ + delay, next_seq_++, id});
  return id;
}

void Scheduler::cancel_timer(TimerId id) {
  timers_.erase(id);  // heap entry is skipped lazily when popped
}

Scheduler::TimerMap::iterator Scheduler::earliest_live_timer() {
  while (!timer_heap_.empty()) {
    auto it = timers_.find(timer_heap_.top().id);
    if (it != timers_.end()) return it;
    timer_heap_.pop();  // cancelled
  }
  return timers_.end();
}

std::optional<Time> Scheduler::next_timer_deadline() {
  if (earliest_live_timer() == timers_.end()) return std::nullopt;
  return timer_heap_.top().deadline;
}

bool Scheduler::fire_due_timer(Time limit) {
  auto it = earliest_live_timer();
  if (it == timers_.end() || timer_heap_.top().deadline > limit) return false;
  UGRPC_ASSERT(timer_heap_.top().deadline >= now_);
  now_ = timer_heap_.top().deadline;
  timer_heap_.pop();
  // Move the callback out before erasing so the callback may itself
  // register or cancel timers.
  std::function<void()> fn = std::move(it->second.fn);
  timers_.erase(it);
  fn();
  return true;
}

bool Scheduler::step() {
  if (ScheduleNode* node = ready_.pop_front()) {
    current_fiber_ = node->fiber;
    auto handle = node->handle;
    handle.resume();
    current_fiber_ = FiberId{0};
    if (pending_exception_) {
      auto ex = std::exchange(pending_exception_, nullptr);
      std::rethrow_exception(ex);
    }
    return true;
  }
  return fire_due_timer(std::numeric_limits<Time>::max());
}

void Scheduler::run() {
  while (step()) {
  }
}

void Scheduler::run_until(Time deadline) {
  for (;;) {
    if (!ready_.empty()) {
      (void)step();
      continue;
    }
    if (!fire_due_timer(deadline)) break;  // quiescent until `deadline`
  }
  if (now_ < deadline) now_ = deadline;
}

void Scheduler::fiber_finished(FiberId fiber) {
  auto it = fibers_.find(fiber);
  UGRPC_ASSERT(it != fibers_.end());
  // Surface unhandled fiber exceptions from step()/run(): a protocol fiber
  // that throws indicates a bug or a test assertion, never normal operation.
  auto handle = it->second.task.handle();
  if (handle.promise().exception && !pending_exception_) {
    pending_exception_ = handle.promise().exception;
  }
  fibers_.erase(it);
}

namespace detail {

void notify_fiber_finished(Scheduler& sched, FiberId fiber) { sched.fiber_finished(fiber); }

}  // namespace detail

}  // namespace ugrpc::sim
