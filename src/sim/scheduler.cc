#include "sim/scheduler.h"

#include <limits>
#include <utility>

#include "common/log.h"

namespace ugrpc::sim {

Scheduler::Scheduler(std::uint64_t seed) : rng_(seed) {}

Scheduler::~Scheduler() {
  // Destroy remaining fibers explicitly; their awaiter destructors unlink
  // from ready_/timer queues, which must still be alive here.
  std::vector<FiberId> remaining;
  fibers_.for_each([&](std::uint64_t id, FiberState&) { remaining.push_back(FiberId{id}); });
  for (FiberId id : remaining) kill(id);
}

FiberId Scheduler::spawn(Task<> task, DomainId domain) {
  UGRPC_ASSERT(task.valid());
  const auto [id, state] = fibers_.insert();
  const FiberId fiber{id};
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

void Scheduler::release_fiber(FiberId fiber, FiberState& state) {
  // The slot is free before the chain is destroyed, as a map entry was
  // gone before its value: fiber_alive(fiber) is false from the chain's
  // destructors on.  Destroying the Task destroys the whole coroutine chain;
  // intrusive nodes unlink from ready_/wait queues.
  Task<> task = std::move(state.task);
  state.start_node.unlink();
  state.ambient = {};
  fibers_.erase(fiber.value());
}

void Scheduler::kill(FiberId fiber) {
  UGRPC_ASSERT(fiber != current_fiber_ && "a fiber cannot kill itself");
  if (FiberState* state = fibers_.find(fiber.value())) release_fiber(fiber, *state);
}

void Scheduler::kill_domain(DomainId domain) {
  std::vector<FiberId> victims;
  fibers_.for_each([&](std::uint64_t id, const FiberState& state) {
    if (state.domain == domain) victims.push_back(FiberId{id});
  });
  for (FiberId id : victims) kill(id);

  std::vector<TimerId> dead_timers;
  timers_.for_each([&](std::uint64_t id, const TimerRecord& rec) {
    if (rec.domain == domain) dead_timers.push_back(TimerId{id});
  });
  for (TimerId id : dead_timers) cancel_timer(id);
}

DomainId Scheduler::current_domain() const {
  const FiberState* state = fibers_.find(current_fiber_.value());
  return state != nullptr ? state->domain : kGlobalDomain;
}

obs::SpanCtx Scheduler::ambient() const {
  const FiberState* state = fibers_.find(current_fiber_.value());
  return state != nullptr ? state->ambient : obs::SpanCtx{};
}

void Scheduler::set_ambient(const obs::SpanCtx& ctx) {
  FiberState* state = fibers_.find(current_fiber_.value());
  UGRPC_ASSERT(state != nullptr && "set_ambient outside a fiber");
  state->ambient = ctx;
}

TimerId Scheduler::schedule_at(Time deadline, std::function<void()> fn, DomainId domain) {
  UGRPC_ASSERT(deadline >= now_);
  const auto [id, rec] = timers_.insert();
  rec.fn = std::move(fn);
  rec.domain = domain;
  timer_heap_.push(TimerEntry{deadline, TimerId{id}});
  return TimerId{id};
}

void Scheduler::cancel_timer(TimerId id) {
  // The heap entry is skipped lazily when popped.  The callback is
  // destroyed after its slot is free, so its destructor may use the timers.
  TimerRecord* rec = timers_.find(id.value());
  if (rec == nullptr) return;
  std::function<void()> fn = std::move(rec->fn);
  rec->fn = nullptr;
  timers_.erase(id.value());
}

Scheduler::TimerRecord* Scheduler::earliest_live_timer() {
  while (!timer_heap_.empty()) {
    if (TimerRecord* rec = timers_.find(timer_heap_.top().id.value())) return rec;
    timer_heap_.pop();  // cancelled
  }
  return nullptr;
}

std::optional<Time> Scheduler::next_timer_deadline() {
  if (earliest_live_timer() == nullptr) return std::nullopt;
  return timer_heap_.top().deadline;
}

bool Scheduler::fire_due_timer(Time limit) {
  TimerRecord* rec = earliest_live_timer();
  if (rec == nullptr || timer_heap_.top().deadline > limit) return false;
  UGRPC_ASSERT(timer_heap_.top().deadline >= now_);
  now_ = timer_heap_.top().deadline;
  const TimerId id = timer_heap_.top().id;
  timer_heap_.pop();
  // Move the callback out before erasing so the callback may itself
  // register or cancel timers.
  std::function<void()> fn = std::move(rec->fn);
  rec->fn = nullptr;
  timers_.erase(id.value());
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
  FiberState* state = fibers_.find(fiber.value());
  UGRPC_ASSERT(state != nullptr);
  // Surface unhandled fiber exceptions from step()/run(): a protocol fiber
  // that throws indicates a bug or a test assertion, never normal operation.
  auto handle = state->task.handle();
  if (handle.promise().exception && !pending_exception_) {
    pending_exception_ = handle.promise().exception;
  }
  release_fiber(fiber, *state);
}

namespace detail {

void notify_fiber_finished(Scheduler& sched, FiberId fiber) { sched.fiber_finished(fiber); }

}  // namespace detail

}  // namespace ugrpc::sim
