// Coroutine task type used as the simulator's "thread" abstraction.
//
// The paper's execution model has event handlers and user threads that block
// on semaphores (P/V).  We model each such thread as a C++20 coroutine:
// blocking operations are awaitables that suspend the coroutine and park it
// in a wait queue; the Scheduler resumes it later.  This gives the paper's
// blocking semantics with fully deterministic, cooperative scheduling.
//
// Ownership discipline (what makes kill() safe):
//  * A Task object owns its coroutine frame and destroys it in its
//    destructor.
//  * `co_await some_task()` keeps the child Task as a temporary in the
//    parent's frame, so destroying the root frame cascades down the entire
//    await chain, running destructors of every in-scope local (RAII).
//  * Awaiters that park in wait queues unlink themselves on destruction
//    (see intrusive_list.h), so destroying a suspended chain never leaves a
//    dangling queue entry.
#pragma once

#include <coroutine>
#include <exception>
#include <optional>
#include <type_traits>
#include <utility>

#include "common/assert.h"
#include "common/ids.h"

namespace ugrpc::sim {

class Scheduler;

namespace detail {

struct PromiseBase {
  /// Coroutine to resume when this one finishes (the awaiting parent).
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;
  /// Set only on root (spawned) tasks; used to notify the scheduler.
  Scheduler* root_scheduler = nullptr;
  FiberId root_fiber;

  struct FinalAwaiter {
    [[nodiscard]] bool await_ready() const noexcept { return false; }

    template <typename Promise>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept;

    void await_resume() const noexcept {}
  };

  [[nodiscard]] std::suspend_always initial_suspend() const noexcept { return {}; }
  [[nodiscard]] FinalAwaiter final_suspend() const noexcept { return {}; }
  void unhandled_exception() { exception = std::current_exception(); }
};

/// The part of Task<T>'s promise that depends on T: the returned value.
template <typename T>
struct PromiseResult : PromiseBase {
  std::optional<T> value;

  template <typename U>
  void return_value(U&& v) {
    value.emplace(std::forward<U>(v));
  }
};

/// A Task<void> returns nothing, so its promise holds no value.
template <>
struct PromiseResult<void> : PromiseBase {
  void return_void() const noexcept {}
};

}  // namespace detail

/// A lazily-started coroutine producing a value of type T (or void).
template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseResult<T> {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
  };

  using handle_type = std::coroutine_handle<promise_type>;

  Task() noexcept = default;
  explicit Task(handle_type h) noexcept : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const { return static_cast<bool>(handle_); }
  [[nodiscard]] handle_type handle() const { return handle_; }
  /// Transfers frame ownership to the caller (used by Scheduler::spawn).
  handle_type release() { return std::exchange(handle_, {}); }

  auto operator co_await() && noexcept {
    struct Awaiter {
      handle_type child;
      [[nodiscard]] bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) noexcept {
        child.promise().continuation = parent;
        return child;  // symmetric transfer into the child
      }
      T await_resume() {
        if (child.promise().exception) std::rethrow_exception(child.promise().exception);
        if constexpr (!std::is_void_v<T>) return std::move(*child.promise().value);
      }
    };
    return Awaiter{handle_};
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  handle_type handle_;
};

namespace detail {

// Defined in scheduler.h (needs the full Scheduler type).
void notify_fiber_finished(Scheduler& sched, FiberId fiber);

template <typename Promise>
std::coroutine_handle<> PromiseBase::FinalAwaiter::await_suspend(
    std::coroutine_handle<Promise> h) noexcept {
  auto& promise = h.promise();
  if (promise.continuation) {
    return promise.continuation;  // resume the awaiting parent
  }
  if (promise.root_scheduler != nullptr) {
    // Root of a spawned fiber: tell the scheduler, which erases the fiber
    // record and thereby destroys this frame.  Only stack locals may be
    // touched afterwards.
    Scheduler& sched = *promise.root_scheduler;
    const FiberId fiber = promise.root_fiber;
    notify_fiber_finished(sched, fiber);
    return std::noop_coroutine();
  }
  // A detached task that nobody awaits and nobody spawned: not supported.
  UGRPC_ASSERT(false && "Task finished with no continuation and no scheduler");
  return std::noop_coroutine();
}

}  // namespace detail

}  // namespace ugrpc::sim
