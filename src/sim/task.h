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
//  * A destroyed frame's memory goes back to the frame pool (FramePool
//    below), a per-thread free list per size class, and the next frame of
//    that class reuses it.  The pool owns only free blocks, never a live
//    frame, so none of the rules above depend on it.  Under
//    AddressSanitizer it is compiled out: every frame is freed to ASan, whose
//    quarantine turns a use of a destroyed frame into a report.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>

#include "common/assert.h"
#include "common/ids.h"

namespace ugrpc::sim {

class Scheduler;

namespace detail {

#if defined(__SANITIZE_ADDRESS__)
inline constexpr bool kFramePoolEnabled = false;
#else
inline constexpr bool kFramePoolEnabled = true;
#endif

/// Recycles coroutine frames.  A frame of up to kMaxPooled bytes is rounded
/// up to a multiple of kGranule, its size class, and when it is destroyed
/// its block goes onto the calling thread's free list for that class; the
/// next frame of the class takes it from there.  Larger frames go straight
/// to global new and delete.  A thread's lists are only ever touched by that
/// thread, so they need no lock.  Blocks carry no owner, which makes
/// cross-thread frees safe by construction: a frame destroyed on another
/// thread than the one that made it joins the destroying thread's lists, or
/// goes to global delete if that thread never made a frame.  When a thread
/// exits its lists are freed; a frame destroyed after that, by a later
/// thread-exit or static destructor, goes straight to global delete.
class FramePool {
 public:
  static constexpr std::size_t kGranule = 64;
  static constexpr std::size_t kMaxPooled = 2048;

  [[nodiscard]] static void* allocate(std::size_t n) {
    ++lists_.frames;
    if (n > kMaxPooled) return ::operator new(n);
    const std::size_t c = size_class(n);
    if (Block* b = lists_.head[c]) {
      lists_.head[c] = b->next;
      return b;
    }
    if (lists_.state == State::kUnused) adopt_thread();
    return ::operator new(class_bytes(c));
  }

  static void deallocate(void* p, std::size_t n) noexcept {
    if (n > kMaxPooled) {
      ::operator delete(p, n);
      return;
    }
    const std::size_t c = size_class(n);
    if (lists_.state != State::kLive) {
      ::operator delete(p, class_bytes(c));
      return;
    }
    lists_.head[c] = ::new (p) Block{lists_.head[c]};
  }

  /// Blocks on the calling thread's free lists.
  [[nodiscard]] static std::size_t cached() noexcept;
  /// Frames the calling thread has allocated, pooled or not.
  [[nodiscard]] static std::uint64_t frames() noexcept { return lists_.frames; }

 private:
  static constexpr std::size_t kClasses = kMaxPooled / kGranule;

  struct Block {
    Block* next;
  };
  /// kUnused until the thread's first pooled allocation, kGone once the
  /// thread's exit has freed its lists.
  enum class State : unsigned char { kUnused, kLive, kGone };
  struct Lists {
    Block* head[kClasses];
    State state;
    std::uint64_t frames;
  };

  [[nodiscard]] static constexpr std::size_t size_class(std::size_t n) {
    return (n - 1) / kGranule;
  }
  [[nodiscard]] static constexpr std::size_t class_bytes(std::size_t c) {
    return (c + 1) * kGranule;
  }
  /// Arms the thread-exit hook that frees this thread's lists.
  static void adopt_thread();
  static void release_thread() noexcept;

  // Constant-initialised and trivially destructible, so it is usable from
  // the first allocation to the last destructor of the thread.
  static inline constinit thread_local Lists lists_{};
};

struct PromiseBase {
#if !defined(__SANITIZE_ADDRESS__)
  // Every Task's frame comes from, and returns to, the frame pool.
  static void* operator new(std::size_t n) { return FramePool::allocate(n); }
  static void operator delete(void* p, std::size_t n) noexcept { FramePool::deallocate(p, n); }
#endif

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
