// The micro-protocol runtime framework (paper section 3).
//
// Provides the operations the paper defines for micro-protocols --
// register, trigger, cancel_event -- plus TIMEOUT registration.  The paper's
// fourth, deregister, is left out: a configuration is static, so it simply
// does not register what it does not use.
//
//  * register_handler(event, name, priority, fn): invoke `fn` whenever
//    `event` is triggered.  Handlers for one event run *sequentially and
//    blocking* in ascending priority-value order; equal priorities run in
//    registration order.  Omitting the priority yields kDefaultPriority,
//    which runs after all explicitly prioritised handlers ("defaults to the
//    lowest priority").
//  * A handler comes in one of two kinds, chosen by what `fn` returns.  A
//    `void(EventContext&)` handler cannot block: trigger() runs it as a
//    plain call, with no coroutine frame.  A `sim::Task<>(EventContext&)`
//    handler may suspend (P on a semaphore, calling into the user protocol,
//    a stable-store write) and trigger() awaits it; the event chain waits,
//    which is exactly how Serial Execution serialises calls.  A handler that
//    waits or triggers a nested event must therefore return sim::Task<>.
//    The configuration is static, so the kind is fixed at registration.
//  * trigger(event, arg): runs all handlers registered for `event` (a
//    coroutine; the caller awaits completion -- "blocking" invocation).
//  * EventContext::cancel() inside a handler skips the remaining handlers of
//    the current invocation (cancel_event()).
//  * register_timeout(name, delay, fn): one-shot handler invoked `delay`
//    after registration, in a fresh fiber; unlike ordinary registrations it
//    fires once and is gone (paper: "executed only once after the timeout
//    period has expired").  Cancelled automatically if the framework is
//    destroyed first (site crash).  Each armed timeout waits in a slot
//    (common/slot_table.h) holding its handler, the transport's timer id
//    and what its trace records need; the id register_timeout returns names
//    that slot, and the transport's callback names only the framework and
//    the slot.  Arming a timeout allocates nothing once the slots have grown
//    to the peak number armed at once.
//
// The handler table is frozen at the first trigger().  The paper's
// configurations are fixed before a composite runs: every micro-protocol
// binds its handlers in start(), before any event is raised.  So the table
// is built once and then only read.  It is one chain per event, indexed by
// the event id (ids are small and dense).  Each chain holds its handlers by
// value in (priority, registration) order, plus the names trigger()
// reports.  After the first trigger, register_handler and define_event are
// checked errors, and trigger() walks a chain that can
// never change under it: no lookup, no snapshot, no liveness check.
//
// Ownership: handler closures live in the framework, and a running handler
// refers to its closure.  So the framework must outlive every fiber that is
// running one of its handlers.  A site guarantees this by killing its
// domain's fibers before it destroys its composite (Site::teardown_stack
// calls kill_domain before grpc_.reset()).
//
// The framework also records event names and registrations for
// introspection (reproduces paper Figure 3's picture of a live composite).
#pragma once

#include <concepts>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/ids.h"
#include "common/slot_table.h"
#include "net/transport.h"
#include "obs/trace.h"
#include "runtime/event.h"
#include "sim/scheduler.h"
#include "sim/task.h"

namespace ugrpc::runtime {

/// Handlers registered without an explicit priority run last.
inline constexpr int kDefaultPriority = 1'000'000;

/// A handler that may suspend: trigger() awaits it.
using Handler = std::function<sim::Task<>(EventContext&)>;
/// A handler that cannot suspend: trigger() calls it.
using PlainHandler = std::function<void(EventContext&)>;
/// Timeout handlers take no event argument (paper's TIMEOUT handlers).
using TimeoutHandler = std::function<sim::Task<>()>;

class Framework {
 public:
  /// Timers registered through the framework (TIMEOUT handlers) and the
  /// fibers they run in come from `transport`'s clock/timer/spawn hooks, so
  /// one framework implementation serves both the simulated and the real
  /// (UDP) backend.
  ///
  /// `trace` is the per-site trace ring (obs layer) this framework records
  /// into: trigger() records kEventTriggered/kEventHandled and the TIMEOUT
  /// machinery records kTimerArmed/kTimerFired/kTimerCancelled.  nullptr
  /// (the default) turns recording off; every record site is behind a
  /// single pointer check.  The trace is fixed for the framework's lifetime,
  /// like its configuration, so each name is interned once, when its event
  /// is defined or its handler registered.
  Framework(net::Transport& transport, DomainId domain, obs::SiteTrace* trace = nullptr);
  ~Framework();

  Framework(const Framework&) = delete;
  Framework& operator=(const Framework&) = delete;

  /// Associates a human-readable name with an event id (introspection and
  /// trace records).  Not allowed once the table is frozen.
  void define_event(EventId event, std::string name);

  /// Registers `fn` for `event`.  Not allowed once the table is frozen.
  /// `fn` returns void (a plain handler) or sim::Task<> (a coroutine
  /// handler); see the file comment.
  template <typename F>
    requires std::invocable<F&, EventContext&>
  void register_handler(EventId event, std::string handler_name, int priority, F&& fn) {
    using R = std::invoke_result_t<F&, EventContext&>;
    static_assert(std::is_void_v<R> || std::is_same_v<R, sim::Task<>>,
                  "an event handler returns void or sim::Task<>");
    using Kind = std::conditional_t<std::is_void_v<R>, PlainHandler, Handler>;
    add_handler(event, std::move(handler_name), priority,
                Callable(std::in_place_type<Kind>, std::forward<F>(fn)));
  }
  template <typename F>
    requires std::invocable<F&, EventContext&>
  void register_handler(EventId event, std::string handler_name, F&& fn) {
    register_handler(event, std::move(handler_name), kDefaultPriority, std::forward<F>(fn));
  }

  /// Invokes every handler registered for `event`, in priority order,
  /// sequentially, calling each plain handler and awaiting each coroutine
  /// handler (blocking sequential invocation).  Returns true if the chain
  /// ran to completion, false if a handler cancelled it.  The first call
  /// freezes the handler table.
  sim::Task<bool> trigger(EventId event, EventArg arg = {});

  /// One-shot timeout (see file comment).  Returns the timeout's id, which
  /// only cancel_timeout() takes (it is not the transport's timer id).
  /// `name` labels the timer in the site trace; it is read only when
  /// tracing is on, and not kept.
  TimerId register_timeout(std::string_view name, sim::Duration delay, TimeoutHandler fn);
  /// No-op for a timeout that fired or was cancelled, and for TimerId{}.
  void cancel_timeout(TimerId id);
  /// Timeouts armed and neither fired nor cancelled yet.
  [[nodiscard]] std::size_t live_timeouts() const { return armed_.size(); }

  [[nodiscard]] net::Transport& transport() { return transport_; }
  [[nodiscard]] sim::Scheduler& scheduler() { return transport_.executor(); }
  [[nodiscard]] DomainId domain() const { return domain_; }

  // ---- observability ----

  /// Called immediately before each handler invocation with (virtual time,
  /// event name, handler name).  One observer per framework; pass nullptr to
  /// remove.  Intended for tests and debugging dumps -- the observer runs
  /// synchronously and must not re-enter the framework.
  using TraceObserver = std::function<void(sim::Time, const std::string& event,
                                           const std::string& handler)>;
  void set_trace_observer(TraceObserver observer) { trace_ = std::move(observer); }

  // ---- introspection (Figure 3 reproduction, debugging) ----
  struct RegistrationInfo {
    std::string event;
    std::string handler;
    int priority;
  };
  /// All live registrations, grouped by event, in invocation order.
  [[nodiscard]] std::vector<RegistrationInfo> registrations() const;
  [[nodiscard]] std::string event_name(EventId event) const;
  [[nodiscard]] std::size_t handler_count(EventId event) const;

 private:
  /// A registration's handler, of either kind.
  using Callable = std::variant<PlainHandler, Handler>;

  struct Registration {
    std::string name;
    int priority;
    Callable fn;
    std::uint32_t name_id;  ///< `name` interned in the site trace
  };

  /// One event's handlers in invocation order, plus the names trigger()
  /// reports, resolved up front so that a dispatch does no string work.
  struct Chain {
    std::string event_name;  ///< "event#<id>" until define_event names it
    std::uint32_t event_name_id = 0;
    std::vector<Registration> handlers;  ///< (priority, registration) order
  };

  void add_handler(EventId event, std::string handler_name, int priority, Callable fn);
  /// The chain of `event`, created on first use; asserts the table is not
  /// frozen yet.
  Chain& mutable_chain(EventId event);
  /// `name` interned in the site trace, 0 when tracing is off.
  [[nodiscard]] std::uint32_t intern(std::string_view name) const;

  /// An armed timeout.
  struct Armed {
    TimeoutHandler fn;
    TimerId timer;           ///< the transport's id
    std::uint32_t name_id;   ///< its name interned in the site trace
    obs::SpanCtx armed_ctx;  ///< the ambient context that armed it
  };

  /// The transport's callback: frees the slot and runs the handler.
  void fire_timeout(TimerId id);

  net::Transport& transport_;
  DomainId domain_;
  std::vector<Chain> chains_;  ///< indexed by EventId value
  bool frozen_ = false;        ///< set by the first trigger()
  SlotTable<Armed> armed_;
  TraceObserver trace_;
  obs::SiteTrace* const site_trace_;
};

}  // namespace ugrpc::runtime
