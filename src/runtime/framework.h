// The micro-protocol runtime framework (paper section 3).
//
// Provides the four operations the paper defines for micro-protocols --
// register, trigger, deregister, cancel_event -- plus TIMEOUT registration:
//
//  * register_handler(event, name, priority, fn): invoke `fn` whenever
//    `event` is triggered.  Handlers for one event run *sequentially and
//    blocking* in ascending priority-value order; equal priorities run in
//    registration order.  Omitting the priority yields kDefaultPriority,
//    which runs after all explicitly prioritised handlers ("defaults to the
//    lowest priority").
//  * trigger(event, arg): runs all handlers registered for `event` (a
//    coroutine; the caller awaits completion -- "blocking" invocation).
//    Handlers may suspend (P on a semaphore, calling into the user
//    protocol); the event chain waits, which is exactly how Serial Execution
//    serialises calls.
//  * EventContext::cancel() inside a handler skips the remaining handlers of
//    the current invocation (cancel_event()).
//  * register_timeout(name, delay, fn): one-shot handler invoked `delay`
//    after registration, in a fresh fiber; unlike ordinary registrations it
//    fires once and is gone (paper: "executed only once after the timeout
//    period has expired").  Cancelled automatically if the framework is
//    destroyed first (site crash).
//
// Dispatch hot path: each event keeps its registrations pre-sorted by
// (priority, registration sequence) and caches an immutable, shared snapshot
// of the invocation chain.  register_handler/deregister bump the event's
// generation, invalidating the snapshot; trigger() rebuilds it at most once
// per generation and otherwise only takes a reference -- no per-trigger
// allocation, copying or sorting.  Handlers deregistered while their event
// is in flight are skipped via a liveness check against the registry.
//
// The framework also records event names and registrations for
// introspection (reproduces paper Figure 3's picture of a live composite).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/ids.h"
#include "net/transport.h"
#include "obs/trace.h"
#include "runtime/event.h"
#include "sim/scheduler.h"
#include "sim/task.h"

namespace ugrpc::runtime {

/// Handlers registered without an explicit priority run last.
inline constexpr int kDefaultPriority = 1'000'000;

struct HandlerIdTag {};
using HandlerId = ugrpc::detail::TaggedId<HandlerIdTag, std::uint64_t>;

using Handler = std::function<sim::Task<>(EventContext&)>;
/// Timeout handlers take no event argument (paper's TIMEOUT handlers).
using TimeoutHandler = std::function<sim::Task<>()>;

class Framework {
 public:
  /// Timers registered through the framework (TIMEOUT handlers) and the
  /// fibers they run in come from `transport`'s clock/timer/spawn hooks, so
  /// one framework implementation serves both the simulated and the real
  /// (UDP) backend.
  Framework(net::Transport& transport, DomainId domain);
  ~Framework();

  Framework(const Framework&) = delete;
  Framework& operator=(const Framework&) = delete;

  /// Associates a human-readable name with an event id (introspection only).
  void define_event(EventId event, std::string name);

  /// Registers `fn` for `event`.  Returns an id usable with deregister().
  HandlerId register_handler(EventId event, std::string handler_name, int priority, Handler fn);
  HandlerId register_handler(EventId event, std::string handler_name, Handler fn) {
    return register_handler(event, std::move(handler_name), kDefaultPriority, std::move(fn));
  }

  /// Removes a registration.  Safe to call for an already-removed id.  A
  /// handler deregistered while its event is being triggered no longer runs
  /// in that invocation (if it has not started yet).
  void deregister(HandlerId id);
  /// Paper-style deregistration by (event, handler name).
  void deregister(EventId event, const std::string& handler_name);

  /// Invokes every handler registered for `event`, in priority order,
  /// sequentially, awaiting each (blocking sequential invocation).  Returns
  /// true if the chain ran to completion, false if a handler cancelled it.
  sim::Task<bool> trigger(EventId event, EventArg arg = {});

  /// One-shot timeout (see file comment).  Returns the timer id; cancel with
  /// cancel_timeout().
  TimerId register_timeout(std::string name, sim::Duration delay, TimeoutHandler fn);
  void cancel_timeout(TimerId id);
  /// Timeouts armed and neither fired nor cancelled yet.
  [[nodiscard]] std::size_t live_timeouts() const { return live_timeouts_.size(); }

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

  /// Attaches this framework to a per-site trace ring (obs layer): trigger()
  /// records kEventTriggered/kEventHandled and the TIMEOUT machinery records
  /// kTimerArmed/kTimerFired/kTimerCancelled.  nullptr (the default) turns
  /// recording off; every record site is behind a single pointer check.
  void set_site_trace(obs::SiteTrace* trace);
  [[nodiscard]] obs::SiteTrace* site_trace() const { return site_trace_; }

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

  /// Mutation counter of `event`'s handler set: bumped by every
  /// register_handler/deregister touching the event.  The cached dispatch
  /// chain is tagged with the generation it was built from and rebuilt only
  /// when the two diverge (regression tests pin this).
  [[nodiscard]] std::uint64_t generation(EventId event) const;

 private:
  // Immutable once registered; the chain snapshot and the sorted per-event
  // vector share ownership so in-flight triggers survive deregistration.
  struct Registration {
    HandlerId id;
    EventId event;
    std::string name;
    int priority;
    std::uint64_t seq;
    Handler fn;
  };
  using RegistrationPtr = std::shared_ptr<const Registration>;

  /// Dispatch snapshot of one event: its registrations in invocation order
  /// plus the names trigger() reports, resolved once per snapshot so that a
  /// dispatch does no string work.
  struct Chain {
    std::vector<RegistrationPtr> regs;
    std::string event_name;  ///< for the trace observer
    /// Names interned in the site trace the snapshot was built under:
    /// the event's, then one per entry of `regs` (empty when tracing is off).
    std::uint32_t event_name_id = 0;
    std::vector<std::uint32_t> handler_name_ids;
  };

  struct EventTable {
    std::vector<RegistrationPtr> regs;  ///< sorted by (priority, seq); insertion keeps the order
    std::shared_ptr<const Chain> cache;  ///< dispatch snapshot, lazily rebuilt
    std::uint64_t generation = 0;        ///< bumped on every regs mutation
    std::uint64_t cache_generation = 0;  ///< generation `cache` was built at
  };

  [[nodiscard]] const std::shared_ptr<const Chain>& chain_for(EventId event);

  /// A registered timeout: its handler and the id the transport gave it.
  struct Armed {
    TimeoutHandler fn;
    TimerId id;
  };

  net::Transport& transport_;
  DomainId domain_;
  std::unordered_map<EventId, EventTable> events_;
  std::unordered_map<HandlerId, EventId> by_id_;
  std::unordered_map<EventId, std::string> event_names_;
  std::unordered_set<TimerId> live_timeouts_;
  TraceObserver trace_;
  obs::SiteTrace* site_trace_ = nullptr;
  std::uint64_t next_handler_ = 1;
  std::uint64_t next_seq_ = 1;
};

}  // namespace ugrpc::runtime
