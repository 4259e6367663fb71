#include "runtime/framework.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/assert.h"
#include "common/log.h"

namespace ugrpc::runtime {

Framework::Framework(net::Transport& transport, DomainId domain)
    : transport_(transport), domain_(domain) {}

Framework::~Framework() {
  // A destroyed framework (crashed site) must not leave timers behind: their
  // callbacks capture `this`.
  for (TimerId id : live_timeouts_) transport_.cancel_timer(id);
}

void Framework::define_event(EventId event, std::string name) {
  event_names_[event] = std::move(name);
  if (auto it = events_.find(event); it != events_.end()) it->second.cache.reset();
}

void Framework::set_site_trace(obs::SiteTrace* trace) {
  site_trace_ = trace;
  // Snapshots hold name ids interned in the previous trace's tracer.
  for (auto& [event, table] : events_) table.cache.reset();
}

HandlerId Framework::register_handler(EventId event, std::string handler_name, int priority,
                                      Handler fn) {
  UGRPC_ASSERT(fn != nullptr);
  UGRPC_ASSERT(priority >= 0 && "priorities are non-negative");
  const HandlerId id{next_handler_++};
  auto reg = std::make_shared<const Registration>(
      Registration{id, event, std::move(handler_name), priority, next_seq_++, std::move(fn)});
  EventTable& table = events_[event];
  // Insertion keeps (priority, seq) order; seq is monotonic, so among equal
  // priorities the new entry goes after every existing one.
  const auto pos = std::upper_bound(
      table.regs.begin(), table.regs.end(), priority,
      [](int prio, const RegistrationPtr& r) { return prio < r->priority; });
  table.regs.insert(pos, std::move(reg));
  ++table.generation;
  by_id_.emplace(id, event);
  return id;
}

void Framework::deregister(HandlerId id) {
  auto it = by_id_.find(id);
  if (it == by_id_.end()) return;
  EventTable& table = events_[it->second];
  std::erase_if(table.regs, [id](const RegistrationPtr& r) { return r->id == id; });
  ++table.generation;
  by_id_.erase(it);
}

void Framework::deregister(EventId event, const std::string& handler_name) {
  auto ev = events_.find(event);
  if (ev == events_.end()) return;
  EventTable& table = ev->second;
  const auto removed = std::erase_if(table.regs, [&](const RegistrationPtr& r) {
    if (r->name != handler_name) return false;
    by_id_.erase(r->id);
    return true;
  });
  if (removed > 0) ++table.generation;
}

const std::shared_ptr<const Framework::Chain>& Framework::chain_for(EventId event) {
  EventTable& table = events_[event];
  if (table.cache == nullptr || table.cache_generation != table.generation) {
    auto chain = std::make_shared<Chain>();
    chain->regs = table.regs;
    chain->event_name = event_name(event);
    if (site_trace_ != nullptr) {
      chain->event_name_id = site_trace_->intern(chain->event_name);
      for (const RegistrationPtr& reg : chain->regs) {
        chain->handler_name_ids.push_back(site_trace_->intern(reg->name));
      }
    }
    table.cache = std::move(chain);
    table.cache_generation = table.generation;
  }
  return table.cache;
}

sim::Task<bool> Framework::trigger(EventId event, EventArg arg) {
  // Take a reference to the immutable chain snapshot: handlers registered
  // *during* this trigger do not run in it (they land in a new snapshot),
  // and deregistered ones are skipped via the liveness check below.
  std::shared_ptr<const Chain> chain = chain_for(event);
  // Spans: the kEventTriggered record opens the chain span and each
  // kEventHandled record a handler span beneath it; each is the running
  // fiber's ambient context while it is open, so sends and nested triggers
  // parent correctly.  The ambient is saved/restored because triggers
  // re-enter on the same fiber (a handler that triggers another event) and
  // the caller's context must survive.
  obs::SiteTrace* const st = site_trace_;
  std::uint64_t fiber = 0;
  obs::SpanCtx saved;
  obs::SpanCtx chain_ctx;
  if (st) {
    fiber = transport_.executor().current_fiber().value();
    saved = st->current(fiber);
    chain_ctx = st->open(transport_.now(), obs::Kind::kEventTriggered, saved, 0, event.value(),
                         0, chain->event_name_id);
    st->set_current(fiber, chain_ctx);
  }
  const auto finish = [&](bool completed) {
    if (st) {
      st->close(transport_.now(), chain_ctx.parent);
      st->set_current(fiber, saved);
    }
    return completed;
  };
  EventContext ctx(arg);
  for (std::size_t i = 0; i < chain->regs.size(); ++i) {
    const Registration& reg = *chain->regs[i];
    if (!by_id_.contains(reg.id)) continue;  // deregistered mid-event
    if (trace_) trace_(transport_.now(), chain->event_name, reg.name);
    obs::SpanCtx handler_ctx;
    if (st) {
      handler_ctx = st->open(transport_.now(), obs::Kind::kEventHandled, chain_ctx, 0,
                             event.value(), static_cast<std::uint64_t>(reg.priority),
                             chain->handler_name_ids[i]);
      st->set_current(fiber, handler_ctx);
    }
    co_await reg.fn(ctx);
    if (st) {
      st->close(transport_.now(), handler_ctx.parent);
      st->set_current(fiber, chain_ctx);
    }
    if (ctx.cancelled()) co_return finish(false);
  }
  co_return finish(true);
}

TimerId Framework::register_timeout(std::string name, sim::Duration delay, TimeoutHandler fn) {
  UGRPC_ASSERT(fn != nullptr);
  // The id is assigned by the scheduler; the callback fires exactly once and
  // spawns a fresh fiber so the timeout handler may block (e.g. Bounded
  // Termination takes the pRPC mutex).
  // The armed record also carries the timer id, filled in below, so the
  // fire callback can drop it from live_timeouts_.
  auto armed = std::make_shared<Armed>(Armed{std::move(fn), TimerId{}});
  // The wrapper coroutine keeps the handler object alive for as long as the
  // handler body runs: coroutine parameters are copied into the frame,
  // whereas the closure that a std::function invocation runs on is not.
  // It also makes the timer's span (opened by the kTimerFired record,
  // parented to the context that *armed* the timer) the handler fiber's
  // ambient context -- so a retransmission timer's sends stay on the call's
  // trace -- and closes the span when the handler returns.
  // The wrapper captures the transport and the site trace rather than the
  // framework: both outlive any fiber of this domain, the framework may not.
  static constexpr auto invoke = [](net::Transport* tp, obs::SiteTrace* st,
                                    std::shared_ptr<Armed> a, obs::SpanCtx ctx) -> sim::Task<> {
    std::uint64_t fiber = 0;
    if (st != nullptr) {
      fiber = tp->executor().current_fiber().value();
      st->set_current(fiber, ctx);
    }
    co_await a->fn();
    if (st != nullptr) {
      st->clear_current(fiber);
      st->close(tp->now(), ctx.parent);
    }
  };
  const std::uint32_t name_id = site_trace_ ? site_trace_->intern(name) : 0;
  obs::SpanCtx armed_ctx;
  if (site_trace_) {
    armed_ctx = site_trace_->current(transport_.executor().current_fiber().value());
  }
  const TimerId id = transport_.schedule_after(
      delay,
      [this, armed, name_id, armed_ctx]() {
        // A fired timer is no longer live: cancelling it later is a no-op.
        live_timeouts_.erase(armed->id);
        obs::SpanCtx ctx;
        if (site_trace_) {
          // The name identifies the timer class.
          ctx = site_trace_->open(transport_.now(), obs::Kind::kTimerFired, armed_ctx, 0, 0, 0,
                                  name_id);
        }
        transport_.spawn(invoke(&transport_, site_trace_, armed, ctx), domain_);
      },
      domain_);
  // Neither transport fires a timer before schedule_after returns.
  armed->id = id;
  live_timeouts_.insert(id);
  if (site_trace_) {
    site_trace_->record(transport_.now(), obs::Kind::kTimerArmed, 0, id.value(),
                        static_cast<std::uint64_t>(delay), name_id);
  }
  return id;
}

void Framework::cancel_timeout(TimerId id) {
  transport_.cancel_timer(id);
  if (live_timeouts_.erase(id) > 0 && site_trace_) {
    site_trace_->record(transport_.now(), obs::Kind::kTimerCancelled, 0, id.value());
  }
}

std::vector<Framework::RegistrationInfo> Framework::registrations() const {
  // Grouped by event in event-id order (events_ is unordered).
  std::map<EventId, const EventTable*> ordered;
  std::size_t total = 0;
  for (const auto& [event, table] : events_) {
    ordered.emplace(event, &table);
    total += table.regs.size();
  }
  std::vector<RegistrationInfo> out;
  out.reserve(total);
  for (const auto& [event, table] : ordered) {
    for (const RegistrationPtr& reg : table->regs) {
      out.push_back(RegistrationInfo{event_name(event), reg->name, reg->priority});
    }
  }
  return out;
}

std::string Framework::event_name(EventId event) const {
  auto it = event_names_.find(event);
  if (it != event_names_.end()) return it->second;
  return "event#" + std::to_string(event.value());
}

std::size_t Framework::handler_count(EventId event) const {
  auto it = events_.find(event);
  return it != events_.end() ? it->second.regs.size() : 0;
}

std::uint64_t Framework::generation(EventId event) const {
  auto it = events_.find(event);
  return it != events_.end() ? it->second.generation : 0;
}

}  // namespace ugrpc::runtime
