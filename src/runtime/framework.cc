#include "runtime/framework.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"
#include "common/log.h"

namespace ugrpc::runtime {

Framework::Framework(net::Transport& transport, DomainId domain, obs::SiteTrace* trace)
    : transport_(transport), domain_(domain), site_trace_(trace) {}

Framework::~Framework() {
  // A destroyed framework (crashed site) must not leave timers behind: their
  // callbacks capture `this`.
  armed_.for_each([&](std::uint64_t, const Armed& a) { transport_.cancel_timer(a.timer); });
}

Framework::Chain& Framework::mutable_chain(EventId event) {
  UGRPC_ASSERT(!frozen_ && "the handler table is frozen at the first trigger");
  UGRPC_ASSERT(event.value() < 1024 && "event ids are small dense indices");
  while (chains_.size() <= event.value()) {
    Chain& chain = chains_.emplace_back();
    chain.event_name = "event#" + std::to_string(chains_.size() - 1);
    chain.event_name_id = intern(chain.event_name);
  }
  return chains_[event.value()];
}

std::uint32_t Framework::intern(std::string_view name) const {
  return site_trace_ != nullptr ? site_trace_->intern(name) : 0;
}

void Framework::define_event(EventId event, std::string name) {
  Chain& chain = mutable_chain(event);
  chain.event_name = std::move(name);
  chain.event_name_id = intern(chain.event_name);
}

void Framework::add_handler(EventId event, std::string handler_name, int priority,
                            Callable fn) {
  UGRPC_ASSERT(std::visit([](const auto& f) { return f != nullptr; }, fn));
  UGRPC_ASSERT(priority >= 0 && "priorities are non-negative");
  std::vector<Registration>& handlers = mutable_chain(event).handlers;
  // Most chains hold at most four handlers: one block for them, rather than
  // a regrowth per registration, while a site sets up its composite.
  if (handlers.empty()) handlers.reserve(4);
  // Insertion keeps (priority, registration) order: among equal priorities
  // the new entry goes after every existing one.
  const auto pos = std::upper_bound(
      handlers.begin(), handlers.end(), priority,
      [](int prio, const Registration& r) { return prio < r.priority; });
  const std::uint32_t name_id = intern(handler_name);
  handlers.insert(pos, Registration{std::move(handler_name), priority, std::move(fn), name_id});
}

sim::Task<bool> Framework::trigger(EventId event, EventArg arg) {
  frozen_ = true;
  // An event nobody registered for or named still runs (and records) an
  // empty chain.
  static const Chain kUnregistered;
  const bool known = event.value() < chains_.size();
  const Chain& chain = known ? chains_[event.value()] : kUnregistered;
  // Spans: the kEventTriggered record opens the chain span and each
  // kEventHandled record a handler span beneath it.  A handler runs with its
  // span as the fiber's ambient context, so its sends and nested triggers
  // parent correctly; between handlers only this loop runs, so nothing reads
  // the chain span there.  The caller's ambient is restored at the end
  // because triggers re-enter on the same fiber (a handler that triggers
  // another event) and the caller's context must survive.
  obs::SiteTrace* const st = site_trace_;
  obs::SpanCtx saved;
  obs::SpanCtx chain_ctx;
  if (st) {
    saved = transport_.executor().ambient();
    const std::uint32_t name_id = known ? chain.event_name_id : intern(event_name(event));
    chain_ctx = st->open(transport_.now(), obs::Kind::kEventTriggered, saved, 0, event.value(),
                         0, name_id);
  }
  const auto finish = [&](bool completed) {
    if (st) {
      st->close(transport_.now(), chain_ctx.parent);
      transport_.executor().set_ambient(saved);
    }
    return completed;
  };
  EventContext ctx(arg);
  for (const Registration& reg : chain.handlers) {
    if (trace_) trace_(transport_.now(), chain.event_name, reg.name);
    obs::SpanCtx handler_ctx;
    if (st) {
      handler_ctx = st->open(transport_.now(), obs::Kind::kEventHandled, chain_ctx, 0,
                             event.value(), static_cast<std::uint64_t>(reg.priority),
                             reg.name_id);
      transport_.executor().set_ambient(handler_ctx);
    }
    // A plain handler is a call; only a coroutine handler costs a frame.
    if (const PlainHandler* plain = std::get_if<PlainHandler>(&reg.fn)) {
      (*plain)(ctx);
    } else {
      co_await (*std::get_if<Handler>(&reg.fn))(ctx);
    }
    if (st) st->close(transport_.now(), handler_ctx.parent);
    if (ctx.cancelled()) co_return finish(false);
  }
  co_return finish(true);
}

TimerId Framework::register_timeout(std::string_view name, sim::Duration delay,
                                    TimeoutHandler fn) {
  UGRPC_ASSERT(fn != nullptr);
  const auto [slot_id, armed] = armed_.insert();
  const TimerId id{slot_id};
  armed.fn = std::move(fn);
  armed.name_id = intern(name);
  armed.armed_ctx = site_trace_ ? transport_.executor().ambient() : obs::SpanCtx{};
  // The callback fires exactly once and spawns a fresh fiber, so a timeout
  // handler is a thread of control of its own and may block like any event
  // handler.  Neither transport fires a timer before schedule_after returns.
  armed.timer = transport_.schedule_after(delay, [this, id] { fire_timeout(id); }, domain_);
  // Trace records name the transport's timer: unlike the framework's id,
  // it is unique across all the sites on one transport.
  if (site_trace_) {
    site_trace_->record(transport_.now(), obs::Kind::kTimerArmed, 0, armed.timer.value(),
                        static_cast<std::uint64_t>(delay), armed.name_id);
  }
  return id;
}

void Framework::fire_timeout(TimerId id) {
  // The wrapper coroutine owns the handler object for as long as the
  // handler body runs: coroutine parameters are moved into the frame,
  // whereas the closure that a std::function invocation runs on is not.
  // It also makes the timer's span (opened by the kTimerFired record,
  // parented to the context that *armed* the timer) the handler fiber's
  // ambient context -- so a retransmission timer's sends stay on the call's
  // trace -- and closes the span when the handler returns.
  // The wrapper takes the transport and the site trace rather than the
  // framework: both outlive any fiber of this domain, the framework may not.
  static constexpr auto invoke = [](net::Transport* tp, obs::SiteTrace* st, TimeoutHandler fn,
                                    obs::SpanCtx ctx) -> sim::Task<> {
    if (st != nullptr) tp->executor().set_ambient(ctx);
    co_await fn();
    if (st != nullptr) st->close(tp->now(), ctx.parent);
  };
  Armed* armed = armed_.find(id.value());
  UGRPC_ASSERT(armed != nullptr && "a cancelled timeout's transport timer fired");
  // A fired timer is no longer live: cancelling it later is a no-op.
  TimeoutHandler fn = std::move(armed->fn);
  armed->fn = nullptr;
  obs::SpanCtx ctx;
  if (site_trace_) {
    // The name identifies the timer class.
    ctx = site_trace_->open(transport_.now(), obs::Kind::kTimerFired, armed->armed_ctx, 0, 0, 0,
                            armed->name_id);
  }
  armed_.erase(id.value());
  transport_.spawn(invoke(&transport_, site_trace_, std::move(fn), ctx), domain_);
}

void Framework::cancel_timeout(TimerId id) {
  Armed* armed = armed_.find(id.value());
  if (armed == nullptr) return;
  const TimerId timer = armed->timer;
  transport_.cancel_timer(timer);
  // The handler is destroyed after its slot is free (see cancel_timer).
  const TimeoutHandler fn = std::move(armed->fn);
  armed->fn = nullptr;
  armed_.erase(id.value());
  if (site_trace_) {
    site_trace_->record(transport_.now(), obs::Kind::kTimerCancelled, 0, timer.value());
  }
}

std::vector<Framework::RegistrationInfo> Framework::registrations() const {
  std::vector<RegistrationInfo> out;
  for (const Chain& chain : chains_) {
    for (const Registration& reg : chain.handlers) {
      out.push_back(RegistrationInfo{chain.event_name, reg.name, reg.priority});
    }
  }
  return out;
}

std::string Framework::event_name(EventId event) const {
  if (event.value() < chains_.size()) return chains_[event.value()].event_name;
  return "event#" + std::to_string(event.value());
}

std::size_t Framework::handler_count(EventId event) const {
  return event.value() < chains_.size() ? chains_[event.value()].handlers.size() : 0;
}

}  // namespace ugrpc::runtime
