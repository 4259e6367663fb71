// The benchmark harness (perfbench/probes.cc) still times a `net::TimerWheel`
// for net.timer_wheel_add_cancel_ns.  There is no wheel any more: UDP's
// timers sit on the executor's heap like the simulator's, so every member
// forwards to a private sim::Scheduler, and the probe times the timer queue
// UDP really uses.  tests/net/timer_wheel_test.cc keeps the wheel's
// contract cases (order, cancellation, per-domain cancellation) on it.
// This shim exists only for that probe; the benchmark change that replaces
// the probe deletes it, and its tests, together with sim_transport.h.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>

#include "sim/scheduler.h"

namespace ugrpc::net {

class TimerWheel {
 public:
  TimerId add(sim::Time deadline, std::function<void()> fn, DomainId domain) {
    return exec_.schedule_at(deadline, std::move(fn), domain);
  }
  void cancel(TimerId id) { exec_.cancel_timer(id); }
  void cancel_domain(DomainId domain) { exec_.kill_domain(domain); }
  /// Fires every timer due by `now`, in (deadline, registration) order.
  void advance(sim::Time now) { exec_.run_until(now); }
  [[nodiscard]] std::size_t size() const { return exec_.live_timer_count(); }

 private:
  sim::Scheduler exec_;
};

}  // namespace ugrpc::net
