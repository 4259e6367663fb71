#include "obs/live/site_stats.h"

#include "obs/trace.h"

namespace ugrpc::obs::live {

SiteStats::SiteStats()
    : calls_started(registry_.counter("calls.started")),
      calls_completed(registry_.counter("calls.completed")),
      calls_failed(registry_.counter("calls.failed")),
      retransmissions(registry_.counter("calls.retransmissions")),
      watchdog_scans(registry_.counter("watchdog.scans")),
      watchdog_stalled(registry_.counter("watchdog.stalled_calls")),
      watchdog_orphaned(registry_.counter("watchdog.orphaned_entries")),
      watchdog_trips(registry_.counter("watchdog.trips")),
      flight_dumps(registry_.counter("flight.dumps")),
      msgs_malformed(registry_.counter("msgs.malformed")) {}

void SiteStats::attach_tracer(const Tracer& t) {
  const auto bind_kind = [&](const std::string& name, Kind k) {
    registry_.gauge(name, [&t, k] { return t.count(k); });
  };
  bind_kind("timers.fired", Kind::kTimerFired);
  bind_kind("timers.cancelled", Kind::kTimerCancelled);
  bind_kind("msgs.sent", Kind::kMsgSent);
  bind_kind("msgs.delivered", Kind::kMsgDelivered);
  bind_kind("msgs.dropped", Kind::kMsgDropped);
  bind_kind("msgs.unroutable", Kind::kMsgUnroutable);
  bind_kind("execs.started", Kind::kExecStarted);
  bind_kind("execs.committed", Kind::kExecCommitted);
  bind_kind("execs.duplicates_suppressed", Kind::kDupSuppressed);
  registry_.gauge("trace.events_dropped", [&t] { return t.total_dropped(); });
}

}  // namespace ugrpc::obs::live
