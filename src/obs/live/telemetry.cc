#include "obs/live/telemetry.h"

#include "obs/live/flight_recorder.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace ugrpc::obs::live {

TelemetryHub::TelemetryHub(const Tracer& tracer)
    : tracer_(tracer), flight_dumps_(registry_.counter("flight.dumps")) {
  const auto bind_kind = [&](const std::string& name, Kind k) {
    registry_.counter(name, [&tracer, k] { return tracer.count(k); });
  };
  bind_kind("calls.started", Kind::kCallIssued);
  bind_kind("calls.failed", Kind::kDeadlineExpired);
  bind_kind("calls.retransmissions", Kind::kRetransmit);
  bind_kind("msgs.malformed", Kind::kMsgMalformed);
  bind_kind("timers.fired", Kind::kTimerFired);
  bind_kind("timers.cancelled", Kind::kTimerCancelled);
  bind_kind("msgs.sent", Kind::kMsgSent);
  bind_kind("msgs.delivered", Kind::kMsgDelivered);
  bind_kind("msgs.dropped", Kind::kMsgDropped);
  bind_kind("msgs.unroutable", Kind::kMsgUnroutable);
  bind_kind("execs.started", Kind::kExecStarted);
  bind_kind("execs.committed", Kind::kExecCommitted);
  bind_kind("execs.duplicates_suppressed", Kind::kDupSuppressed);
  // kCallCompleted closes every call, a timed-out one too, and Bounded
  // Termination records the call's kDeadlineExpired right before it with no
  // suspension point between: the difference never goes backwards.
  registry_.counter("calls.completed", [&tracer] {
    return tracer.count(Kind::kCallCompleted) - tracer.count(Kind::kDeadlineExpired);
  });
  registry_.counter("trace.events_dropped", [&tracer] { return tracer.total_dropped(); });
}

std::string TelemetryHub::metrics_text() const {
  std::string out = render_prometheus(registry_, prom_);
  // Fold spans into a throwaway registry per scrape: the tracer is long-
  // lived (its rings feed the flight recorder, so it is never cleared) and
  // Profile::add re-reads every closed span -- accumulating into a
  // persistent registry would double-count monotonically.
  Profile profile;
  profile.add(tracer_);
  if (!profile.empty()) {
    Registry span_reg;
    profile.export_to(span_reg);
    out += render_prometheus(span_reg, prom_);
  }
  return out;
}

std::string TelemetryHub::metrics_json() const {
  std::string out = "{\"site\":" + registry_.to_json();
  Profile profile;
  profile.add(tracer_);
  if (!profile.empty()) out += ",\"spans\":" + profile.to_json();
  out += "}";
  return out;
}

std::optional<std::string> TelemetryHub::trip(std::string_view reason, std::string* error) {
  if (flight_dir_.empty()) {
    if (error != nullptr) *error = "flight recorder disabled (no directory configured)";
    return std::nullopt;
  }
  const std::optional<std::string> dir = dump_flight(*this, reason, ++dump_seq_, error);
  if (dir.has_value()) ++flight_dumps_;
  return dir;
}

}  // namespace ugrpc::obs::live
