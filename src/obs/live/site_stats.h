// Long-lived per-site operational counters (tentpole part 1 of ISSUE 5).
//
// The metrics Registry (obs/metrics.h) is experiment-scoped: benches build
// one, dump it, throw it away.  A serving site needs the opposite -- a
// registry that lives as long as the process and accumulates across
// incarnations (crash/recover rebuilds the protocol stack but NOT the
// SiteStats).  SiteStats owns that registry plus cached references to the
// hot-path counters the core stack bumps directly (one pointer check per
// record site when telemetry is off -- GrpcState holds `SiteStats* live`,
// nullptr by default).
//
// "Site" here means one OS process in the UDP deployment model (one Site per
// process); under the simulator several simulated sites may share one
// SiteStats, which is exactly what a scrape of that process would see.
//
// Sources of truth are split three ways:
//   * call lifecycle / retransmissions -- owned Counters, bumped by core;
//   * trace-derived totals (timer fires, per-kind message counts, ring
//     drops) -- gauges over the attached Tracer's exact per-kind counters;
//   * transport bytes/drops -- gauges bound by the owner (core/telemetry.cc
//     binds net::Stats fields; obs cannot name net types).
#pragma once

#include <functional>
#include <string>

#include "obs/metrics.h"

namespace ugrpc::obs {
class Tracer;
}

namespace ugrpc::obs::live {

class SiteStats {
  // Declared before the public Counter references: members initialize in
  // declaration order, and the references bind into this registry.
  Registry registry_;

 public:
  SiteStats();

  SiteStats(const SiteStats&) = delete;
  SiteStats& operator=(const SiteStats&) = delete;

  [[nodiscard]] Registry& registry() { return registry_; }
  [[nodiscard]] const Registry& registry() const { return registry_; }

  /// Binds gauges over `t`'s exact per-kind counters (timer fires, message
  /// sent/delivered/dropped) and its ring overwrites.  `t` must outlive this.
  void attach_tracer(const Tracer& t);

  /// Pass-through gauge binding for externally owned values (the owner binds
  /// transport stats fields here).
  void gauge(const std::string& name, std::function<std::uint64_t()> read) {
    registry_.gauge(name, std::move(read));
  }

  // ---- hot-path counters (cached references into the registry) ----

  Counter& calls_started;        ///< client calls issued ("calls.started")
  Counter& calls_completed;      ///< completed with Status::kOk
  Counter& calls_failed;         ///< completed with any other status
  Counter& retransmissions;      ///< Reliable Communication resends
  Counter& watchdog_scans;       ///< stall-watchdog sweeps run
  Counter& watchdog_stalled;     ///< calls newly flagged past their bound
  Counter& watchdog_orphaned;    ///< sRPC entries newly flagged as orphaned
  Counter& watchdog_trips;       ///< watchdog trips (first stall of a sweep)
  Counter& flight_dumps;         ///< flight-recorder dumps written
  Counter& msgs_malformed;       ///< gRPC messages dropped as undecodable
};

}  // namespace ugrpc::obs::live
