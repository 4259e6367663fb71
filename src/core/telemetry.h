// SiteTelemetry: binds one core::Site to the live telemetry plane
// (tentpole of ISSUE 5).
//
// The obs layer owns the mechanisms -- the hub's registry of counters read
// from the trace tallies, Prometheus rendering, the TCP listener, the
// flight recorder -- but cannot name core types, so everything that
// requires walking live composite state lives here:
//
//   * introspection -- a channelz-style JSON snapshot of the running stack:
//     configured micro-protocol set, registered handlers with priorities,
//     pending pRPC entries with age/status/outstanding responses, sRPC
//     entries with age and HOLD readiness, the live-member set and
//     incarnation.  Installed as the hub's introspection provider, so
//     /introspect and ugrpcstat serve it.
//   * stall watchdog -- a periodic sweep (timer on the global domain, so it
//     survives site crashes) flagging calls pending past a configurable
//     multiple of the termination bound and sRPC entries stuck past the same
//     threshold.  Each newly flagged record bumps a `watchdog.*` counter in
//     the hub's registry and emits a rate-limited warning
//     (common/rate_limited_log.h); a sweep that flags anything counts as a
//     watchdog trip and -- when a flight directory is configured -- trips
//     the flight recorder.
//   * flight manifest -- installs a manifest provider adding the site's
//     config line and the checker Expect derived from it
//     (core::expectations_from), so a flight dump is checkable standalone.
//   * transport counters -- binds net::Stats byte/drop counts into the
//     hub's registry as read-at-scrape counters (`net.*`); the site's
//     transport must outlive the hub's scrapes.
//
// Construct after the Site, before or after boot(): the stack itself holds
// no telemetry state, since every call count is a trace record.  The
// destructor uninstalls the providers, so a hub outliving its SiteTelemetry
// answers "{}" to introspection.  The watchdog reads the pending tables
// without locks: it runs from a plain timer callback, which the cooperative
// executor schedules between fibers, so the tables are never mid-mutation
// when scanned.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>

#include "common/rate_limited_log.h"
#include "core/site.h"
#include "obs/live/telemetry.h"
#include "sim/time.h"

namespace ugrpc::core {

class SiteTelemetry {
 public:
  struct Options {
    /// A call is stalled when pending longer than `stall_multiplier` times
    /// the configured termination bound (fallback_bound when none is set).
    double stall_multiplier = 2.0;
    sim::Duration fallback_bound = sim::seconds(5);
    /// When set, replaces the config-derived bound entirely -- tools force a
    /// tight stall threshold without rebuilding the site's Config (the CI
    /// smoke job trips the watchdog this way).
    std::optional<sim::Duration> bound_override;
    /// Watchdog sweep period; the timer is armed by start_watchdog().
    sim::Duration scan_period = sim::seconds(1);
    /// Stall/orphan warnings are rate-limited to one line per category per
    /// this period (suppressed counts stay exact).
    sim::Duration warn_period = sim::seconds(10);
    /// Trip the flight recorder on a sweep that flags new records.
    bool trip_on_stall = true;
  };

  /// One sweep's findings (returned by scan_now for tests/tools).
  struct Sweep {
    std::uint64_t stalled = 0;   ///< newly flagged pRPC calls
    std::uint64_t orphaned = 0;  ///< newly flagged sRPC entries
    std::optional<std::string> flight_dir;  ///< dump written by this sweep
  };

  SiteTelemetry(obs::live::TelemetryHub& hub, Site& site);
  SiteTelemetry(obs::live::TelemetryHub& hub, Site& site, Options options);
  ~SiteTelemetry();

  SiteTelemetry(const SiteTelemetry&) = delete;
  SiteTelemetry& operator=(const SiteTelemetry&) = delete;

  [[nodiscard]] obs::live::TelemetryHub& hub() { return hub_; }
  [[nodiscard]] Site& site() { return site_; }

  // ---- stall watchdog ----

  /// Arms the periodic sweep (idempotent).
  void start_watchdog();
  void stop_watchdog();
  [[nodiscard]] bool watchdog_running() const { return timer_.has_value(); }

  /// Runs one sweep immediately (also what the timer does).
  Sweep scan_now();

  // ---- snapshot producers (installed into the hub; callable directly) ----

  [[nodiscard]] std::string introspection_json() const;
  [[nodiscard]] std::string manifest_extra_json() const;

 private:
  void arm_timer();

  obs::live::TelemetryHub& hub_;
  Site& site_;
  Options options_;
  // Shared by name with every SiteTelemetry on the same hub.
  obs::Counter& scans_;
  obs::Counter& stalled_;
  obs::Counter& orphaned_;
  obs::Counter& trips_;
  std::optional<TimerId> timer_;
  RateLimitedLog warn_log_;
  /// Records already counted as stalled/orphaned (a record is flagged once;
  /// pruned against the live tables each sweep so the sets stay bounded).
  std::set<std::uint64_t> flagged_calls_;
  std::set<std::uint64_t> flagged_entries_;
};

}  // namespace ugrpc::core
