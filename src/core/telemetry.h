// SiteTelemetry: the one object that exposes a core::Site to the live
// telemetry plane.
//
// It answers everything a frontend can ask for:
//
//   * counters() -- one fixed list of the site's counters, in name order,
//     read when asked: the call, execution, retransmission, malformed-drop
//     and timer counts come from Tracer::count(), so the stack records each
//     fact once, as a trace record, on the site's transport's tracer.  The
//     object reports what that tracer saw -- with one site per process (UDP)
//     that is the site; with a simulator tracer shared by several sites it
//     is all of them.  Transport
//     counts are read from net::Stats (`net.*`; the site's transport must
//     outlive the scrapes), and the object keeps the `watchdog.*` and
//     `flight.dumps` counts itself.
//   * metrics_text() -- the site's one exposition, in Prometheus text
//     format: counters() plus the span profile (wall and self time per
//     component, span kind and handler) folded fresh from the tracer's
//     spans on every scrape (obs/live/prometheus.h).
//   * introspection -- a channelz-style JSON snapshot of the running stack:
//     configured micro-protocol set, registered handlers with priorities,
//     pending pRPC entries with age/status/outstanding responses, sRPC
//     entries with age and HOLD readiness, the live-member set and
//     incarnation.  /introspect and ugrpcstat serve it.
//   * stall watchdog -- a sweep every half stall threshold, but at least once
//     a second (a timer on the global domain, so it survives site crashes),
//     flagging calls pending past the threshold and sRPC entries stuck past
//     it.  Each newly flagged record bumps a `watchdog.*` counter and emits
//     a rate-limited warning (common/rate_limited_log.h); a sweep that flags
//     anything counts as a watchdog trip and trips the flight recorder.
//   * flight recorder -- trip() persists the in-memory evidence into one
//     fresh directory `<flight_dir>/flight-<UTCstamp>-site<id>-pid<pid>-<seq>`:
//
//       trace.bin       obs::encode_trace(): a header with the reason and
//                       the site's Config::describe() line, then the rings'
//                       records, names and dropped count (obs/trace_file.h),
//                       so the dump is checkable standalone: ugrpcstat
//                       parses the line, replays the records against what
//                       it promises (--check-flight) and renders them
//                       (--perfetto)
//       metrics.prom    metrics_text()
//       introspect.json introspection_json()
//
//     Everything is written into a ".tmp-" sibling and rename(2)d into
//     place, so a consumer polling the directory never observes a partial
//     dump.  The site id and the pid in the name keep two sites, or two
//     processes, tripping into one directory within the same second apart;
//     a name still taken (two objects over one site id in one process)
//     moves on to the next seq.  A watchdog trip whose dump fails logs a
//     rate-limited warning.
//   * serve() -- a TCP listener (core/http.h) polled from a periodic timer
//     on the global domain, so curl, Prometheus and ugrpcstat can scrape
//     the site while the transport's loop runs.
//
// install_crash_handler() arms SIGSEGV/SIGBUS/SIGFPE/SIGABRT to attempt one
// best-effort trip() before re-raising with default disposition.  The
// handler runs the same trip(): it builds no manifest, but it still
// allocates (the trace file's buffer, the names, the exposition and the
// introspection strings), uses std::filesystem and does buffered I/O, so
// it is NOT async-signal-safe -- a fault inside malloc can deadlock it.
// That is the standard flight-recorder trade-off, not a solved problem:
// the process is dying anyway, and a truncated dump (the tmp directory,
// never renamed) cannot be mistaken for a complete one.
//
// Construct after the Site, before or after boot(): the stack itself holds
// no telemetry state, since every call count is a trace record.  The
// watchdog, the listener and scrapes read the pending tables without locks:
// they run from plain timer callbacks, which the cooperative executor
// schedules between fibers, so the tables are never mid-mutation when read
// and every response is a consistent point-in-time snapshot.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/rate_limited_log.h"
#include "core/site.h"
#include "obs/live/prometheus.h"
#include "sim/time.h"

namespace ugrpc::obs {
class Tracer;
}

namespace ugrpc::core {

class TelemetryServer;

class SiteTelemetry {
 public:
  /// One sweep's findings (returned by scan_now for tests/tools).
  struct Sweep {
    std::uint64_t stalled = 0;   ///< newly flagged pRPC calls
    std::uint64_t orphaned = 0;  ///< newly flagged sRPC entries
    std::optional<std::string> flight_dir;  ///< dump written by this sweep
  };

  /// Reads its counters from the tracer set on the site's transport,
  /// asserted to be there: telemetry implies tracing.  `site` and the
  /// tracer must outlive this object, and the tracer is never cleared while
  /// it serves (the counters would go backwards).  A call (or sRPC entry)
  /// is stalled when pending longer than `stall_after`; unset, twice the
  /// configured termination bound, or 10 s when the config sets none.
  /// Tools force a tight threshold without rebuilding the site's Config
  /// (the CI smoke job trips the watchdog this way).
  explicit SiteTelemetry(Site& site, std::optional<sim::Duration> stall_after = std::nullopt);
  /// Stops the watchdog and the listener, and disarms the crash handler if
  /// it is armed with this object.
  ~SiteTelemetry();

  SiteTelemetry(const SiteTelemetry&) = delete;
  SiteTelemetry& operator=(const SiteTelemetry&) = delete;

  /// Every counter, in name order, read now.  Each only grows.
  [[nodiscard]] std::vector<obs::live::Counter> counters() const;

  // ---- stall watchdog ----

  /// Arms the periodic sweep (idempotent): every min(1 s, threshold / 2).
  void start_watchdog();
  void stop_watchdog();
  [[nodiscard]] bool watchdog_running() const { return watchdog_timer_.has_value(); }

  /// Runs one sweep immediately (also what the timer does).
  Sweep scan_now();

  // ---- snapshot endpoints ----

  /// Prometheus text exposition: counters() + a fresh span-profile fold
  /// (when the tracer holds closed spans).
  [[nodiscard]] std::string metrics_text() const;
  [[nodiscard]] std::string introspection_json() const;

  // ---- flight recorder ----

  /// Directory flight dumps are written under; empty disables trip().
  void set_flight_dir(std::string dir) { flight_dir_ = std::move(dir); }

  /// Writes one flight dump tagged with `reason`.  Returns the dump
  /// directory, or nullopt when disabled or on I/O failure (diagnostic in
  /// `error` when non-null).  Bumps `flight.dumps` on success.  Callers:
  /// watchdog trips, the crash handler.
  std::optional<std::string> trip(std::string_view reason, std::string* error = nullptr);

  // ---- serving ----

  /// Serves the endpoints over a TCP listener bound to `host`:`port`
  /// (port 0 = ephemeral), polled every few milliseconds from a timer on
  /// the global domain.  Returns the bound port, or 0 on failure
  /// (diagnostic in `error` when non-null).  Serving stops with this object.
  std::uint16_t serve(std::uint16_t port = 0, const std::string& host = "127.0.0.1",
                      std::string* error = nullptr);

 private:
  /// Keeps `timer` armed every `period` on the global domain, running
  /// `tick` at each fire, until `timer` is reset.
  void every(std::optional<TimerId>& timer, sim::Duration period, void (SiteTelemetry::*tick)());
  void stop(std::optional<TimerId>& timer);
  void sweep_tick() { (void)scan_now(); }
  void serve_tick();

  Site& site_;
  const obs::Tracer& tracer_;
  /// A record pending longer than this is stalled.
  sim::Duration stall_after_;
  // Watchdog and flight tallies, read by counters().
  std::uint64_t scans_ = 0;
  std::uint64_t stalled_ = 0;
  std::uint64_t orphaned_ = 0;
  std::uint64_t trips_ = 0;
  std::uint64_t flight_dumps_ = 0;
  std::optional<TimerId> watchdog_timer_;
  RateLimitedLog warn_log_;
  /// Records already counted as stalled/orphaned (a record is flagged once;
  /// pruned against the live tables each sweep so the sets stay bounded).
  std::set<std::uint64_t> flagged_calls_;
  std::set<std::uint64_t> flagged_entries_;
  std::string flight_dir_;
  /// Dump names tried so far (suffix for unique directory names within one
  /// clock tick).
  std::uint64_t dump_seq_ = 0;
  std::unique_ptr<TelemetryServer> server_;
  std::optional<TimerId> serve_timer_;
};

/// Arms fatal-signal handlers that trip `telemetry` once (reason
/// "signal:<name>") and re-raise.  Only one object can be armed per
/// process; ~SiteTelemetry disarms its own.
void install_crash_handler(SiteTelemetry& telemetry);

}  // namespace ugrpc::core
