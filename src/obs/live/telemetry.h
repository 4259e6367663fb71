// TelemetryHub: the one object a serving site exposes to the outside world
// (tentpole of ISSUE 5).
//
// A hub aggregates everything the live telemetry plane can answer with and
// is the single dependency of every frontend -- the TCP listener
// (obs/live/http.h) serving curl/Prometheus/ugrpcstat, the SimTransport
// snapshot path used by tests, and the flight recorder:
//
//   * metrics_text()       -- Prometheus exposition of the hub's registry,
//                             plus per-micro-protocol self-time attribution
//                             folded fresh from the tracer's spans on every
//                             scrape (the Tracer is never cleared -- its
//                             rings feed the flight recorder -- so folding
//                             into a persistent registry would double-count);
//   * introspection_json() -- channelz-style live-state snapshot, produced
//                             by a provider the owner installs (core's
//                             SiteTelemetry walks composite state; obs
//                             cannot name core types);
//   * trip()               -- flight-recorder dump of rings + spans +
//                             metrics + introspection into a fresh
//                             timestamped directory (flight_recorder.h).
//
// The counters are the tracer's own tallies: every call, retransmission,
// malformed drop, timer and message count in the registry is read from
// Tracer::count() at scrape time, so the stack records each fact once, as a
// trace record.  A hub therefore reports what its tracer saw -- with one
// site per process (UDP) that is the site; with a simulator tracer shared
// by several sites it is all of them.  The hub owns only `flight.dumps`;
// core/telemetry.h adds the watchdog counters and the net::Stats reads.
//
// Layering: the hub lives in obs and knows only obs types.  Core installs
// the introspection/manifest providers (core/telemetry.h).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "obs/live/prometheus.h"
#include "obs/metrics.h"

namespace ugrpc::obs {
class Tracer;
}

namespace ugrpc::obs::live {

class TelemetryHub {
 public:
  /// Binds the registry's counters to `tracer`'s per-kind tallies.  `tracer`
  /// must outlive the hub and is never cleared while the hub serves (the
  /// counters would go backwards).
  explicit TelemetryHub(const Tracer& tracer);

  TelemetryHub(const TelemetryHub&) = delete;
  TelemetryHub& operator=(const TelemetryHub&) = delete;

  [[nodiscard]] Registry& registry() { return registry_; }
  [[nodiscard]] const Registry& registry() const { return registry_; }

  /// The tracer whose rings/spans back scrapes and flight dumps.
  [[nodiscard]] const Tracer& tracer() const { return tracer_; }

  /// Installs the introspection snapshot provider (must return a complete
  /// JSON document).  Without one -- or after installing an empty one --
  /// introspection_json() returns "{}".
  void set_introspection(std::function<std::string()> provider) {
    introspection_ = std::move(provider);
  }

  /// Installs a provider of extra MANIFEST.json fields for flight dumps --
  /// comma-joined `"key":value` fragments without enclosing braces (e.g. the
  /// checker expectations derived from the site's Config).  An empty
  /// provider uninstalls it.
  void set_manifest_extra(std::function<std::string()> provider) {
    manifest_extra_ = std::move(provider);
  }

  [[nodiscard]] PromOptions& prom_options() { return prom_; }

  // ---- snapshot endpoints ----

  /// Prometheus text exposition: the registry + a fresh span-profile fold
  /// (when the tracer holds closed spans).
  [[nodiscard]] std::string metrics_text() const;
  /// Same data as one JSON object: {"site":{...},"spans":{...}}.
  [[nodiscard]] std::string metrics_json() const;
  [[nodiscard]] std::string introspection_json() const {
    return introspection_ ? introspection_() : std::string("{}");
  }
  [[nodiscard]] std::string manifest_extra() const {
    return manifest_extra_ ? manifest_extra_() : std::string();
  }

  // ---- flight recorder ----

  /// Directory flight dumps are written under; empty disables trip().
  void set_flight_dir(std::string dir) { flight_dir_ = std::move(dir); }
  [[nodiscard]] const std::string& flight_dir() const { return flight_dir_; }

  /// Writes one flight dump (flight_recorder.h) tagged with `reason`.
  /// Returns the dump directory, or nullopt when disabled or on I/O failure
  /// (diagnostic in `error` when non-null).  Bumps `flight.dumps` on
  /// success.  Callers: watchdog trips, checker violations, crash handler.
  std::optional<std::string> trip(std::string_view reason, std::string* error = nullptr);

  /// Dumps written so far (suffix for unique directory names within one
  /// clock tick).
  [[nodiscard]] std::uint64_t dump_seq() const { return dump_seq_; }

 private:
  const Tracer& tracer_;
  // Declared before flight_dumps_, which binds into it.
  Registry registry_;
  Counter& flight_dumps_;
  std::function<std::string()> introspection_;
  std::function<std::string()> manifest_extra_;
  PromOptions prom_;
  std::string flight_dir_;
  std::uint64_t dump_seq_ = 0;
};

}  // namespace ugrpc::obs::live
