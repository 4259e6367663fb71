// Named counters, read at scrape time.
//
// Replaces ad-hoc per-component stats plumbing as the way a site exports
// numbers: components bind a count they already keep as a read-at-scrape
// counter, so tallies like net::Stats or the Tracer's per-kind counts
// surface without hot-path changes.  A Registry is experiment-scoped (no
// globals); obs/live/prometheus.h renders it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

namespace ugrpc::obs {

/// Registry of named counters.  Names are dotted paths ("net.sent",
/// "watchdog.stalled_calls") that become Prometheus metric names when '.'
/// turns into '_'.  A counter is a count kept elsewhere, read at scrape
/// time; every counter is monotonic.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Binds a count kept elsewhere; `read` is evaluated at dump time and must
  /// never decrease.  Re-binding a name replaces the previous read.  `name`
  /// must match [A-Za-z_][A-Za-z0-9_.]* (asserted).
  void counter(const std::string& name, std::function<std::uint64_t()> read);

  /// Current value of counter `name`; 0 when absent.
  [[nodiscard]] std::uint64_t value(const std::string& name) const;

  /// Visits every counter in name order, reading it at visit time.
  void for_each_counter(const std::function<void(const std::string&, std::uint64_t)>& fn) const {
    for (const auto& [name, read] : counters_) fn(name, read());
  }

 private:
  std::map<std::string, std::function<std::uint64_t()>> counters_;
};

}  // namespace ugrpc::obs
