// Span aggregation: rolls the per-call span trees derived from a Tracer into
// per-micro-protocol latency attribution.
//
// The question the paper leaves qualitative -- what does each micro-protocol
// *cost*? -- becomes a table: for every component (the prefix of a handler
// name before '.', e.g. "ReliableComm" from "ReliableComm.handle_new_call")
// and every transport/framework span kind, the Profile keeps the exact
// steady-clock samples and reports count, wall-time percentiles, and
// *self-time* percentiles (wall minus the wall-time of child spans, clamped
// at zero), so a component that merely awaits its children is not charged for
// their work.
//
// Percentiles here are exact (samples are retained and sorted at finalize):
// bench attribution wants real p50/p99.  The benches dump to_json(); a live
// site's /metrics renders the same rows as Prometheus summaries
// (obs/live/prometheus.h).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace ugrpc::obs {

class Profile {
 public:
  /// Finalized statistics of one attribution row (nanoseconds).
  struct Stats {
    std::uint64_t count = 0;
    std::uint64_t wall_total = 0;
    std::uint64_t wall_p50 = 0, wall_p95 = 0, wall_p99 = 0, wall_max = 0;
    std::uint64_t self_total = 0;
    std::uint64_t self_p50 = 0, self_p95 = 0, self_p99 = 0, self_max = 0;
    /// Wall time attributed to children (wall_total - self_total).
    [[nodiscard]] std::uint64_t children_total() const { return wall_total - self_total; }
  };

  /// Folds the closed spans of `spans` in (a tracer's spans(), or a span
  /// set derived elsewhere); `names` resolves name ids.  Open spans are
  /// skipped.
  void add(const std::vector<Span>& spans, const Tracer& names);

  /// Per-micro-protocol rollup: handler and timer spans grouped by the
  /// component prefix of their name (before the first '.').
  [[nodiscard]] std::map<std::string, Stats> by_component() const;
  /// Full handler-name detail rows.
  [[nodiscard]] std::map<std::string, Stats> by_handler() const;
  /// Transport / framework rows keyed by span kind name ("send", "deliver",
  /// "chain", "call", "exec", ...).
  [[nodiscard]] std::map<std::string, Stats> by_kind() const;

  /// {"by_component":{...},"by_kind":{...},"by_handler":{...}} with every
  /// Stats field spelled out (keys JSON-escaped).
  [[nodiscard]] std::string to_json() const;

  [[nodiscard]] bool empty() const { return component_.empty() && kind_.empty(); }

 private:
  struct Samples {
    std::vector<std::uint64_t> wall;
    std::vector<std::uint64_t> self;
  };

  [[nodiscard]] static Stats finalize(const Samples& s);
  [[nodiscard]] static std::map<std::string, Stats> finalize_all(
      const std::map<std::string, Samples>& m);

  std::map<std::string, Samples> component_;
  std::map<std::string, Samples> handler_;
  std::map<std::string, Samples> kind_;
};

}  // namespace ugrpc::obs
