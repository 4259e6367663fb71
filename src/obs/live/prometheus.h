// Prometheus text exposition (format 0.0.4) of a site's numbers: a list of
// counters and the rows of a span Profile.
//
// Counter names are dotted paths in the metric-name alphabet
// ([A-Za-z_][A-Za-z0-9_.]*, asserted by prom_metric_name()), so a name
// renders as "ugrpc_" + the path with '.' turned into '_'.  Each counter
// renders as one sample under a # TYPE header.
//
// The span profile renders as two summary families, ugrpc_span_wall_ns and
// ugrpc_span_self_ns, one label set per Profile row:
//
//   ugrpc_span_self_ns{by="component",name="ReliableComm",quantile="0.5"} 812
//
// `by` is component, kind or handler; `quantile` is 0.5, 0.95, 0.99 and 1
// (the max), followed by `_sum` and `_count` -- every field of
// Profile::Stats.  Free-form names (handler names come from user code)
// travel only as label values, escaped by prom_escape_label().
//
// The renderers keep no state: the caller reads its counters when it
// renders.  Under the cooperative executor nothing mutates concurrently
// (scrapes run from the poll loop, between fibers), so a scrape
// mid-workload sees a consistent point-in-time view -- pinned by
// tests/obs/prometheus_test.cc.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace ugrpc::obs {
class Profile;
}  // namespace ugrpc::obs

namespace ugrpc::obs::live {

/// One counter sample: a dotted name ("calls.started") and its value.
struct Counter {
  std::string_view name;
  std::uint64_t value = 0;
};

/// `s` escaped for a Prometheus label value (backslash, quote, newline).
[[nodiscard]] std::string prom_escape_label(std::string_view s);

/// A dotted counter name as a Prometheus metric name: '.' becomes '_'.
/// A name outside [A-Za-z_][A-Za-z0-9_.]* is a programming error and
/// asserts.
[[nodiscard]] std::string prom_metric_name(std::string_view s);

/// The counters in the order given, every name prefixed `ugrpc_`
/// ("calls.started" -> "ugrpc_calls_started"), terminated by a trailing
/// newline.
[[nodiscard]] std::string render_prometheus(std::span<const Counter> counters);

/// The profile's rows as the two span summary families; "" when it holds
/// no rows.
[[nodiscard]] std::string render_prometheus(const Profile& profile);

}  // namespace ugrpc::obs::live
