// Prometheus text exposition (format 0.0.4) of a site's numbers: the
// counters of a metrics Registry and the rows of a span Profile.
//
// Registry names are dotted paths in the metric-name alphabet (asserted by
// Registry::counter), so a name renders as "ugrpc_" + the path with '.'
// turned into '_'.  Each counter renders as one sample under a # TYPE
// header.
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
// The renderers are snapshot-free: they walk the live Registry in place.
// Under the cooperative executor nothing mutates concurrently (scrapes run
// from the poll loop, between fibers), so a scrape mid-workload sees a
// consistent point-in-time view -- pinned by tests/obs/prometheus_test.cc.
#pragma once

#include <string>
#include <string_view>

namespace ugrpc::obs {
class Profile;
class Registry;
}  // namespace ugrpc::obs

namespace ugrpc::obs::live {

/// `s` escaped for a Prometheus label value (backslash, quote, newline).
[[nodiscard]] std::string prom_escape_label(std::string_view s);

/// A Registry name as a Prometheus metric name: '.' becomes '_'.
[[nodiscard]] std::string prom_metric_name(std::string_view s);

/// The whole registry, every name prefixed `ugrpc_` ("calls.started" ->
/// "ugrpc_calls_started"), terminated by a trailing newline.
[[nodiscard]] std::string render_prometheus(const Registry& reg);

/// The profile's rows as the two span summary families; "" when it holds
/// no rows.
[[nodiscard]] std::string render_prometheus(const Profile& profile);

}  // namespace ugrpc::obs::live
