// Prometheus text-format exposition of a metrics Registry (tentpole part 1
// of ISSUE 5).
//
// Registry names are free-form dotted paths that may contain user-provided
// group labels -- quotes, backslashes, newlines, control bytes.  Prometheus
// metric names admit only [a-zA-Z_:][a-zA-Z0-9_:]*, so rendering maps every
// name through prom_metric_name() (dots and hostile bytes become '_'); when
// sanitization loses information, the ORIGINAL name rides along in a
// `raw="..."` label, escaped per the exposition format (backslash, double
// quote, newline), so hostile names stay queryable instead of colliding
// silently.
//
// Counters -- owned or read at scrape time -- render as single samples with
// a # TYPE header.
// Histograms render as native Prometheus histograms: cumulative `_bucket`
// samples over obs::Histogram's power-of-two bucket bounds (only buckets up
// to the one containing the max are emitted, then le="+Inf"), plus `_sum`
// and `_count` -- `histogram_quantile()` works out of the box at
// power-of-two resolution.
//
// The renderer is snapshot-free: it walks the live Registry in place.  Under
// the cooperative executor nothing mutates concurrently (scrapes run from
// the poll loop, between fibers), so a scrape mid-workload sees a consistent
// point-in-time view -- pinned by tests/obs/prometheus_test.cc.
#pragma once

#include <string>
#include <string_view>

namespace ugrpc::obs {
class Registry;
}

namespace ugrpc::obs::live {

/// `s` escaped for a Prometheus label value (backslash, quote, newline).
[[nodiscard]] std::string prom_escape_label(std::string_view s);

/// `s` squeezed into the Prometheus metric-name alphabet; never empty.
[[nodiscard]] std::string prom_metric_name(std::string_view s);

/// The whole registry in Prometheus text exposition format (version 0.0.4),
/// every name prefixed `ugrpc_` ("calls.started" -> "ugrpc_calls_started"),
/// terminated by a trailing newline.
[[nodiscard]] std::string render_prometheus(const Registry& reg);

}  // namespace ugrpc::obs::live
