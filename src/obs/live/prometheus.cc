#include "obs/live/prometheus.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/assert.h"
#include "obs/profile.h"

namespace ugrpc::obs::live {

namespace {

/// [A-Za-z_][A-Za-z0-9_.]*: with '.' read as '_', a Prometheus metric name.
bool is_metric_name(std::string_view name) {
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
    if (!alpha && (i == 0 || ((c < '0' || c > '9') && c != '.'))) return false;
  }
  return !name.empty();
}

}  // namespace

std::string prom_escape_label(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          // Other control bytes are not representable in the text format;
          // degrade to an escaped hex marker rather than corrupt the line.
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\\\x%02x", static_cast<unsigned char>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string prom_metric_name(std::string_view s) {
  UGRPC_ASSERT(is_metric_name(s));
  std::string out(s);
  std::replace(out.begin(), out.end(), '.', '_');
  return out;
}

std::string render_prometheus(std::span<const Counter> counters) {
  std::string out;
  for (const auto& [name, value] : counters) {
    const std::string metric = "ugrpc_" + prom_metric_name(name);
    out += "# TYPE " + metric + " counter\n" + metric + " " + std::to_string(value) + "\n";
  }
  return out;
}

std::string render_prometheus(const Profile& profile) {
  if (profile.empty()) return "";
  using Stats = Profile::Stats;
  struct Family {
    const char* metric;
    std::uint64_t Stats::*total;
    std::uint64_t Stats::*quantiles[4];
  };
  static constexpr Family kFamilies[] = {
      {"ugrpc_span_wall_ns", &Stats::wall_total,
       {&Stats::wall_p50, &Stats::wall_p95, &Stats::wall_p99, &Stats::wall_max}},
      {"ugrpc_span_self_ns", &Stats::self_total,
       {&Stats::self_p50, &Stats::self_p95, &Stats::self_p99, &Stats::self_max}},
  };
  static constexpr const char* kQuantiles[] = {"0.5", "0.95", "0.99", "1"};
  // Finalizing sorts every row's samples: do it once for both families.
  const std::pair<const char*, std::map<std::string, Stats>> groups[] = {
      {"component", profile.by_component()},
      {"kind", profile.by_kind()},
      {"handler", profile.by_handler()},
  };
  std::string out;
  for (const Family& f : kFamilies) {
    out += "# TYPE " + std::string(f.metric) + " summary\n";
    for (const auto& [by, rows] : groups) {
      for (const auto& [name, st] : rows) {
        const std::string labels =
            std::string("{by=\"") + by + "\",name=\"" + prom_escape_label(name) + "\"";
        for (std::size_t i = 0; i < 4; ++i) {
          out += f.metric + labels + ",quantile=\"" + kQuantiles[i] + "\"} " +
                 std::to_string(st.*f.quantiles[i]) + "\n";
        }
        out += f.metric + ("_sum" + labels) + "} " + std::to_string(st.*f.total) + "\n";
        out += f.metric + ("_count" + labels) + "} " + std::to_string(st.count) + "\n";
      }
    }
  }
  return out;
}

}  // namespace ugrpc::obs::live
