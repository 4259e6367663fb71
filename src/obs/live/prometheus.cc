#include "obs/live/prometheus.h"

#include <cstdio>

#include "obs/metrics.h"

namespace ugrpc::obs::live {

namespace {

bool name_char_ok(char c, bool first) {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':') return true;
  return !first && c >= '0' && c <= '9';
}

struct RenderedName {
  std::string metric;  ///< sanitized, prefixed
  std::string labels;  ///< "{raw=...}" or ""
};

RenderedName rendered_name(const std::string& name) {
  RenderedName out;
  out.metric = prom_metric_name(name);
  bool lossy = false;
  for (char c : name) {
    if (!name_char_ok(c, false) && c != '.') {
      lossy = true;
      break;
    }
  }
  out.metric = "ugrpc_" + out.metric;
  if (lossy) out.labels = "{raw=\"" + prom_escape_label(name) + "\"}";
  return out;
}

void append_u64(std::string& out, std::uint64_t v) { out += std::to_string(v); }

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
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    // '.' separates Registry path segments; '_' is its canonical spelling.
    out += name_char_ok(c, /*first=*/false) ? c : '_';
  }
  if (out.empty() || !name_char_ok(out.front(), /*first=*/true)) out.insert(out.begin(), '_');
  return out;
}

std::string render_prometheus(const Registry& reg) {
  std::string out;
  out.reserve(1024);

  reg.for_each_counter([&](const std::string& name, std::uint64_t value) {
    const RenderedName rn = rendered_name(name);
    out += "# TYPE " + rn.metric + " counter\n";
    out += rn.metric + rn.labels + " ";
    append_u64(out, value);
    out += "\n";
  });

  reg.for_each_histogram([&](const std::string& name, const Histogram& h) {
    const RenderedName rn = rendered_name(name);
    // Bucket lines carry `le` plus whatever labels the base name has; the
    // raw label must precede le to keep one canonical order.
    std::string base_labels = rn.labels;
    if (!base_labels.empty()) {
      base_labels.pop_back();  // drop '}'
      base_labels += ",";
    } else {
      base_labels = "{";
    }
    out += "# TYPE " + rn.metric + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      const std::uint64_t in_bucket = h.bucket_count(i);
      if (in_bucket == 0 && cumulative == 0) continue;   // leading empty buckets
      cumulative += in_bucket;
      out += rn.metric + "_bucket" + base_labels + "le=\"";
      append_u64(out, Histogram::bucket_upper(i));
      out += "\"} ";
      append_u64(out, cumulative);
      out += "\n";
      if (cumulative == h.count()) break;  // trailing empty buckets add nothing
    }
    out += rn.metric + "_bucket" + base_labels + "le=\"+Inf\"} ";
    append_u64(out, h.count());
    out += "\n";
    out += rn.metric + "_sum" + rn.labels + " ";
    append_u64(out, h.sum());
    out += "\n";
    out += rn.metric + "_count" + rn.labels + " ";
    append_u64(out, h.count());
    out += "\n";
  });

  return out;
}

}  // namespace ugrpc::obs::live
