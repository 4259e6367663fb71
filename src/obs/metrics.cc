#include "obs/metrics.h"

#include <cstdio>

#include "obs/json.h"

namespace ugrpc::obs {

std::uint64_t Histogram::quantile(double q) const {
  if (count_ == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1)) + 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      // Upper bound of bucket i: values with bit_width i, i.e. < 2^i.
      const std::uint64_t upper = bucket_upper(i);
      return upper < max_ ? upper : max_;
    }
  }
  return max_;
}

void Registry::counter(const std::string& name, std::function<std::uint64_t()> read) {
  UGRPC_ASSERT(read != nullptr);
  counters_[name] = std::move(read);
}

std::uint64_t Registry::value(const std::string& name) const {
  const auto it = counters_.find(name);
  return it != counters_.end() ? it->second() : 0;
}

Histogram& Registry::histogram(const std::string& name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) it = histograms_.emplace(name, std::make_unique<Histogram>()).first;
  return *it->second;
}

std::string Registry::to_json() const {
  std::string out = "{";
  bool first = true;
  const auto emit_key = [&](const std::string& name) {
    if (!first) out += ",";
    first = false;
    out += "\n  " + json_str(name) + ": ";
  };
  for (const auto& [name, read] : counters_) {
    emit_key(name);
    out += std::to_string(read());
  }
  for (const auto& [name, h] : histograms_) {
    emit_key(name);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", h->mean());
    out += "{\"count\":" + std::to_string(h->count()) + ",\"sum\":" + std::to_string(h->sum()) +
           ",\"min\":" + std::to_string(h->min()) + ",\"max\":" + std::to_string(h->max()) +
           ",\"mean\":" + buf + ",\"p50\":" + std::to_string(h->quantile(0.5)) +
           ",\"p99\":" + std::to_string(h->quantile(0.99)) + "}";
  }
  out += "\n}";
  return out;
}

}  // namespace ugrpc::obs
