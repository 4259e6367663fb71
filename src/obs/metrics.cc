#include "obs/metrics.h"

#include "common/assert.h"

namespace ugrpc::obs {

namespace {

/// [A-Za-z_][A-Za-z0-9_.]*: with '.' read as '_', a Prometheus metric name.
bool is_metric_name(const std::string& name) {
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
    if (!alpha && (i == 0 || ((c < '0' || c > '9') && c != '.'))) return false;
  }
  return !name.empty();
}

}  // namespace

void Registry::counter(const std::string& name, std::function<std::uint64_t()> read) {
  UGRPC_ASSERT(is_metric_name(name));
  UGRPC_ASSERT(read != nullptr);
  counters_[name] = std::move(read);
}

std::uint64_t Registry::value(const std::string& name) const {
  const auto it = counters_.find(name);
  return it != counters_.end() ? it->second() : 0;
}

}  // namespace ugrpc::obs
