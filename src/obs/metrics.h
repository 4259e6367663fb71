// Named counters / histograms, dumpable as JSON.
//
// Replaces ad-hoc per-component stats plumbing as the way benches and tests
// export numbers: components bind a count they already keep as a
// read-at-scrape counter, so tallies like net::Stats or the Tracer's
// per-kind counts surface in the same JSON artifact without hot-path
// changes, and own obs::Histogram objects registered here.  A Registry
// is experiment-scoped (no globals): each bench builds one, lets components
// export into it, and dumps it alongside its results.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/assert.h"

namespace ugrpc::obs {

/// Fixed-footprint value distribution: power-of-two buckets plus exact
/// count/sum/min/max.  Good enough for latency shapes without per-sample
/// allocation; quantiles are bucket-resolution estimates (upper bound).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;  ///< bucket i holds values with bit_width i

  void add(std::uint64_t v) {
    ++count_;
    sum_ += v;
    if (count_ == 1 || v < min_) min_ = v;
    if (v > max_) max_ = v;
    ++buckets_[bucket_of(v)];
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  [[nodiscard]] std::uint64_t min() const { return count_ > 0 ? min_ : 0; }
  [[nodiscard]] std::uint64_t max() const { return max_; }
  [[nodiscard]] double mean() const {
    return count_ > 0 ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0;
  }

  /// Upper bound of the bucket containing the q-quantile (0 <= q <= 1).
  [[nodiscard]] std::uint64_t quantile(double q) const;

  // ---- raw bucket access (exposition renderers) ----

  /// Samples in bucket i: values with bit_width i, i.e. in (upper(i-1),
  /// upper(i)].  Bucket kBuckets-1 additionally holds everything larger.
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const { return buckets_[i]; }
  /// Inclusive upper bound of bucket i (0, 1, 3, 7, ...; ~0 for the last).
  [[nodiscard]] static std::uint64_t bucket_upper(std::size_t i) {
    if (i == 0) return 0;
    return (i >= 64) ? ~std::uint64_t{0} : ((std::uint64_t{1} << i) - 1);
  }

 private:
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t v) {
    std::size_t b = 0;
    while (v > 0) {
      ++b;
      v >>= 1;
    }
    return b < kBuckets ? b : kBuckets - 1;
  }

  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

/// Experiment-scoped registry of named metrics.  Names are dotted paths
/// ("net.sent", "call.latency_us"); references returned by histogram() are
/// stable for the registry's lifetime.  A counter is a count kept
/// elsewhere, read at scrape time; every counter is monotonic.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Binds a count kept elsewhere; `read` is evaluated at dump time and must
  /// never decrease.  Re-binding a name replaces the previous read.
  void counter(const std::string& name, std::function<std::uint64_t()> read);
  [[nodiscard]] Histogram& histogram(const std::string& name);

  /// Current value of counter `name`; 0 when absent.
  [[nodiscard]] std::uint64_t value(const std::string& name) const;

  /// All metrics as one JSON object.  Histograms dump as
  /// {"count":..,"sum":..,"min":..,"max":..,"mean":..,"p50":..,"p99":..}.
  [[nodiscard]] std::string to_json() const;

  // ---- read-only iteration (exposition renderers; obs/live/prometheus.h) ----
  // Name order follows the underlying maps (lexicographic).  Counters are
  // read at visit time.

  void for_each_counter(const std::function<void(const std::string&, std::uint64_t)>& fn) const {
    for (const auto& [name, read] : counters_) fn(name, read());
  }
  void for_each_histogram(
      const std::function<void(const std::string&, const Histogram&)>& fn) const {
    for (const auto& [name, h] : histograms_) fn(name, *h);
  }

 private:
  // Node-based maps keep histogram references stable across insertion.
  std::map<std::string, std::function<std::uint64_t()>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace ugrpc::obs
