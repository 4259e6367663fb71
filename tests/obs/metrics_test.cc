// Unit tests for obs::Histogram / obs::Registry.
#include <gtest/gtest.h>

#include <string>

#include "obs/metrics.h"

namespace ugrpc::obs {
namespace {

TEST(Histogram, TracksCountSumMinMaxMean) {
  Histogram h;
  EXPECT_EQ(h.min(), 0u);  // empty histogram
  for (std::uint64_t v : {5u, 10u, 15u}) h.add(v);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 30u);
  EXPECT_EQ(h.min(), 5u);
  EXPECT_EQ(h.max(), 15u);
  EXPECT_DOUBLE_EQ(h.mean(), 10.0);
}

TEST(Histogram, QuantileIsBucketUpperBound) {
  Histogram h;
  for (int i = 0; i < 90; ++i) h.add(3);    // bucket of 3: upper bound 3
  for (int i = 0; i < 10; ++i) h.add(1000);  // far tail
  // p50 lands in the low bucket; its upper bound must cover the value but
  // stay well below the tail.
  EXPECT_GE(h.quantile(0.5), 3u);
  EXPECT_LT(h.quantile(0.5), 1000u);
  // p99 has to reach into the tail bucket.
  EXPECT_GE(h.quantile(0.99), 1000u);
  // Degenerate quantiles.
  EXPECT_GE(h.quantile(1.0), 1000u);
}

TEST(Registry, StableReferencesAndJson) {
  Registry reg;
  Histogram& lat = reg.histogram("call.latency_us");
  std::uint64_t external = 7;
  reg.counter("net.unroutable", [&external] { return external; });
  lat.add(100);
  // References survive further insertions.
  for (int i = 0; i < 20; ++i) (void)reg.histogram("h" + std::to_string(i));
  EXPECT_EQ(&lat, &reg.histogram("call.latency_us"));
  lat.add(200);
  EXPECT_EQ(reg.value("net.unroutable"), 7u) << "a bound counter is read when asked";
  external = 9;
  EXPECT_EQ(reg.value("net.unroutable"), 9u);
  EXPECT_EQ(reg.value("absent"), 0u);

  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"net.unroutable\": 9"), std::string::npos) << json;
  EXPECT_NE(json.find("\"call.latency_us\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\":2"), std::string::npos) << json;
}

TEST(Registry, JsonEscapesHostileMetricNames) {
  // Metric names may embed user-provided labels (e.g. group names); a quote
  // or control character in one must not corrupt the JSON document.
  Registry reg;
  reg.counter("evil\"name\\group\n", [] { return std::uint64_t{1}; });
  reg.histogram("hist\twith\ttabs").add(5);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("evil\\\"name\\\\group\\n"), std::string::npos) << json;
  EXPECT_NE(json.find("hist\\twith\\ttabs"), std::string::npos) << json;
  EXPECT_EQ(json.find("evil\"name"), std::string::npos) << "unescaped quote leaked";
}

}  // namespace
}  // namespace ugrpc::obs
