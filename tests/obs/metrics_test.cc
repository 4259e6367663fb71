// Unit tests for obs::Counter / obs::Histogram / obs::Registry.
#include <gtest/gtest.h>

#include <string>

#include "obs/metrics.h"

namespace ugrpc::obs {
namespace {

TEST(Counter, AddAndIncrement) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  ++c;
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

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
  Counter& sent = reg.counter("net.sent");
  Histogram& lat = reg.histogram("call.latency_us");
  std::uint64_t external = 7;
  reg.counter("net.unroutable", [&external] { return external; });
  sent.add(3);
  lat.add(100);
  lat.add(200);
  // References survive further insertions.
  for (int i = 0; i < 20; ++i) (void)reg.counter("c" + std::to_string(i));
  EXPECT_EQ(&sent, &reg.counter("net.sent"));
  sent.add(1);
  EXPECT_EQ(reg.counter("net.sent").value(), 4u);
  EXPECT_EQ(reg.value("net.sent"), 4u);
  EXPECT_EQ(reg.value("net.unroutable"), 7u) << "a bound counter is read when asked";
  external = 9;
  EXPECT_EQ(reg.value("net.unroutable"), 9u);
  EXPECT_EQ(reg.value("absent"), 0u);

  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"net.sent\": 4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"net.unroutable\": 9"), std::string::npos) << json;
  EXPECT_NE(json.find("\"call.latency_us\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\":2"), std::string::npos) << json;
}

TEST(Registry, JsonEscapesHostileMetricNames) {
  // Metric names may embed user-provided labels (e.g. group names); a quote
  // or control character in one must not corrupt the JSON document.
  Registry reg;
  reg.counter("evil\"name\\group\n").add(1);
  reg.histogram("hist\twith\ttabs").add(5);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("evil\\\"name\\\\group\\n"), std::string::npos) << json;
  EXPECT_NE(json.find("hist\\twith\\ttabs"), std::string::npos) << json;
  EXPECT_EQ(json.find("evil\"name"), std::string::npos) << "unescaped quote leaked";
}

}  // namespace
}  // namespace ugrpc::obs
