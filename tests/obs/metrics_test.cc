// Unit tests for obs::Registry.
#include <gtest/gtest.h>

#include <string>

#include "obs/metrics.h"

namespace ugrpc::obs {
namespace {

TEST(Registry, BoundCounterIsReadWhenAsked) {
  Registry reg;
  std::uint64_t external = 7;
  reg.counter("net.unroutable", [&external] { return external; });
  EXPECT_EQ(reg.value("net.unroutable"), 7u) << "a bound counter is read when asked";
  external = 9;
  EXPECT_EQ(reg.value("net.unroutable"), 9u);
  EXPECT_EQ(reg.value("absent"), 0u);
}

TEST(RegistryDeathTest, CounterRejectsNamesOutsideTheMetricAlphabet) {
  // Names render as Prometheus metric names with '.' read as '_'; anything
  // else -- a quote, backslash or newline, a leading digit, nothing at all --
  // is a programming error, caught where the name is bound.
  Registry reg;
  const auto zero = [] { return std::uint64_t{0}; };
  reg.counter("_ok.Name_9.x", zero);
  EXPECT_DEATH(reg.counter("calls[\"evil\\name\n\"]", zero), "is_metric_name");
  EXPECT_DEATH(reg.counter("9lives", zero), "is_metric_name");
  EXPECT_DEATH(reg.counter(".net", zero), "is_metric_name");
  EXPECT_DEATH(reg.counter("", zero), "is_metric_name");
}

}  // namespace
}  // namespace ugrpc::obs
