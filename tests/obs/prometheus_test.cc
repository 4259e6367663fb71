// Unit tests for the Prometheus text exposition (obs/live/prometheus.h).
//
// Three contracts pinned here: hostile Registry names survive sanitization
// via the raw="..." label instead of colliding silently; histograms render
// as coherent cumulative native histograms over the power-of-two buckets;
// and a scrape taken from a timer callback under the cooperative executor
// is a consistent point-in-time snapshot of a registry a fiber is mutating.
#include "obs/live/prometheus.h"

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>

#include "obs/metrics.h"
#include "sim/scheduler.h"
#include "sim/time.h"

namespace ugrpc::obs::live {
namespace {

bool has_line(const std::string& text, const std::string& line) {
  return text.find(line + "\n") != std::string::npos;
}

/// Value of the single sample line starting with `name` + ' '.
std::optional<std::uint64_t> sample_value(const std::string& text, const std::string& name) {
  const std::string needle = "\n" + name + " ";
  std::size_t pos = text.rfind(needle);
  if (pos == std::string::npos) {
    if (text.rfind(name + " ", 0) == 0) {
      pos = 0;
    } else {
      return std::nullopt;
    }
  } else {
    pos += 1;  // skip the leading newline
  }
  return std::stoull(text.substr(pos + name.size() + 1));
}

TEST(PromName, DotsBecomeUnderscores) {
  EXPECT_EQ(prom_metric_name("net.bytes_sent"), "net_bytes_sent");
}

TEST(PromName, HostileBytesBecomeUnderscores) {
  EXPECT_EQ(prom_metric_name("a b\"c\\d\ne"), "a_b_c_d_e");
}

TEST(PromName, NeverEmptyAndNeverLeadsWithDigit) {
  EXPECT_EQ(prom_metric_name(""), "_");
  EXPECT_EQ(prom_metric_name("9lives"), "_9lives");
}

TEST(PromEscape, EscapesBackslashQuoteNewline) {
  EXPECT_EQ(prom_escape_label("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
}

TEST(PromRender, CounterAndGaugeWithPrefix) {
  Registry reg;
  std::uint64_t started = 6;
  reg.counter("calls.started", [&started] { return started; });
  reg.counter("msgs.sent", [] { return std::uint64_t{3}; });
  ++started;  // read at scrape time
  const std::string out = render_prometheus(reg);
  EXPECT_TRUE(has_line(out, "# TYPE ugrpc_calls_started counter")) << out;
  EXPECT_TRUE(has_line(out, "ugrpc_calls_started 7")) << out;
  EXPECT_TRUE(has_line(out, "# TYPE ugrpc_msgs_sent counter")) << out;
  EXPECT_TRUE(has_line(out, "ugrpc_msgs_sent 3")) << out;
  EXPECT_EQ(out.find("gauge"), std::string::npos) << out;
}

TEST(PromRender, LossyNameKeepsOriginalInRawLabel) {
  Registry reg;
  // A group label with quote, backslash and newline -- the worst a
  // user-provided name can carry.
  reg.counter("calls[\"evil\\name\n\"]", [] { return std::uint64_t{2}; });
  const std::string out = render_prometheus(reg);
  EXPECT_TRUE(has_line(out, "ugrpc_calls__evil_name___{raw=\"calls[\\\"evil\\\\name\\n\\\"]\"} 2"))
      << out;
}

TEST(PromRender, LosslessNameGetsNoRawLabel) {
  Registry reg;
  reg.counter("net.sent", [] { return std::uint64_t{1}; });
  const std::string out = render_prometheus(reg);
  EXPECT_EQ(out.find("raw="), std::string::npos) << out;
}

TEST(PromRender, HistogramIsCumulativeWithPowerOfTwoBuckets) {
  Registry reg;
  Histogram& h = reg.histogram("lat_us");
  h.add(1);
  h.add(2);
  h.add(3);
  h.add(1000);
  const std::string out = render_prometheus(reg);
  EXPECT_TRUE(has_line(out, "# TYPE ugrpc_lat_us histogram")) << out;
  EXPECT_TRUE(has_line(out, "ugrpc_lat_us_bucket{le=\"1\"} 1")) << out;
  EXPECT_TRUE(has_line(out, "ugrpc_lat_us_bucket{le=\"3\"} 3")) << out;
  // Intermediate empty buckets still render (cumulative stays flat)...
  EXPECT_TRUE(has_line(out, "ugrpc_lat_us_bucket{le=\"511\"} 3")) << out;
  // ...up to the bucket containing the max, then straight to +Inf.
  EXPECT_TRUE(has_line(out, "ugrpc_lat_us_bucket{le=\"1023\"} 4")) << out;
  EXPECT_EQ(out.find("le=\"2047\""), std::string::npos) << out;
  EXPECT_TRUE(has_line(out, "ugrpc_lat_us_bucket{le=\"+Inf\"} 4")) << out;
  EXPECT_TRUE(has_line(out, "ugrpc_lat_us_sum 1006")) << out;
  EXPECT_TRUE(has_line(out, "ugrpc_lat_us_count 4")) << out;
}

TEST(PromRender, EmptyHistogramStillCompleteFamily) {
  Registry reg;
  (void)reg.histogram("lat_us");
  const std::string out = render_prometheus(reg);
  EXPECT_TRUE(has_line(out, "ugrpc_lat_us_bucket{le=\"+Inf\"} 0")) << out;
  EXPECT_TRUE(has_line(out, "ugrpc_lat_us_sum 0")) << out;
  EXPECT_TRUE(has_line(out, "ugrpc_lat_us_count 0")) << out;
}

TEST(PromRender, ScrapeBetweenFibersIsConsistentSnapshot) {
  // A fiber bumps two counters together (no suspension point between the
  // increments) and yields; scrapes run from timer callbacks, which the
  // cooperative executor only fires between fiber steps.  Every scrape must
  // therefore observe the pair in lockstep -- the structural property that
  // makes the live telemetry plane lock-free.
  sim::Scheduler sched;
  Registry reg;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  reg.counter("a", [&a] { return a; });
  reg.counter("b", [&b] { return b; });

  sched.spawn([](sim::Scheduler& s, std::uint64_t& a, std::uint64_t& b) -> sim::Task<> {
    for (int i = 0; i < 200; ++i) {
      ++a;
      ++b;
      co_await s.sleep_for(sim::usec(7));
    }
  }(sched, a, b));

  int scrapes = 0;
  std::function<void()> scrape = [&] {
    const std::string out = render_prometheus(reg);
    const auto va = sample_value(out, "ugrpc_a");
    const auto vb = sample_value(out, "ugrpc_b");
    ASSERT_TRUE(va.has_value() && vb.has_value()) << out;
    EXPECT_EQ(*va, *vb) << "scrape observed a half-applied update";
    ++scrapes;
    (void)sched.schedule_after(sim::usec(13), scrape);  // deliberately co-prime with 7
  };
  (void)sched.schedule_after(sim::usec(13), scrape);

  sched.run_for(sim::msec(1));
  EXPECT_GT(scrapes, 50);
  EXPECT_EQ(a, 143u) << "1 ms / 7 us per iteration, first increment at t=0";
}

}  // namespace
}  // namespace ugrpc::obs::live
