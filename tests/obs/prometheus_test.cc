// Unit tests for the Prometheus text exposition (obs/live/prometheus.h).
//
// Four contracts pinned here: counters render under the ugrpc_ prefix; a
// counter name outside the metric-name alphabet asserts; a span Profile
// renders as two summary families carrying every Profile::Stats field, with
// free-form handler names escaped in the `name` label; and a scrape taken
// from a timer callback under the cooperative executor is a consistent
// point-in-time snapshot of counters a fiber is mutating.
#include "obs/live/prometheus.h"

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/profile.h"
#include "obs/trace.h"
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

TEST(RegistryDeathTest, CounterRejectsNamesOutsideTheMetricAlphabet) {
  // Names render as Prometheus metric names with '.' read as '_'; anything
  // else -- a quote, backslash or newline, a leading digit, nothing at all --
  // is a programming error, caught where a counter list is rendered.
  const auto render_one = [](std::string_view name) {
    const Counter counters[] = {{name, 0}};
    return render_prometheus(counters);
  };
  EXPECT_TRUE(has_line(render_one("_ok.Name_9.x"), "ugrpc__ok_Name_9_x 0"));
  EXPECT_DEATH(render_one("calls[\"evil\\name\n\"]"), "is_metric_name");
  EXPECT_DEATH(render_one("9lives"), "is_metric_name");
  EXPECT_DEATH(render_one(".net"), "is_metric_name");
  EXPECT_DEATH(render_one(""), "is_metric_name");
}

TEST(PromEscape, EscapesBackslashQuoteNewline) {
  EXPECT_EQ(prom_escape_label("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
}

TEST(PromRender, CounterAndGaugeWithPrefix) {
  const Counter counters[] = {{"calls.started", 7}, {"msgs.sent", 3}};
  const std::string out = render_prometheus(counters);
  EXPECT_TRUE(has_line(out, "# TYPE ugrpc_calls_started counter")) << out;
  EXPECT_TRUE(has_line(out, "ugrpc_calls_started 7")) << out;
  EXPECT_TRUE(has_line(out, "# TYPE ugrpc_msgs_sent counter")) << out;
  EXPECT_TRUE(has_line(out, "ugrpc_msgs_sent 3")) << out;
  EXPECT_EQ(out.find("gauge"), std::string::npos) << out;
}

/// Three calls of handler `handler` (wall 1000, 200, 300 ns); the first
/// has a 300 ns send child, so its self time is 700.
Profile three_calls(const std::string& handler) {
  Tracer names;
  const std::uint32_t h = names.site(ProcessId{1}).intern(handler);
  const auto span = [](std::uint64_t id, std::uint64_t parent, std::uint64_t begin,
                       std::uint64_t end, Kind kind, std::uint32_t name) {
    Span s;
    s.id = id;
    s.trace = 1;
    s.parent = parent;
    s.ns_begin = begin;
    s.ns_end = end;
    s.site = ProcessId{1};
    s.kind = kind;
    s.name = name;
    return s;
  };
  const std::vector<Span> spans = {
      span(1, 0, 0, 1000, Kind::kEventHandled, h), span(2, 1, 100, 400, Kind::kMsgSent, 0),
      span(3, 0, 2000, 2200, Kind::kEventHandled, h),
      span(4, 0, 3000, 3300, Kind::kEventHandled, h)};
  Profile prof;
  prof.add(spans, names);
  return prof;
}

TEST(PromRender, SummaryCarriesEveryStatsField) {
  const std::string out = render_prometheus(three_calls("Comp.h"));
  for (const char* line : {
           "# TYPE ugrpc_span_wall_ns summary",
           "ugrpc_span_wall_ns{by=\"component\",name=\"Comp\",quantile=\"0.5\"} 300",
           "ugrpc_span_wall_ns{by=\"component\",name=\"Comp\",quantile=\"0.95\"} 1000",
           "ugrpc_span_wall_ns{by=\"component\",name=\"Comp\",quantile=\"0.99\"} 1000",
           "ugrpc_span_wall_ns{by=\"component\",name=\"Comp\",quantile=\"1\"} 1000",
           "ugrpc_span_wall_ns_sum{by=\"component\",name=\"Comp\"} 1500",
           "ugrpc_span_wall_ns_count{by=\"component\",name=\"Comp\"} 3",
           "ugrpc_span_wall_ns{by=\"kind\",name=\"send\",quantile=\"1\"} 300",
           "ugrpc_span_wall_ns_count{by=\"kind\",name=\"send\"} 1",
           "ugrpc_span_wall_ns_sum{by=\"handler\",name=\"Comp.h\"} 1500",
           "# TYPE ugrpc_span_self_ns summary",
           "ugrpc_span_self_ns{by=\"component\",name=\"Comp\",quantile=\"0.5\"} 300",
           "ugrpc_span_self_ns{by=\"component\",name=\"Comp\",quantile=\"0.95\"} 700",
           "ugrpc_span_self_ns{by=\"component\",name=\"Comp\",quantile=\"1\"} 700",
           "ugrpc_span_self_ns_sum{by=\"component\",name=\"Comp\"} 1200",
           "ugrpc_span_self_ns_count{by=\"handler\",name=\"Comp.h\"} 3",
       }) {
    EXPECT_TRUE(has_line(out, line)) << line << "\n" << out;
  }
}

TEST(PromRender, SummaryEscapesHandlerNameInNameLabel) {
  // A handler name with quote, backslash and newline -- the worst user code
  // can register.  It stays one label value, escaped.
  const std::string out = render_prometheus(three_calls("Ev\"il\\Comp.h\nx"));
  EXPECT_TRUE(has_line(
      out, "ugrpc_span_self_ns_count{by=\"handler\",name=\"Ev\\\"il\\\\Comp.h\\nx\"} 3"))
      << out;
  EXPECT_TRUE(has_line(
      out, "ugrpc_span_wall_ns_sum{by=\"component\",name=\"Ev\\\"il\\\\Comp\"} 1500"))
      << out;
}

TEST(PromRender, EmptyProfileRendersNothing) {
  EXPECT_EQ(render_prometheus(Profile{}), "");
}

TEST(PromRender, ScrapeBetweenFibersIsConsistentSnapshot) {
  // A fiber bumps two counters together (no suspension point between the
  // increments) and yields; scrapes run from timer callbacks, which the
  // cooperative executor only fires between fiber steps.  Every scrape must
  // therefore observe the pair in lockstep -- the structural property that
  // makes the live telemetry plane lock-free.
  sim::Scheduler sched;
  std::uint64_t a = 0;
  std::uint64_t b = 0;

  sched.spawn([](sim::Scheduler& s, std::uint64_t& a, std::uint64_t& b) -> sim::Task<> {
    for (int i = 0; i < 200; ++i) {
      ++a;
      ++b;
      co_await s.sleep_for(sim::usec(7));
    }
  }(sched, a, b));

  int scrapes = 0;
  std::function<void()> scrape = [&] {
    const Counter counters[] = {{"a", a}, {"b", b}};
    const std::string out = render_prometheus(counters);
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
