// Integration tests for the live telemetry plane on simulated sites
// (core/telemetry.h + obs/live/*): the hub's counters, read from the trace
// tallies of a real workload, the stall watchdog flagging pending pRPC/sRPC
// records, the introspection snapshot, and a flight dump loadable by
// trace_load + the checker.
#include "core/telemetry.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/observe.h"
#include "core/scenario.h"
#include "obs/checker.h"
#include "obs/live/json_value.h"
#include "obs/live/telemetry.h"
#include "obs/live/trace_load.h"
#include "obs/trace.h"

namespace ugrpc::core {
namespace {

namespace fs = std::filesystem;
using obs::live::json_parse;
using obs::live::JsonValue;

constexpr OpId kOp{1};

SiteTelemetry::Options tight_options() {
  SiteTelemetry::Options options;
  options.bound_override = sim::msec(10);
  options.stall_multiplier = 1.0;
  options.trip_on_stall = false;  // no flight dir in most tests
  return options;
}

/// A server application whose procedure never returns, leaving the client's
/// pRPC record Waiting and the server's sRPC record pending.
void stuck_app(UserProtocol& user, Site& site) {
  user.set_procedure([&site](OpId, Buffer&) -> sim::Task<> {
    co_await site.scheduler().sleep_for(sim::seconds(1000));
  });
}

TEST(LiveTelemetry, CountersTrackCompletedCalls) {
  // kStuck never returns, so Bounded Termination expires that one call.
  constexpr OpId kStuck{2};
  obs::Tracer tracer;
  ScenarioParams p;
  p.config = ConfigBuilder().termination_bound(sim::msec(100)).build();
  p.server_app = [](UserProtocol& user, Site& site) {
    user.set_procedure([&site](OpId op, Buffer&) -> sim::Task<> {
      if (op == kStuck) co_await site.scheduler().sleep_for(sim::seconds(1000));
    });
  };
  p.tracer = &tracer;
  Scenario s(std::move(p));
  obs::live::TelemetryHub hub(tracer);
  SiteTelemetry telemetry(hub, s.client_site(0));
  std::vector<Status> statuses;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    for (int i = 0; i < 3; ++i) {
      statuses.push_back((co_await c.call(s.group(), kOp, Buffer{})).status);
    }
    statuses.push_back((co_await c.call(s.group(), kStuck, Buffer{})).status);
  });
  EXPECT_EQ(statuses, (std::vector<Status>{Status::kOk, Status::kOk, Status::kOk,
                                           Status::kTimeout}));
  const obs::Registry& reg = hub.registry();
  EXPECT_EQ(reg.value("calls.started"), 4u);
  EXPECT_EQ(reg.value("calls.completed"), 3u) << "the expired call is not a completion";
  EXPECT_EQ(reg.value("calls.failed"), 1u);
}

TEST(LiveTelemetry, CountersAccumulateAcrossCrashRecover) {
  obs::Tracer tracer;
  ScenarioParams p;
  p.tracer = &tracer;
  Scenario s(std::move(p));
  obs::live::TelemetryHub hub(tracer);
  SiteTelemetry telemetry(hub, s.client_site(0));
  const auto issue = [&](int n) {
    s.run_client(0, [&s, n](Client& c) -> sim::Task<> {
      for (int i = 0; i < n; ++i) (void)co_await c.call_async(s.group(), kOp, Buffer{});
    });
  };
  issue(2);
  s.client_site(0).crash();
  s.client_site(0).recover();
  ASSERT_EQ(s.client_site(0).incarnation(), 2u);
  issue(3);
  EXPECT_EQ(hub.registry().value("calls.started"), 5u) << "both incarnations' calls count";
  EXPECT_EQ(hub.registry().value("calls.completed"), 5u);
  EXPECT_EQ(hub.registry().value("calls.failed"), 0u);
}

TEST(LiveTelemetry, ScrapeTypesEveryCountAsCounter) {
  obs::Tracer tracer;
  ScenarioParams p;
  p.tracer = &tracer;
  Scenario s(std::move(p));
  obs::live::TelemetryHub hub(tracer);
  SiteTelemetry telemetry(hub, s.client_site(0));
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    (void)co_await c.call_async(s.group(), kOp, Buffer{});
  });
  const std::string out = hub.metrics_text();
  for (const char* line : {"# TYPE ugrpc_calls_started counter",
                           "# TYPE ugrpc_timers_fired counter", "# TYPE ugrpc_net_sent counter"}) {
    EXPECT_NE(out.find(std::string(line) + "\n"), std::string::npos) << line << "\n" << out;
  }
  EXPECT_EQ(out.find(" gauge\n"), std::string::npos) << out;
}

TEST(LiveTelemetry, HubOutlivesSiteTelemetry) {
  obs::Tracer tracer;
  ScenarioParams p;
  p.num_servers = 1;
  p.tracer = &tracer;
  Scenario s(std::move(p));
  obs::live::TelemetryHub hub(tracer);
  {
    SiteTelemetry telemetry(hub, s.client_site(0));
    telemetry.start_watchdog();
    EXPECT_NE(hub.introspection_json(), "{}");
  }
  EXPECT_EQ(hub.introspection_json(), "{}") << "the providers must leave with their owner";
  EXPECT_EQ(hub.manifest_extra(), "");

  const fs::path dir = fs::path(testing::TempDir()) / "ugrpc_flight_orphan_hub";
  fs::remove_all(dir);
  hub.set_flight_dir(dir.string());
  std::string error;
  const auto dump = hub.trip("after-site-telemetry", &error);
  ASSERT_TRUE(dump.has_value()) << error;
  EXPECT_TRUE(fs::exists(fs::path(*dump) / "introspect.json"));
  EXPECT_EQ(hub.registry().value("flight.dumps"), 1u);
  fs::remove_all(dir);
}

TEST(LiveTelemetry, WatchdogFlagsStalledCallOnce) {
  obs::Tracer tracer;
  ScenarioParams p;
  p.tracer = &tracer;
  p.num_servers = 1;
  p.config = ConfigBuilder().asynchronous().build();
  p.server_app = stuck_app;
  Scenario s(std::move(p));

  obs::live::TelemetryHub hub(tracer);
  SiteTelemetry telemetry(hub, s.client_site(0), tight_options());
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    (void)co_await c.call_async(s.group(), kOp, Buffer{});
  }, sim::msec(50));
  s.run_for(sim::msec(50));  // age the pending call well past the 10 ms bound

  SiteTelemetry::Sweep sweep = telemetry.scan_now();
  EXPECT_EQ(sweep.stalled, 1u);
  EXPECT_EQ(hub.registry().value("watchdog.stalled_calls"), 1u);
  EXPECT_EQ(hub.registry().value("watchdog.trips"), 1u);

  sweep = telemetry.scan_now();
  EXPECT_EQ(sweep.stalled, 0u) << "a record is flagged once, not per sweep";
  EXPECT_EQ(hub.registry().value("watchdog.stalled_calls"), 1u);
  EXPECT_EQ(hub.registry().value("watchdog.scans"), 2u);
}

TEST(LiveTelemetry, WatchdogFlagsOrphanedServerEntry) {
  obs::Tracer tracer;
  ScenarioParams p;
  p.tracer = &tracer;
  p.num_servers = 1;
  p.config = ConfigBuilder().asynchronous().build();
  p.server_app = stuck_app;
  Scenario s(std::move(p));

  obs::live::TelemetryHub hub(tracer);
  SiteTelemetry telemetry(hub, s.server(0), tight_options());
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    (void)co_await c.call_async(s.group(), kOp, Buffer{});
  }, sim::msec(50));
  s.run_for(sim::msec(50));

  const SiteTelemetry::Sweep sweep = telemetry.scan_now();
  EXPECT_EQ(sweep.orphaned, 1u);
  EXPECT_EQ(hub.registry().value("watchdog.orphaned_entries"), 1u);
}

TEST(LiveTelemetry, WatchdogTimerSweepsPeriodically) {
  obs::Tracer tracer;
  ScenarioParams p;
  p.tracer = &tracer;
  p.num_servers = 1;
  p.config = ConfigBuilder().asynchronous().build();
  p.server_app = stuck_app;
  Scenario s(std::move(p));

  obs::live::TelemetryHub hub(tracer);
  SiteTelemetry::Options options = tight_options();
  options.scan_period = sim::msec(5);
  SiteTelemetry telemetry(hub, s.client_site(0), options);
  telemetry.start_watchdog();
  EXPECT_TRUE(telemetry.watchdog_running());

  s.run_client(0, [&](Client& c) -> sim::Task<> {
    (void)co_await c.call_async(s.group(), kOp, Buffer{});
  }, sim::msec(50));
  s.run_for(sim::msec(50));
  EXPECT_GE(hub.registry().value("watchdog.scans"), 5u);
  EXPECT_EQ(hub.registry().value("watchdog.stalled_calls"), 1u);

  telemetry.stop_watchdog();
  EXPECT_FALSE(telemetry.watchdog_running());
  const std::uint64_t scans = hub.registry().value("watchdog.scans");
  s.run_for(sim::msec(50));
  EXPECT_EQ(hub.registry().value("watchdog.scans"), scans) << "stopped watchdog must not sweep";
}

TEST(LiveTelemetry, IntrospectionListsPendingCalls) {
  obs::Tracer tracer;
  ScenarioParams p;
  p.tracer = &tracer;
  p.num_servers = 1;
  p.config = ConfigBuilder().asynchronous().build();
  p.server_app = stuck_app;
  Scenario s(std::move(p));

  obs::live::TelemetryHub client_hub(tracer);
  obs::live::TelemetryHub server_hub(tracer);
  SiteTelemetry client_tel(client_hub, s.client_site(0));
  SiteTelemetry server_tel(server_hub, s.server(0));
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    (void)co_await c.call_async(s.group(), kOp, Buffer{});
  }, sim::msec(50));
  s.run_for(sim::msec(20));

  std::string error;
  const auto client_doc = json_parse(client_hub.introspection_json(), &error);
  ASSERT_TRUE(client_doc.has_value()) << error;
  const JsonValue& cv = *client_doc;
  EXPECT_TRUE(cv["up"].as_bool());
  EXPECT_EQ(cv["site"].as_u64(), s.client_id(0).value());
  EXPECT_EQ(cv["incarnation"].as_u64(), 1u);
  EXPECT_FALSE(cv["micro_protocols"].as_array().empty());
  EXPECT_FALSE(cv["handlers"].as_array().empty());
  ASSERT_EQ(cv["pRPC"].as_array().size(), 1u);
  const JsonValue& call = cv["pRPC"].as_array()[0];
  EXPECT_EQ(call["status"].as_string(), "WAITING");
  EXPECT_GT(call["age_us"].as_u64(), 0u);

  const auto server_doc = json_parse(server_hub.introspection_json(), &error);
  ASSERT_TRUE(server_doc.has_value()) << error;
  ASSERT_EQ((*server_doc)["sRPC"].as_array().size(), 1u);
  EXPECT_EQ((*server_doc)["sRPC"].as_array()[0]["client"].as_u64(), s.client_id(0).value());

  // A crashed site reports a minimal document instead of walking dead state.
  s.server(0).crash();
  const auto down_doc = json_parse(server_hub.introspection_json(), &error);
  ASSERT_TRUE(down_doc.has_value()) << error;
  EXPECT_FALSE((*down_doc)["up"].as_bool());
  EXPECT_TRUE((*down_doc)["sRPC"].is_null());
}

TEST(LiveTelemetry, FlightDumpRoundTripsThroughLoaderAndChecker) {
  obs::Tracer tracer;
  ScenarioParams p;
  p.num_servers = 1;
  p.tracer = &tracer;
  const Config config = p.config;
  Scenario s(std::move(p));

  obs::live::TelemetryHub hub(tracer);
  SiteTelemetry telemetry(hub, s.client_site(0));
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    for (int i = 0; i < 3; ++i) (void)co_await c.call_async(s.group(), kOp, Buffer{});
  });

  const fs::path dir = fs::path(testing::TempDir()) / "ugrpc_flight_test";
  fs::remove_all(dir);
  hub.set_flight_dir(dir.string());
  std::string error;
  const auto dump = hub.trip("test-reason", &error);
  ASSERT_TRUE(dump.has_value()) << error;
  EXPECT_EQ(hub.registry().value("flight.dumps"), 1u);

  const auto slurp = [](const fs::path& path) {
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };

  // MANIFEST.json carries the reason plus the site's checker expectations.
  const auto manifest = json_parse(slurp(fs::path(*dump) / "MANIFEST.json"), &error);
  ASSERT_TRUE(manifest.has_value()) << error;
  EXPECT_EQ((*manifest)["reason"].as_string(), "test-reason");
  ASSERT_TRUE((*manifest)["expect"].is_object());
  EXPECT_EQ((*manifest)["expect"]["unique_execution"].as_bool(),
            expectations_from(config).unique_execution);

  // trace.json round-trips into checker-ready events; the healthy workload
  // must replay clean under the config's own expectations.
  const auto loaded = obs::live::load_trace_json(slurp(fs::path(*dump) / "trace.json"), &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->unknown_kinds, 0u);
  ASSERT_FALSE(loaded->events.empty());
  const obs::Report report = obs::check(loaded->events, expectations_from(config));
  EXPECT_TRUE(report.ok()) << report.brief();
  EXPECT_EQ(report.summary.calls_issued, 3u);
  EXPECT_EQ(report.summary.calls_ok, 3u);

  // The exposition snapshot is part of the dump and non-empty.
  EXPECT_NE(slurp(fs::path(*dump) / "metrics.prom").find("ugrpc_calls_started 3"),
            std::string::npos);
  fs::remove_all(dir);
}

TEST(LiveTelemetry, WatchdogTripWritesFlightDump) {
  obs::Tracer tracer;
  ScenarioParams p;
  p.tracer = &tracer;
  p.num_servers = 1;
  p.config = ConfigBuilder().asynchronous().build();
  p.server_app = stuck_app;
  Scenario s(std::move(p));

  obs::live::TelemetryHub hub(tracer);
  SiteTelemetry::Options options = tight_options();
  options.trip_on_stall = true;
  SiteTelemetry telemetry(hub, s.client_site(0), options);
  const fs::path dir = fs::path(testing::TempDir()) / "ugrpc_flight_trip";
  fs::remove_all(dir);
  hub.set_flight_dir(dir.string());

  s.run_client(0, [&](Client& c) -> sim::Task<> {
    (void)co_await c.call_async(s.group(), kOp, Buffer{});
  }, sim::msec(50));
  s.run_for(sim::msec(50));

  const SiteTelemetry::Sweep sweep = telemetry.scan_now();
  EXPECT_EQ(sweep.stalled, 1u);
  ASSERT_TRUE(sweep.flight_dir.has_value());
  EXPECT_TRUE(fs::exists(fs::path(*sweep.flight_dir) / "MANIFEST.json"));
  EXPECT_EQ(hub.registry().value("flight.dumps"), 1u);

  std::string error;
  const auto manifest =
      json_parse([&] {
        std::ifstream in(fs::path(*sweep.flight_dir) / "MANIFEST.json");
        std::ostringstream ss;
        ss << in.rdbuf();
        return ss.str();
      }(), &error);
  ASSERT_TRUE(manifest.has_value()) << error;
  EXPECT_NE((*manifest)["reason"].as_string().find("watchdog"), std::string::npos);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ugrpc::core
