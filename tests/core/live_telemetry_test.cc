// Integration tests for the live telemetry plane (core/telemetry.h): the
// counters, read from the trace tallies of a real workload, the span
// profile on the scrape, the stall watchdog flagging pending pRPC/sRPC
// records, the introspection snapshot, flight dumps whose trace file loads
// into the checker, the crash handler, and a UDP site serving scrapes over
// real TCP.
#include "core/telemetry.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <csignal>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <regex>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/observe.h"
#include "core/scenario.h"
#include "core/service.h"
#include "net/udp_transport.h"
#include "json_value.h"
#include "obs/checker.h"
#include "obs/live/prometheus.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "obs/trace_file.h"

namespace ugrpc::core {
namespace {

namespace fs = std::filesystem;
using tools::json_parse;
using tools::JsonValue;

constexpr OpId kOp{1};

/// A stall threshold the tests' stuck calls pass within 50 ms.
constexpr sim::Duration kTightBound = sim::msec(10);

/// The value of `telemetry`'s counter `name`; a test failure when it has none.
std::uint64_t counter(const SiteTelemetry& telemetry, std::string_view name) {
  for (const obs::live::Counter& c : telemetry.counters()) {
    if (c.name == name) return c.value;
  }
  ADD_FAILURE() << "no counter " << name;
  return 0;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// `dump`'s decoded trace file; nullopt (a test failure) if it does not load.
std::optional<obs::TraceFile> load_trace(const fs::path& dump) {
  std::string error;
  const std::string bytes = slurp(dump / obs::kTraceFileName);
  auto file = obs::decode_trace(std::as_bytes(std::span(bytes)), &error);
  EXPECT_TRUE(file.has_value()) << dump << ": " << error;
  return file;
}

/// The flight-* directories under `dir` (none when `dir` is missing).
std::vector<fs::path> flight_dumps(const fs::path& dir) {
  std::vector<fs::path> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().filename().string().starts_with("flight-")) out.push_back(entry.path());
  }
  return out;
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
  SiteTelemetry telemetry(s.client_site(0));
  std::vector<Status> statuses;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    for (int i = 0; i < 3; ++i) {
      statuses.push_back((co_await c.call(s.group(), kOp, Buffer{})).status);
    }
    statuses.push_back((co_await c.call(s.group(), kStuck, Buffer{})).status);
  });
  EXPECT_EQ(statuses, (std::vector<Status>{Status::kOk, Status::kOk, Status::kOk,
                                           Status::kTimeout}));
  EXPECT_EQ(counter(telemetry, "calls.started"), 4u);
  EXPECT_EQ(counter(telemetry, "calls.completed"), 3u) << "the expired call is not a completion";
  EXPECT_EQ(counter(telemetry, "calls.failed"), 1u);
}

TEST(LiveTelemetry, CountersAccumulateAcrossCrashRecover) {
  obs::Tracer tracer;
  ScenarioParams p;
  p.tracer = &tracer;
  Scenario s(std::move(p));
  SiteTelemetry telemetry(s.client_site(0));
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
  EXPECT_EQ(counter(telemetry, "calls.started"), 5u) << "both incarnations' calls count";
  EXPECT_EQ(counter(telemetry, "calls.completed"), 5u);
  EXPECT_EQ(counter(telemetry, "calls.failed"), 0u);
}

TEST(LiveTelemetry, WatchdogSweepPeriodFollowsTheStallBound) {
  // Half the stall threshold, at most 1 s: 1 s with no termination bound
  // (a 10 s threshold), 200 ms with a 200 ms bound (a 400 ms threshold).
  for (const auto& [bound, period] :
       {std::pair{std::optional<sim::Duration>{}, sim::seconds(1)},
        std::pair{std::optional{sim::msec(200)}, sim::msec(200)}}) {
    obs::Tracer tracer;
    ScenarioParams p;
    p.tracer = &tracer;
    p.config.termination_bound = bound;
    Scenario s(std::move(p));
    SiteTelemetry telemetry(s.client_site(0));
    telemetry.start_watchdog();
    s.run_for(period - 1);
    EXPECT_EQ(counter(telemetry, "watchdog.scans"), 0u) << period;
    s.run_for(1);
    EXPECT_EQ(counter(telemetry, "watchdog.scans"), 1u) << period;
    s.run_for(2 * period);
    EXPECT_EQ(counter(telemetry, "watchdog.scans"), 3u) << period;
  }
}

TEST(LiveTelemetry, ScrapeTypesEveryCountAsCounter) {
  obs::Tracer tracer;
  ScenarioParams p;
  p.tracer = &tracer;
  Scenario s(std::move(p));
  SiteTelemetry telemetry(s.client_site(0));
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    (void)co_await c.call_async(s.group(), kOp, Buffer{});
  });
  const std::string out = telemetry.metrics_text();
  EXPECT_EQ(out.find(" gauge\n"), std::string::npos) << out;

  // The exposition's counter families, in order: one per row of DESIGN.md
  // section 10's table, in name order.
  std::vector<std::string> families;
  std::istringstream lines(out);
  for (std::string line; std::getline(lines, line);) {
    if (line.starts_with("# TYPE ") && line.ends_with(" counter")) {
      families.push_back(line.substr(7, line.size() - 7 - 8));
    }
  }
  EXPECT_EQ(families, (std::vector<std::string>{
                          "ugrpc_calls_completed", "ugrpc_calls_failed",
                          "ugrpc_calls_retransmissions", "ugrpc_calls_started",
                          "ugrpc_execs_committed", "ugrpc_execs_duplicates_suppressed",
                          "ugrpc_execs_started", "ugrpc_flight_dumps", "ugrpc_msgs_malformed",
                          "ugrpc_net_bytes_delivered", "ugrpc_net_bytes_sent",
                          "ugrpc_net_delivered", "ugrpc_net_dropped", "ugrpc_net_duplicated",
                          "ugrpc_net_sent", "ugrpc_net_unroutable", "ugrpc_timers_cancelled",
                          "ugrpc_timers_fired", "ugrpc_trace_events_dropped",
                          "ugrpc_watchdog_orphaned_entries", "ugrpc_watchdog_scans",
                          "ugrpc_watchdog_stalled_calls", "ugrpc_watchdog_trips"}));

  // Names render as Prometheus metric names with '.' read as '_': none may
  // need escaping.
  const std::regex metric_name("[A-Za-z_][A-Za-z0-9_.]*");
  for (const obs::live::Counter& c : telemetry.counters()) {
    EXPECT_TRUE(std::regex_match(std::string(c.name), metric_name)) << c.name;
  }
}

TEST(LiveTelemetry, ScrapeCarriesEveryProfileRow) {
  obs::Tracer tracer;
  ScenarioParams p;
  p.seed = 7;
  p.tracer = &tracer;
  Scenario s(std::move(p));
  SiteTelemetry telemetry(s.client_site(0));
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    for (int i = 0; i < 5; ++i) (void)co_await c.call(s.group(), kOp, Buffer{});
  });
  const std::string out = telemetry.metrics_text();

  // The same fold the scrape made: nothing ran in between.
  obs::Profile profile;
  profile.add(tracer.spans(), tracer);
  using Stats = obs::Profile::Stats;
  const std::pair<std::string, std::map<std::string, Stats>> groups[] = {
      {"component", profile.by_component()},
      {"kind", profile.by_kind()},
      {"handler", profile.by_handler()},
  };
  const auto expect_sample = [&out](const std::string& sample, std::uint64_t value) {
    const std::string line = "\n" + sample + " " + std::to_string(value) + "\n";
    EXPECT_NE(out.find(line), std::string::npos) << "missing" << line;
  };
  for (const auto& [by, rows] : groups) {
    ASSERT_FALSE(rows.empty()) << "the workload yields " << by << " rows";
    for (const auto& [name, st] : rows) {
      const std::string labels =
          "{by=\"" + by + "\",name=\"" + obs::live::prom_escape_label(name) + "\"";
      for (const auto& [metric, total, values] :
           {std::tuple{"ugrpc_span_wall_ns", st.wall_total,
                       std::array{st.wall_p50, st.wall_p95, st.wall_p99, st.wall_max}},
            std::tuple{"ugrpc_span_self_ns", st.self_total,
                       std::array{st.self_p50, st.self_p95, st.self_p99, st.self_max}}}) {
        const std::string family = metric;
        const char* quantiles[] = {"0.5", "0.95", "0.99", "1"};
        for (std::size_t i = 0; i < 4; ++i) {
          expect_sample(family + labels + ",quantile=\"" + quantiles[i] + "\"}", values[i]);
        }
        expect_sample(family + "_sum" + labels + "}", total);
        expect_sample(family + "_count" + labels + "}", st.count);
      }
    }
  }
}

TEST(LiveTelemetry, WatchdogFlagsStalledCallOnce) {
  obs::Tracer tracer;
  ScenarioParams p;
  p.tracer = &tracer;
  p.num_servers = 1;
  p.config = ConfigBuilder().asynchronous().build();
  p.server_app = stuck_app;
  Scenario s(std::move(p));

  SiteTelemetry telemetry(s.client_site(0), kTightBound);
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    (void)co_await c.call_async(s.group(), kOp, Buffer{});
  }, sim::msec(50));
  s.run_for(sim::msec(50));  // age the pending call well past the 10 ms bound

  SiteTelemetry::Sweep sweep = telemetry.scan_now();
  EXPECT_EQ(sweep.stalled, 1u);
  EXPECT_EQ(counter(telemetry, "watchdog.stalled_calls"), 1u);
  EXPECT_EQ(counter(telemetry, "watchdog.trips"), 1u);

  sweep = telemetry.scan_now();
  EXPECT_EQ(sweep.stalled, 0u) << "a record is flagged once, not per sweep";
  EXPECT_EQ(counter(telemetry, "watchdog.stalled_calls"), 1u);
  EXPECT_EQ(counter(telemetry, "watchdog.scans"), 2u);
}

TEST(LiveTelemetry, WatchdogFlagsOrphanedServerEntry) {
  obs::Tracer tracer;
  ScenarioParams p;
  p.tracer = &tracer;
  p.num_servers = 1;
  p.config = ConfigBuilder().asynchronous().build();
  p.server_app = stuck_app;
  Scenario s(std::move(p));

  SiteTelemetry telemetry(s.server(0), kTightBound);
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    (void)co_await c.call_async(s.group(), kOp, Buffer{});
  }, sim::msec(50));
  s.run_for(sim::msec(50));

  const SiteTelemetry::Sweep sweep = telemetry.scan_now();
  EXPECT_EQ(sweep.orphaned, 1u);
  EXPECT_EQ(counter(telemetry, "watchdog.orphaned_entries"), 1u);
}

TEST(LiveTelemetry, WatchdogTimerSweepsPeriodically) {
  obs::Tracer tracer;
  ScenarioParams p;
  p.tracer = &tracer;
  p.num_servers = 1;
  p.config = ConfigBuilder().asynchronous().build();
  p.server_app = stuck_app;
  Scenario s(std::move(p));

  SiteTelemetry telemetry(s.client_site(0), kTightBound);  // sweeps every 5 ms
  telemetry.start_watchdog();
  EXPECT_TRUE(telemetry.watchdog_running());

  s.run_client(0, [&](Client& c) -> sim::Task<> {
    (void)co_await c.call_async(s.group(), kOp, Buffer{});
  }, sim::msec(50));
  s.run_for(sim::msec(50));
  EXPECT_GE(counter(telemetry, "watchdog.scans"), 5u);
  EXPECT_EQ(counter(telemetry, "watchdog.stalled_calls"), 1u);

  telemetry.stop_watchdog();
  EXPECT_FALSE(telemetry.watchdog_running());
  const std::uint64_t scans = counter(telemetry, "watchdog.scans");
  s.run_for(sim::msec(50));
  EXPECT_EQ(counter(telemetry, "watchdog.scans"), scans)
      << "stopped watchdog must not sweep";
}

TEST(LiveTelemetry, IntrospectionListsPendingCalls) {
  obs::Tracer tracer;
  ScenarioParams p;
  p.tracer = &tracer;
  p.num_servers = 1;
  p.config = ConfigBuilder().asynchronous().build();
  p.server_app = stuck_app;
  Scenario s(std::move(p));

  SiteTelemetry client_tel(s.client_site(0));
  SiteTelemetry server_tel(s.server(0));
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    (void)co_await c.call_async(s.group(), kOp, Buffer{});
  }, sim::msec(50));
  s.run_for(sim::msec(20));

  std::string error;
  const auto client_doc = json_parse(client_tel.introspection_json(), &error);
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

  const auto server_doc = json_parse(server_tel.introspection_json(), &error);
  ASSERT_TRUE(server_doc.has_value()) << error;
  ASSERT_EQ((*server_doc)["sRPC"].as_array().size(), 1u);
  EXPECT_EQ((*server_doc)["sRPC"].as_array()[0]["client"].as_u64(), s.client_id(0).value());

  // A crashed site reports a minimal document instead of walking dead state.
  s.server(0).crash();
  const auto down_doc = json_parse(server_tel.introspection_json(), &error);
  ASSERT_TRUE(down_doc.has_value()) << error;
  EXPECT_FALSE((*down_doc)["up"].as_bool());
  EXPECT_TRUE((*down_doc)["sRPC"].is_null());
}

TEST(LiveTelemetry, RetransmissionDuringExecutionReplacesTheRowAndBothCommit) {
  // At-least-once: the 40 ms retransmission reaches the server while the
  // first arrival's 50 ms execution runs.  It replaces the sRPC row and
  // runs too; each execution leaves the row to the newer arrival, and the
  // table ends empty.
  obs::Tracer tracer;
  ScenarioParams p;
  p.tracer = &tracer;
  p.num_servers = 1;
  p.config = ConfigBuilder::at_least_once().reliable_communication(sim::msec(40)).build();
  p.server_app = [](UserProtocol& user, Site& site) {
    user.set_procedure([&site](OpId, Buffer&) -> sim::Task<> {
      co_await site.scheduler().sleep_for(sim::msec(50));
    });
  };
  Scenario s(std::move(p));
  SiteTelemetry server_tel(s.server(0));
  Status status = Status::kWaiting;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    status = (co_await c.call(s.group(), kOp, Buffer{})).status;
  }, sim::msec(45));

  std::string error;
  const auto mid = json_parse(server_tel.introspection_json(), &error);
  ASSERT_TRUE(mid.has_value()) << error;
  ASSERT_EQ((*mid)["sRPC"].as_array().size(), 1u);
  EXPECT_EQ((*mid)["sRPC"].as_array()[0]["arrival"].as_u64(), 2u) << "the retransmission's row";

  s.run_for(sim::msec(200));
  EXPECT_EQ(status, Status::kOk);
  EXPECT_EQ(s.server(0).total_executions(), 2u);
  EXPECT_EQ(tracer.count(obs::Kind::kExecCommitted), 2u);
  const auto end = json_parse(server_tel.introspection_json(), &error);
  ASSERT_TRUE(end.has_value()) << error;
  EXPECT_TRUE((*end)["sRPC"].as_array().empty());
}

TEST(LiveTelemetry, FlightDumpRoundTripsThroughLoaderAndChecker) {
  obs::Tracer tracer;
  ScenarioParams p;
  p.num_servers = 1;
  p.tracer = &tracer;
  const Config config = p.config;
  Scenario s(std::move(p));

  SiteTelemetry telemetry(s.client_site(0));
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    for (int i = 0; i < 3; ++i) (void)co_await c.call_async(s.group(), kOp, Buffer{});
  });

  const fs::path dir = fs::path(testing::TempDir()) / "ugrpc_flight_test";
  fs::remove_all(dir);
  telemetry.set_flight_dir(dir.string());
  std::string error;
  const auto dump = telemetry.trip("test-reason", &error);
  ASSERT_TRUE(dump.has_value()) << error;
  EXPECT_EQ(counter(telemetry, "flight.dumps"), 1u);

  // The dump holds exactly its three files.
  std::set<std::string> present;
  for (const auto& entry : fs::directory_iterator(*dump)) {
    present.insert(entry.path().filename().string());
  }
  EXPECT_EQ(present,
            (std::set<std::string>{obs::kTraceFileName, "metrics.prom", "introspect.json"}));

  // The trace file's header carries the reason and the site's config line,
  // which parses back to the site's configuration, and its events are
  // checker-ready: the healthy workload must replay clean under what the
  // line promises.
  const auto loaded = load_trace(fs::path(*dump));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->header.reason, "test-reason");
  EXPECT_EQ(loaded->header.config, config.describe());
  const std::optional<Config> parsed = Config::parse(loaded->header.config);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->describe(), config.describe());
  EXPECT_EQ(loaded->unknown_kinds, 0u);
  EXPECT_EQ(loaded->dropped, 0u);
  ASSERT_FALSE(loaded->events.empty());
  const obs::Report report = obs::check(loaded->events, expectations_from(*parsed));
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

  SiteTelemetry telemetry(s.client_site(0), kTightBound);
  const fs::path dir = fs::path(testing::TempDir()) / "ugrpc_flight_trip";
  fs::remove_all(dir);
  telemetry.set_flight_dir(dir.string());

  s.run_client(0, [&](Client& c) -> sim::Task<> {
    (void)co_await c.call_async(s.group(), kOp, Buffer{});
  }, sim::msec(50));
  s.run_for(sim::msec(50));

  const SiteTelemetry::Sweep sweep = telemetry.scan_now();
  EXPECT_EQ(sweep.stalled, 1u);
  ASSERT_TRUE(sweep.flight_dir.has_value());
  EXPECT_EQ(counter(telemetry, "flight.dumps"), 1u);

  const auto loaded = load_trace(fs::path(*sweep.flight_dir));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_NE(loaded->header.reason.find("watchdog"), std::string::npos);
  fs::remove_all(dir);
}

TEST(LiveTelemetry, TwoSitesTripIntoOneDirectoryWithinASecond) {
  obs::Tracer tracer;
  ScenarioParams p;
  p.num_servers = 1;
  p.tracer = &tracer;
  Scenario s(std::move(p));
  SiteTelemetry client_tel(s.client_site(0));
  SiteTelemetry server_tel(s.server(0));
  const fs::path dir = fs::path(testing::TempDir()) / "ugrpc_flight_two_sites";
  fs::remove_all(dir);
  client_tel.set_flight_dir(dir.string());
  server_tel.set_flight_dir(dir.string());

  std::string error;
  const auto client_dump = client_tel.trip("client", &error);
  ASSERT_TRUE(client_dump.has_value()) << error;
  const auto server_dump = server_tel.trip("server", &error);
  ASSERT_TRUE(server_dump.has_value()) << error;
  EXPECT_NE(*client_dump, *server_dump);
  EXPECT_EQ(flight_dumps(dir).size(), 2u);
  for (const auto& [dump, reason] : {std::pair{*client_dump, "client"}, {*server_dump, "server"}}) {
    const auto loaded = load_trace(fs::path(dump));
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->header.reason, reason);
  }
  fs::remove_all(dir);
}

TEST(LiveTelemetry, TwoScenariosOfOneSiteIdTripIntoOneDirectoryWithinASecond) {
  // Two simulated scenarios in one process both have a server 1: same site
  // id, same pid, same first seq.  The second dump takes the next seq.
  obs::Tracer tracer_a;
  obs::Tracer tracer_b;
  ScenarioParams pa;
  pa.num_servers = 1;
  pa.tracer = &tracer_a;
  ScenarioParams pb = pa;
  pb.tracer = &tracer_b;
  Scenario a(std::move(pa));
  Scenario b(std::move(pb));
  ASSERT_EQ(a.server(0).id(), b.server(0).id());
  SiteTelemetry tel_a(a.server(0));
  SiteTelemetry tel_b(b.server(0));
  const fs::path dir = fs::path(testing::TempDir()) / "ugrpc_flight_one_site_id";
  fs::remove_all(dir);
  tel_a.set_flight_dir(dir.string());
  tel_b.set_flight_dir(dir.string());

  std::string error;
  const auto dump_a = tel_a.trip("a", &error);
  ASSERT_TRUE(dump_a.has_value()) << error;
  const auto dump_b = tel_b.trip("b", &error);
  ASSERT_TRUE(dump_b.has_value()) << error;
  EXPECT_NE(*dump_a, *dump_b);
  const std::vector<fs::path> dumps = flight_dumps(dir);
  EXPECT_EQ(dumps.size(), 2u);
  for (const fs::path& dump : dumps) EXPECT_TRUE(load_trace(dump).has_value()) << dump;
  fs::remove_all(dir);
}

TEST(LiveTelemetryDeathTest, CrashHandlerDumpsOnAbortUntilDestroyed) {
  obs::Tracer tracer;
  ScenarioParams p;
  p.num_servers = 1;
  p.tracer = &tracer;
  Scenario s(std::move(p));
  const fs::path dir = fs::path(testing::TempDir()) / "ugrpc_flight_crash";
  fs::remove_all(dir);
  {
    SiteTelemetry telemetry(s.client_site(0));
    telemetry.set_flight_dir(dir.string());
    install_crash_handler(telemetry);
    EXPECT_DEATH(std::abort(), "");
  }
  const std::vector<fs::path> dumps = flight_dumps(dir);
  ASSERT_EQ(dumps.size(), 1u);
  const auto loaded = load_trace(dumps[0]);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->header.reason, "signal:SIGABRT");

  // The destructor disarmed the handler: default disposition again, and a
  // second abort leaves no dump.
  struct sigaction action {};
  ASSERT_EQ(::sigaction(SIGABRT, nullptr, &action), 0);
  EXPECT_EQ(action.sa_handler, SIG_DFL);
  fs::remove_all(dir);
  EXPECT_DEATH(std::abort(), "");
  EXPECT_TRUE(flight_dumps(dir).empty());
}

/// One blocking HTTP GET against 127.0.0.1:`port`; the response body, or ""
/// on any failure.  A receive timeout bounds a wedged server.
std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  timeval timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  std::string response;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) {
    const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
    if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
        static_cast<ssize_t>(request.size())) {
      char buf[4096];
      ssize_t n = 0;
      while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
        response.append(buf, static_cast<std::size_t>(n));
      }
    }
  }
  ::close(fd);
  const std::size_t body = response.find("\r\n\r\n");
  return response.starts_with("HTTP/1.0 200") && body != std::string::npos
             ? response.substr(body + 4)
             : "";
}

TEST(LiveTelemetry, UdpSiteServesScrapesWhileRunForDrivesTheLoop) {
  constexpr ProcessId kServer{1};
  constexpr ProcessId kClient{2};
  constexpr GroupId kGroup{1};
  net::UdpTransport transport;
  obs::Tracer tracer;
  transport.set_tracer(&tracer);
  const std::set<ProcessId> known{kServer, kClient};
  Site server(transport, kServer, Config{}, known);
  Site client(transport, kClient, Config{}, known);
  transport.define_group(kGroup, {kServer});
  server.set_app([](UserProtocol& user, Site&) {
    user.set_procedure([](OpId, Buffer&) -> sim::Task<> { co_return; });
  });
  server.boot();
  client.boot();

  SiteTelemetry telemetry(client);
  std::string error;
  const std::uint16_t port = telemetry.serve(0, "127.0.0.1", &error);
  ASSERT_NE(port, 0) << error;

  Client c(client);
  int ok = 0;
  const FiberId fiber = transport.spawn(
      [](Client& c, int& ok) -> sim::Task<> {
        for (int i = 0; i < 3; ++i) ok += (co_await c.call(kGroup, kOp, Buffer{})).ok() ? 1 : 0;
      }(c, ok),
      client.domain());
  ASSERT_TRUE(transport.run_until_fiber_done(fiber, sim::seconds(10)));
  ASSERT_EQ(ok, 3);

  // The scraper blocks on real TCP in its own thread; this thread only runs
  // the transport's loop, which must answer from the serve() timer.
  std::string metrics;
  std::string introspect;
  std::atomic<bool> done{false};
  std::thread scraper([&] {
    metrics = http_get(port, "/metrics");
    introspect = http_get(port, "/introspect");
    done = true;
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(15);
  while (!done && std::chrono::steady_clock::now() < deadline) transport.run_for(sim::msec(10));
  scraper.join();

  EXPECT_NE(metrics.find("\nugrpc_calls_started 3\n"), std::string::npos) << metrics;
  const std::size_t sent = metrics.find("\nugrpc_net_sent ");
  ASSERT_NE(sent, std::string::npos) << metrics;
  EXPECT_GT(std::strtoull(metrics.c_str() + sent + 16, nullptr, 10), 0u) << metrics;
  const auto doc = json_parse(introspect, &error);
  ASSERT_TRUE(doc.has_value()) << error << "\n" << introspect;
  EXPECT_EQ((*doc)["site"].as_u64(), kClient.value());
  EXPECT_TRUE((*doc)["up"].as_bool());
}

}  // namespace
}  // namespace ugrpc::core
