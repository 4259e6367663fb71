#include "core/telemetry.h"

#include <algorithm>
#include <csignal>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <system_error>

#include <unistd.h>

#include "common/assert.h"
#include "common/log.h"
#include "core/http.h"
#include "obs/json.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "obs/trace_file.h"

namespace ugrpc::core {

namespace {

namespace fs = std::filesystem;

const obs::Tracer& tracer_of(Site& site) {
  const obs::Tracer* tracer = site.transport().tracer();
  UGRPC_ASSERT(tracer != nullptr && "telemetry reads a traced transport (set_tracer first)");
  return *tracer;
}

/// Rate-limiter keys: one line budget per finding category.
constexpr std::uint64_t kWarnStalled = 0;
constexpr std::uint64_t kWarnOrphaned = 1;
constexpr std::uint64_t kWarnFlight = 2;
/// Names trip() tries before giving up when every one is already taken.
constexpr int kDumpNameTries = 16;
/// Stall/orphan warnings are rate-limited to one line per category per this
/// period (suppressed counts stay exact).
constexpr sim::Duration kWarnPeriod = sim::seconds(10);
/// Default stall threshold: twice the termination bound, or twice this when
/// the config sets none.
constexpr sim::Duration kFallbackBound = sim::seconds(5);
/// The watchdog sweeps every half stall threshold, but at least this often.
constexpr sim::Duration kMaxSweepPeriod = sim::seconds(1);
/// How often serve() accepts and progresses scrape connections.
constexpr sim::Duration kServePoll = sim::msec(5);

void append_hold(std::string& out, const HoldArray& hold) {
  out += "{\"main\":";
  out += hold[kHoldMain] ? "true" : "false";
  out += ",\"fifo\":";
  out += hold[kHoldFifo] ? "true" : "false";
  out += ",\"total\":";
  out += hold[kHoldTotal] ? "true" : "false";
  out += "}";
}

bool write_file(const fs::path& path, std::string_view contents, std::string* error) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    if (error != nullptr) *error = "cannot open " + path.string();
    return false;
  }
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  out.flush();
  if (!out) {
    if (error != nullptr) *error = "short write to " + path.string();
    return false;
  }
  return true;
}

std::string stamp_utc() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y%m%d-%H%M%S", &tm);
  return buf;
}

SiteTelemetry* g_crash_telemetry = nullptr;

constexpr int kCrashSignals[] = {SIGSEGV, SIGBUS, SIGFPE, SIGABRT};

void crash_handler(int sig) {
  SiteTelemetry* telemetry = g_crash_telemetry;
  g_crash_telemetry = nullptr;  // one attempt only, even if the dump itself faults
  if (telemetry != nullptr) {
    const char* name = "signal";
    switch (sig) {
      case SIGSEGV: name = "signal:SIGSEGV"; break;
      case SIGBUS: name = "signal:SIGBUS"; break;
      case SIGFPE: name = "signal:SIGFPE"; break;
      case SIGABRT: name = "signal:SIGABRT"; break;
      default: break;
    }
    (void)telemetry->trip(name);
  }
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

void set_crash_handler(SiteTelemetry* telemetry) {
  g_crash_telemetry = telemetry;
  for (const int sig : kCrashSignals) {
    std::signal(sig, telemetry != nullptr ? crash_handler : SIG_DFL);
  }
}

}  // namespace

void install_crash_handler(SiteTelemetry& telemetry) { set_crash_handler(&telemetry); }

SiteTelemetry::SiteTelemetry(Site& site, std::optional<sim::Duration> stall_after)
    : site_(site),
      tracer_(tracer_of(site)),
      stall_after_(stall_after.value_or(
          2 * site.config().termination_bound.value_or(kFallbackBound))),
      warn_log_(kWarnPeriod) {}

std::vector<obs::live::Counter> SiteTelemetry::counters() const {
  using obs::Kind;
  const auto count = [this](Kind k) { return tracer_.count(k); };
  const net::Stats& net = site_.transport().stats();
  // kCallCompleted closes every call, a timed-out one too, and Bounded
  // Termination records the call's kDeadlineExpired right before it with no
  // suspension point between: the difference never goes backwards.
  return {
      {"calls.completed", count(Kind::kCallCompleted) - count(Kind::kDeadlineExpired)},
      {"calls.failed", count(Kind::kDeadlineExpired)},
      {"calls.retransmissions", count(Kind::kRetransmit)},
      {"calls.started", count(Kind::kCallIssued)},
      {"execs.committed", count(Kind::kExecCommitted)},
      {"execs.duplicates_suppressed", count(Kind::kDupSuppressed)},
      {"execs.started", count(Kind::kExecStarted)},
      {"flight.dumps", flight_dumps_},
      {"msgs.malformed", count(Kind::kMsgMalformed)},
      {"net.bytes_delivered", net.bytes_delivered},
      {"net.bytes_sent", net.bytes_sent},
      {"net.delivered", net.delivered},
      {"net.dropped", net.dropped},
      {"net.duplicated", net.duplicated},
      {"net.sent", net.sent},
      {"net.unroutable", net.unroutable},
      {"timers.cancelled", count(Kind::kTimerCancelled)},
      {"timers.fired", count(Kind::kTimerFired)},
      {"trace.events_dropped", tracer_.total_dropped()},
      {"watchdog.orphaned_entries", orphaned_},
      {"watchdog.scans", scans_},
      {"watchdog.stalled_calls", stalled_},
      {"watchdog.trips", trips_},
  };
}

SiteTelemetry::~SiteTelemetry() {
  stop(watchdog_timer_);
  stop(serve_timer_);
  if (g_crash_telemetry == this) set_crash_handler(nullptr);
}

void SiteTelemetry::every(std::optional<TimerId>& timer, sim::Duration period,
                          void (SiteTelemetry::*tick)()) {
  // Global domain: the timer must outlive site crashes (a crashed site's
  // domain timers are cancelled wholesale by kill_domain).
  timer = site_.transport().schedule_after(
      period,
      [this, &timer, period, tick] {
        (this->*tick)();
        if (timer.has_value()) every(timer, period, tick);  // cleared by stop()
      },
      sim::kGlobalDomain);
}

void SiteTelemetry::stop(std::optional<TimerId>& timer) {
  if (timer.has_value()) {
    site_.transport().cancel_timer(*timer);
    timer.reset();
  }
}

// ---- stall watchdog ----

void SiteTelemetry::start_watchdog() {
  if (!watchdog_timer_.has_value()) {
    every(watchdog_timer_, std::clamp(stall_after_ / 2, sim::Duration{1}, kMaxSweepPeriod),
          &SiteTelemetry::sweep_tick);
  }
}

void SiteTelemetry::stop_watchdog() { stop(watchdog_timer_); }

SiteTelemetry::Sweep SiteTelemetry::scan_now() {
  Sweep sweep;
  ++scans_;
  if (!site_.up()) return sweep;  // nothing pending on a crashed site

  const sim::Time now = site_.transport().now();
  GrpcState& state = site_.grpc().state();

  // Prune flags of records that have since completed/retired, so a reused
  // table slot can be flagged again and the sets stay bounded by table size.
  std::erase_if(flagged_calls_,
                [&](std::uint64_t id) { return !state.pRPC.contains(CallId{id}); });
  std::erase_if(flagged_entries_,
                [&](std::uint64_t id) { return !state.sRPC.contains(CallId{id}); });

  for (const auto& [id, rec] : state.pRPC) {
    if (rec.status != Status::kWaiting || now - rec.issued_at <= stall_after_) continue;
    if (!flagged_calls_.insert(id.value()).second) continue;
    ++sweep.stalled;
    ++stalled_;
    if (const std::uint64_t n = warn_log_.occurrences_to_log(kWarnStalled, now); n == 1) {
      UGRPC_LOG(kWarn, "telemetry: site %u call %llu stalled (age %lld us > %lld us)",
                site_.id().value(), static_cast<unsigned long long>(id.value()),
                static_cast<long long>(now - rec.issued_at), static_cast<long long>(stall_after_));
    } else if (n > 1) {
      UGRPC_LOG(kWarn, "telemetry: site %u stalled calls: %llu more since last report",
                site_.id().value(), static_cast<unsigned long long>(n));
    }
  }

  for (const auto& [id, rec] : state.sRPC) {
    if (now - rec.arrived_at <= stall_after_) continue;
    if (!flagged_entries_.insert(id.value()).second) continue;
    ++sweep.orphaned;
    ++orphaned_;
    if (const std::uint64_t n = warn_log_.occurrences_to_log(kWarnOrphaned, now); n == 1) {
      UGRPC_LOG(kWarn,
                "telemetry: site %u sRPC entry %llu orphaned (client %u, age %lld us > %lld us)",
                site_.id().value(), static_cast<unsigned long long>(id.value()),
                rec.client.value(), static_cast<long long>(now - rec.arrived_at),
                static_cast<long long>(stall_after_));
    } else if (n > 1) {
      UGRPC_LOG(kWarn, "telemetry: site %u orphaned sRPC entries: %llu more since last report",
                site_.id().value(), static_cast<unsigned long long>(n));
    }
  }

  if (sweep.stalled + sweep.orphaned > 0) {
    ++trips_;
    std::string error;
    sweep.flight_dir = trip("watchdog: " + std::to_string(sweep.stalled) + " stalled call(s), " +
                                std::to_string(sweep.orphaned) + " orphaned entr(ies)",
                            &error);
    if (!sweep.flight_dir && !flight_dir_.empty()) {
      if (const std::uint64_t n = warn_log_.occurrences_to_log(kWarnFlight, now); n == 1) {
        UGRPC_LOG(kWarn, "telemetry: site %u flight dump failed: %s", site_.id().value(),
                  error.c_str());
      } else if (n > 1) {
        UGRPC_LOG(kWarn, "telemetry: site %u flight dumps failed: %llu since last report",
                  site_.id().value(), static_cast<unsigned long long>(n));
      }
    }
  }
  return sweep;
}

// ---- snapshot endpoints ----

std::string SiteTelemetry::metrics_text() const {
  // Fold spans afresh per scrape: the tracer is long-lived (its rings feed
  // the flight recorder, so it is never cleared) and Profile::add re-reads
  // every closed span.
  obs::Profile profile;
  profile.add(tracer_.spans(), tracer_);
  return obs::live::render_prometheus(counters()) + obs::live::render_prometheus(profile);
}

std::string SiteTelemetry::introspection_json() const {
  const sim::Time now = site_.transport().now();
  std::string out = "{\"site\":" + std::to_string(site_.id().value()) +
                    ",\"up\":" + (site_.up() ? "true" : "false") +
                    ",\"incarnation\":" + std::to_string(site_.incarnation()) +
                    ",\"now_us\":" + std::to_string(now);
  if (!site_.up()) {
    out += "}";
    return out;
  }

  GrpcComposite& grpc = site_.grpc();
  out += ",\"config\":" + obs::json_str(site_.config().describe());

  out += ",\"micro_protocols\":[";
  bool first = true;
  for (const std::string& name : grpc.micro_protocol_names()) {
    if (!first) out += ",";
    first = false;
    out += obs::json_str(name);
  }
  out += "]";

  out += ",\"handlers\":[";
  first = true;
  for (const auto& reg : grpc.framework().registrations()) {
    if (!first) out += ",";
    first = false;
    out += "{\"event\":" + obs::json_str(reg.event) + ",\"handler\":" + obs::json_str(reg.handler) +
           ",\"priority\":" + std::to_string(reg.priority) + "}";
  }
  out += "]";

  const GrpcState& state = grpc.state();
  out += ",\"members\":[";
  first = true;
  for (const ProcessId p : state.members) {
    if (!first) out += ",";
    first = false;
    out += std::to_string(p.value());
  }
  out += "]";

  out += ",\"hold\":";
  append_hold(out, state.HOLD);

  out += ",\"pRPC\":[";
  first = true;
  for (const auto& [id, rec] : state.pRPC) {
    if (!first) out += ",";
    first = false;
    const auto outstanding = std::ranges::count(rec.pending, false, &PendingServer::done);
    out += "{\"id\":" + std::to_string(id.value()) +
           ",\"seq\":" + std::to_string(call_seq(id)) +
           ",\"op\":" + std::to_string(rec.op.value()) +
           ",\"server\":" + std::to_string(rec.server.value()) + ",\"status\":" +
           obs::json_str(to_string(rec.status)) + ",\"nres\":" + std::to_string(rec.nres) +
           ",\"outstanding\":" + std::to_string(outstanding) +
           ",\"age_us\":" + std::to_string(now - rec.issued_at) + "}";
  }
  out += "]";

  out += ",\"sRPC\":[";
  first = true;
  for (const auto& [id, rec] : state.sRPC) {
    if (!first) out += ",";
    first = false;
    bool ready = true;
    for (std::size_t i = 0; i < kHoldCount; ++i) {
      if (state.HOLD[i] && !rec.hold[i]) ready = false;
    }
    out += "{\"id\":" + std::to_string(id.value()) +
           ",\"client\":" + std::to_string(rec.client.value()) +
           ",\"client_inc\":" + std::to_string(rec.client_inc) +
           ",\"op\":" + std::to_string(rec.op.value()) +
           ",\"arrival\":" + std::to_string(rec.arrival) +
           ",\"age_us\":" + std::to_string(now - rec.arrived_at) + ",\"hold\":";
    append_hold(out, rec.hold);
    out += ",\"ready\":";
    out += ready ? "true" : "false";
    out += "}";
  }
  out += "]";

  out += ",\"watchdog\":{\"running\":";
  out += watchdog_timer_.has_value() ? "true" : "false";
  out += ",\"flagged_calls\":" + std::to_string(flagged_calls_.size()) +
         ",\"flagged_entries\":" + std::to_string(flagged_entries_.size()) + "}";

  out += "}";
  return out;
}

// ---- flight recorder ----

std::optional<std::string> SiteTelemetry::trip(std::string_view reason, std::string* error) {
  if (flight_dir_.empty()) {
    if (error != nullptr) *error = "flight recorder disabled (no directory configured)";
    return std::nullopt;
  }
  // The pid keeps processes apart.  Within one process another object may
  // dump for the same site id (two simulated scenarios), so a name already
  // taken moves on to the next seq.
  std::error_code ec;
  std::string name;
  for (int tries = 0;; ++tries) {
    name = "flight-" + stamp_utc() + "-site" + std::to_string(site_.id().value()) + "-pid" +
           std::to_string(::getpid()) + "-" + std::to_string(++dump_seq_);
    if (!fs::exists(fs::path(flight_dir_) / name, ec)) break;
    if (tries + 1 == kDumpNameTries) {
      if (error != nullptr) *error = "no free dump name in " + flight_dir_ + " after " + name;
      return std::nullopt;
    }
  }
  const fs::path tmp = fs::path(flight_dir_) / (".tmp-" + name);
  const fs::path final_dir = fs::path(flight_dir_) / name;

  fs::create_directories(tmp, ec);
  if (ec) {
    if (error != nullptr) *error = "cannot create " + tmp.string() + ": " + ec.message();
    return std::nullopt;
  }

  const Buffer trace =
      obs::encode_trace(tracer_, {std::string(reason), site_.config().describe()});
  const std::string_view trace_bytes(reinterpret_cast<const char*>(trace.bytes().data()),
                                     trace.size());
  if (!write_file(tmp / obs::kTraceFileName, trace_bytes, error) ||
      !write_file(tmp / "metrics.prom", metrics_text(), error) ||
      !write_file(tmp / "introspect.json", introspection_json(), error)) {
    fs::remove_all(tmp, ec);
    return std::nullopt;
  }

  fs::rename(tmp, final_dir, ec);
  if (ec) {
    if (error != nullptr) *error = "cannot rename to " + final_dir.string() + ": " + ec.message();
    fs::remove_all(tmp, ec);
    return std::nullopt;
  }
  ++flight_dumps_;
  return final_dir.string();
}

// ---- serving ----

std::uint16_t SiteTelemetry::serve(std::uint16_t port, const std::string& host,
                                   std::string* error) {
  stop(serve_timer_);
  server_ = std::make_unique<TelemetryServer>(*this);
  if (!server_->listen(host, port, error)) {
    server_.reset();
    return 0;
  }
  every(serve_timer_, kServePoll, &SiteTelemetry::serve_tick);
  UGRPC_LOG(kDebug, "telemetry: site %u listening on %s:%u", site_.id().value(), host.c_str(),
            server_->port());
  return server_->port();
}

void SiteTelemetry::serve_tick() { server_->poll_once(); }

}  // namespace ugrpc::core
