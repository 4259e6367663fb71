#include "core/telemetry.h"

#include <algorithm>

#include "common/log.h"
#include "core/observe.h"
#include "obs/json.h"

namespace ugrpc::core {

namespace {

/// Rate-limiter keys: one line budget per finding category.
constexpr std::uint64_t kWarnStalled = 0;
constexpr std::uint64_t kWarnOrphaned = 1;

void append_hold(std::string& out, const HoldArray& hold) {
  out += "{\"main\":";
  out += hold[kHoldMain] ? "true" : "false";
  out += ",\"fifo\":";
  out += hold[kHoldFifo] ? "true" : "false";
  out += ",\"total\":";
  out += hold[kHoldTotal] ? "true" : "false";
  out += "}";
}

}  // namespace

SiteTelemetry::SiteTelemetry(obs::live::TelemetryHub& hub, Site& site)
    : SiteTelemetry(hub, site, Options{}) {}

SiteTelemetry::SiteTelemetry(obs::live::TelemetryHub& hub, Site& site, Options options)
    : hub_(hub),
      site_(site),
      options_(options),
      scans_(hub.registry().counter("watchdog.scans")),
      stalled_(hub.registry().counter("watchdog.stalled_calls")),
      orphaned_(hub.registry().counter("watchdog.orphaned_entries")),
      trips_(hub.registry().counter("watchdog.trips")),
      warn_log_(options.warn_period) {
  hub_.set_introspection([this] { return introspection_json(); });
  hub_.set_manifest_extra([this] { return manifest_extra_json(); });
  // Transport byte/drop counts (obs cannot name net::Stats).  Re-binding on
  // a shared registry just overwrites with an equivalent read.
  obs::Registry& reg = hub_.registry();
  const net::Transport& transport = site_.transport();
  reg.counter("net.sent", [&transport] { return transport.stats().sent; });
  reg.counter("net.delivered", [&transport] { return transport.stats().delivered; });
  reg.counter("net.dropped", [&transport] { return transport.stats().dropped; });
  reg.counter("net.duplicated", [&transport] { return transport.stats().duplicated; });
  reg.counter("net.unroutable", [&transport] { return transport.stats().unroutable; });
  reg.counter("net.bytes_sent", [&transport] { return transport.stats().bytes_sent; });
  reg.counter("net.bytes_delivered", [&transport] { return transport.stats().bytes_delivered; });
}

SiteTelemetry::~SiteTelemetry() {
  stop_watchdog();
  // The providers capture `this`; a hub scraped later must not call them.
  hub_.set_introspection(nullptr);
  hub_.set_manifest_extra(nullptr);
}

// ---- stall watchdog ----

void SiteTelemetry::start_watchdog() {
  if (!timer_.has_value()) arm_timer();
}

void SiteTelemetry::stop_watchdog() {
  if (timer_.has_value()) {
    site_.transport().cancel_timer(*timer_);
    timer_.reset();
  }
}

void SiteTelemetry::arm_timer() {
  // Global domain: the sweep must outlive site crashes (a crashed site's
  // domain timers are cancelled wholesale by kill_domain).
  timer_ = site_.transport().schedule_after(
      options_.scan_period,
      [this] {
        scan_now();
        if (timer_.has_value()) arm_timer();  // cleared by stop_watchdog
      },
      sim::kGlobalDomain);
}

SiteTelemetry::Sweep SiteTelemetry::scan_now() {
  Sweep sweep;
  ++scans_;
  if (!site_.up()) return sweep;  // nothing pending on a crashed site

  const sim::Time now = site_.transport().now();
  const sim::Duration bound = options_.bound_override.value_or(
      site_.config().termination_bound.value_or(options_.fallback_bound));
  const auto threshold =
      static_cast<sim::Duration>(static_cast<double>(bound) * options_.stall_multiplier);
  GrpcState& state = site_.grpc().state();

  // Prune flags of records that have since completed/retired, so a reused
  // table slot can be flagged again and the sets stay bounded by table size.
  std::erase_if(flagged_calls_,
                [&](std::uint64_t id) { return !state.pRPC.contains(CallId{id}); });
  std::erase_if(flagged_entries_,
                [&](std::uint64_t id) { return !state.sRPC.contains(CallId{id}); });

  for (const auto& [id, rec] : state.pRPC) {
    if (rec->status != Status::kWaiting || now - rec->issued_at <= threshold) continue;
    if (!flagged_calls_.insert(id.value()).second) continue;
    ++sweep.stalled;
    ++stalled_;
    if (const std::uint64_t n = warn_log_.occurrences_to_log(kWarnStalled, now); n == 1) {
      UGRPC_LOG(kWarn, "telemetry: site %u call %llu stalled (age %lld us > %lld us)",
                site_.id().value(), static_cast<unsigned long long>(id.value()),
                static_cast<long long>(now - rec->issued_at), static_cast<long long>(threshold));
    } else if (n > 1) {
      UGRPC_LOG(kWarn, "telemetry: site %u stalled calls: %llu more since last report",
                site_.id().value(), static_cast<unsigned long long>(n));
    }
  }

  for (const auto& [id, rec] : state.sRPC) {
    if (now - rec->arrived_at <= threshold) continue;
    if (!flagged_entries_.insert(id.value()).second) continue;
    ++sweep.orphaned;
    ++orphaned_;
    if (const std::uint64_t n = warn_log_.occurrences_to_log(kWarnOrphaned, now); n == 1) {
      UGRPC_LOG(kWarn,
                "telemetry: site %u sRPC entry %llu orphaned (client %u, age %lld us > %lld us)",
                site_.id().value(), static_cast<unsigned long long>(id.value()),
                rec->client.value(), static_cast<long long>(now - rec->arrived_at),
                static_cast<long long>(threshold));
    } else if (n > 1) {
      UGRPC_LOG(kWarn, "telemetry: site %u orphaned sRPC entries: %llu more since last report",
                site_.id().value(), static_cast<unsigned long long>(n));
    }
  }

  if (sweep.stalled + sweep.orphaned > 0) {
    ++trips_;
    if (options_.trip_on_stall) {
      std::string reason = "watchdog: " + std::to_string(sweep.stalled) + " stalled call(s), " +
                           std::to_string(sweep.orphaned) + " orphaned entr(ies)";
      sweep.flight_dir = hub_.trip(reason);
    }
  }
  return sweep;
}

// ---- snapshot producers ----

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
    int outstanding = 0;
    for (const auto& [p, ps] : rec->pending) outstanding += ps.done ? 0 : 1;
    out += "{\"id\":" + std::to_string(id.value()) +
           ",\"seq\":" + std::to_string(call_seq(id)) +
           ",\"op\":" + std::to_string(rec->op.value()) +
           ",\"server\":" + std::to_string(rec->server.value()) + ",\"status\":" +
           obs::json_str(to_string(rec->status)) + ",\"nres\":" + std::to_string(rec->nres) +
           ",\"outstanding\":" + std::to_string(outstanding) +
           ",\"age_us\":" + std::to_string(now - rec->issued_at) + "}";
  }
  out += "]";

  out += ",\"sRPC\":[";
  first = true;
  for (const auto& [id, rec] : state.sRPC) {
    if (!first) out += ",";
    first = false;
    bool ready = true;
    for (std::size_t i = 0; i < kHoldCount; ++i) {
      if (state.HOLD[i] && !rec->hold[i]) ready = false;
    }
    out += "{\"id\":" + std::to_string(id.value()) +
           ",\"client\":" + std::to_string(rec->client.value()) +
           ",\"client_inc\":" + std::to_string(rec->client_inc) +
           ",\"op\":" + std::to_string(rec->op.value()) +
           ",\"age_us\":" + std::to_string(now - rec->arrived_at) + ",\"hold\":";
    append_hold(out, rec->hold);
    out += ",\"ready\":";
    out += ready ? "true" : "false";
    out += "}";
  }
  out += "]";

  out += ",\"watchdog\":{\"running\":";
  out += timer_.has_value() ? "true" : "false";
  out += ",\"flagged_calls\":" + std::to_string(flagged_calls_.size()) +
         ",\"flagged_entries\":" + std::to_string(flagged_entries_.size()) + "}";

  out += "}";
  return out;
}

std::string SiteTelemetry::manifest_extra_json() const {
  const obs::Expect expect = expectations_from(site_.config());
  std::string out = "\"config\": " + obs::json_str(site_.config().describe()) + ",\n  ";
  out += "\"expect\": {\"unique_execution\":";
  out += expect.unique_execution ? "true" : "false";
  out += ",\"atomic_execution\":";
  out += expect.atomic_execution ? "true" : "false";
  out += ",\"termination_bound_us\":";
  out += expect.termination_bound.has_value() ? std::to_string(*expect.termination_bound)
                                              : std::string("null");
  out += ",\"termination_slack_us\":" + std::to_string(expect.termination_slack);
  out += ",\"fifo_order\":";
  out += expect.fifo_order ? "true" : "false";
  out += ",\"total_order\":";
  out += expect.total_order ? "true" : "false";
  out += ",\"terminate_orphans\":";
  out += expect.terminate_orphans ? "true" : "false";
  out += "}";
  return out;
}

}  // namespace ugrpc::core
