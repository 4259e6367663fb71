// Experiment B-reliability (DESIGN.md) -- what Reliable Communication and
// Bounded Termination buy under message loss.
//
// Sweep the per-link drop probability and report, for three configurations,
// the fraction of calls that complete OK and their mean latency:
//
//   bare      : no reliability, no bound  (calls hang when a message dies;
//               completion measured with a 2s patience window)
//   bounded   : no reliability, 250ms bound (calls fail fast, never hang)
//   reliable  : retransmission, no bound  (every call completes; latency
//               grows with loss as retransmissions kick in)
//
// Expected shape: 'bare' completion decays roughly like the probability all
// of the 2*n messages survive; 'bounded' matches 'bare' completion but
// bounds the damage; 'reliable' stays at 100% with rising tail latency.
//
// A second table shows the fabric byte counters and the client->server0
// link for the 'reliable' runs: the gap between bytes_sent and
// bytes_delivered is the traffic loss ate, and the retransmission
// micro-protocol's job is to keep completion at 100% despite it.  The
// per-link column is read off the run's trace: a copy lost on the link is a
// flagged span opened by kMsgDropped at the sender, a copy that dies on
// arrival is a plain kMsgDropped record at the receiver.
//
//   usage: reliability_loss [--seed N]
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/assert.h"
#include "core/micro/acceptance.h"
#include "core/scenario.h"
#include "obs/trace.h"

namespace {

using namespace ugrpc;
using namespace ugrpc::core;

constexpr OpId kOp{1};
constexpr int kCalls = 60;

/// One link's traffic: transmissions, deliveries and losses.
struct LinkCounts {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
};

/// The from->to link's counts from the trace records of both ends.
LinkCounts link_counts(const obs::Tracer& tracer, ProcessId from, ProcessId to) {
  UGRPC_ASSERT(tracer.total_dropped() == 0 && "trace ring wrapped: size it for the run");
  LinkCounts c;
  for (const obs::Event& e : tracer.merged()) {
    const bool outbound = e.site == from && e.a == to.value();
    const bool inbound = e.site == to && e.a == from.value();
    if (outbound && e.kind == obs::Kind::kMsgSent) {
      ++c.sent;
    } else if (outbound && e.kind == obs::Kind::kMsgDropped && (e.flags & obs::kSpanOpen) != 0) {
      ++c.sent;  // lost on the link
      ++c.dropped;
    } else if (inbound && e.kind == obs::Kind::kMsgDropped && (e.flags & obs::kSpanOpen) == 0) {
      ++c.dropped;  // died on arrival
    } else if (inbound && e.kind == obs::Kind::kMsgDelivered) {
      ++c.delivered;
    }
  }
  return c;
}

struct Outcome {
  double ok_fraction = 0;
  double mean_ms = 0;
  net::Stats fabric;  // whole-fabric counters after the run
  LinkCounts c2s;     // client -> first server
};

Outcome run(double drop, bool reliable, bool bounded, std::uint64_t seed) {
  ScenarioParams p;
  p.num_servers = 3;
  p.config.acceptance_limit = kAll;
  p.config.reliable_communication = reliable;
  p.config.retrans_timeout = sim::msec(30);
  if (bounded) p.config.termination_bound = sim::msec(250);
  p.faults.drop_prob = drop;
  p.seed = seed;
  obs::Tracer tracer;
  p.tracer = &tracer;
  Scenario s(std::move(p));
  int ok = 0;
  double total_ms = 0;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    for (int i = 0; i < kCalls; ++i) {
      const sim::Time t0 = s.scheduler().now();
      // Patience window for configurations that can hang: run each call
      // concurrently with a 2s alarm is not needed -- bounded configs
      // return; bare configs would block forever, so bound the whole
      // workload loop instead (run_client deadline below) and count what
      // finished.
      const CallResult r = co_await c.call(s.group(), kOp, Buffer{});
      if (r.ok()) {
        total_ms += sim::to_msec(s.scheduler().now() - t0);
        ++ok;
      }
    }
  }, sim::seconds(120));
  Outcome out;
  out.ok_fraction = static_cast<double>(ok) / kCalls;
  out.mean_ms = ok > 0 ? total_ms / ok : 0;
  out.fabric = s.network().stats();
  out.c2s = link_counts(tracer, s.client_id(0), Scenario::server_id(0));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv, /*default_seed=*/21);

  std::printf("=== B-reliability: completion and latency vs message loss ===\n");
  std::printf("(3 servers, acceptance=ALL, %d sequential calls, seed %llu; 'bare' stops at the "
              "first hung call)\n\n", kCalls, static_cast<unsigned long long>(args.seed));
  std::printf("%-8s | %-20s | %-20s | %-20s\n", "loss", "bare ok%/ms", "bounded ok%/ms",
              "reliable ok%/ms");
  std::printf("---------+----------------------+----------------------+---------------------\n");
  std::vector<std::pair<double, Outcome>> reliable_runs;
  for (double drop : {0.0, 0.02, 0.05, 0.1, 0.2, 0.4}) {
    const Outcome bare = run(drop, false, false, args.seed);
    const Outcome bounded = run(drop, false, true, args.seed);
    const Outcome reliable = run(drop, true, false, args.seed);
    std::printf("%-8.2f | %6.1f%% / %-10.2f | %6.1f%% / %-10.2f | %6.1f%% / %-10.2f\n", drop,
                bare.ok_fraction * 100, bare.mean_ms, bounded.ok_fraction * 100, bounded.mean_ms,
                reliable.ok_fraction * 100, reliable.mean_ms);
    reliable_runs.emplace_back(drop, reliable);
  }

  std::printf("\n--- reliable config: fabric traffic vs loss (bytes lost = retransmission's "
              "bill) ---\n");
  std::printf("%-8s | %12s | %14s | %-30s\n", "loss", "bytes_sent", "bytes_delivered",
              "client->server0 sent/dlvd/drop");
  std::printf("---------+--------------+----------------+-------------------------------\n");
  for (const auto& [drop, o] : reliable_runs) {
    std::printf("%-8.2f | %12llu | %14llu | %8llu / %6llu / %6llu\n", drop,
                static_cast<unsigned long long>(o.fabric.bytes_sent),
                static_cast<unsigned long long>(o.fabric.bytes_delivered),
                static_cast<unsigned long long>(o.c2s.sent),
                static_cast<unsigned long long>(o.c2s.delivered),
                static_cast<unsigned long long>(o.c2s.dropped));
  }

  std::printf("\nexpected shape: bare decays and wedges; bounded decays but always returns; "
              "reliable holds 100%% with growing latency and byte overhead\n");
  return 0;
}
