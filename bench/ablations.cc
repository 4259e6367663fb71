// Experiment B-ablations (DESIGN.md) -- sensitivity of the design's tunable
// knobs, driven by the closed-loop workload harness.
//
//  A1. Retransmission timeout vs loss: the timeout is the initial RTO and
//      the ceiling of the RTT-derived timer, so below the RTT it wastes
//      messages and above it only bounds the backoff.  Reports mean / p99
//      latency and retransmissions per call for a grid of timeouts at 20%
//      loss.
//  A2. Atomic Execution cost vs stable-storage write latency: every call
//      pays one checkpoint write; the table shows call latency tracking the
//      storage latency, and the no-atomic baseline staying flat.
//  A3. Client scaling: aggregate throughput of the group as closed-loop
//      clients are added (serial execution caps it; plain execution scales
//      until the simulated network dominates).
#include <cstdio>

#include "bench_util.h"
#include "core/micro/acceptance.h"
#include "core/micro/reliable_communication.h"
#include "core/scenario.h"
#include "core/workload.h"

namespace {

using namespace ugrpc;
using namespace ugrpc::core;

void ablation_retrans_timeout(std::uint64_t seed) {
  std::printf("--- A1: retransmission timeout at 20%% loss (3 servers, acceptance=ALL) ---\n");
  std::printf("%-14s %-10s %-10s %-10s %-16s\n", "timeout (ms)", "ok%", "mean ms", "p99 ms",
              "retrans/call");
  // The round trip is ~0.6-1 ms: sub-RTT timeouts cap the RTO below it and
  // retransmit prematurely (wasted messages, no latency gain); above the RTT
  // a loss is recovered after the measured RTO, not after the timeout.
  for (sim::Duration timeout : {sim::usec(200), sim::usec(500), sim::msec(1), sim::msec(5),
                                sim::msec(25), sim::msec(100)}) {
    ScenarioParams p;
    p.num_servers = 3;
    p.config.acceptance_limit = kAll;
    p.config.reliable_communication = true;
    p.config.retrans_timeout = timeout;
    p.faults.drop_prob = 0.2;
    p.seed = seed;
    Scenario s(std::move(p));
    WorkloadParams w;
    w.calls_per_client = 80;
    const WorkloadReport r = run_closed_loop(s, w);
    const double retrans_per_call =
        static_cast<double>(s.client_site(0).grpc().reliable()->retransmissions()) /
        static_cast<double>(r.calls_ok + r.calls_failed);
    std::printf("%-14.1f %-10.1f %-10.3f %-10.3f %-16.2f\n", sim::to_msec(timeout),
                100.0 * static_cast<double>(r.calls_ok) /
                    static_cast<double>(r.calls_ok + r.calls_failed),
                r.latency.mean_ms(), r.latency.percentile_ms(0.99), retrans_per_call);
  }
  std::printf("expected shape: above the RTT the timeout is only a ceiling -- mean latency "
              "stays near a few ms (loss recovery follows the measured RTO) and "
              "retransmissions per call stay flat; below the RTT it caps the RTO, so "
              "retransmissions per call climb for little latency gain\n\n");
}

void ablation_checkpoint_latency(std::uint64_t seed) {
  std::printf("--- A2: atomic-execution cost vs stable-storage write latency (1 server) ---\n");
  std::printf("%-18s %-16s %-16s\n", "storage (ms)", "atomic mean ms", "plain mean ms");
  for (sim::Duration lat : {sim::msec(0), sim::msec(1), sim::msec(2), sim::msec(5),
                            sim::msec(10)}) {
    const auto run = [lat, seed](ExecutionMode mode) {
      ScenarioParams p;
      p.num_servers = 1;
      p.config.acceptance_limit = 1;
      p.config.reliable_communication = true;
      p.config.unique_execution = true;
      p.config.execution = mode;
      p.seed = seed - 64;  // historical default: 77 - 64 = 13
      Scenario s(std::move(p));
      s.server(0).stable().set_write_latency(lat);
      WorkloadParams w;
      w.calls_per_client = 40;
      return run_closed_loop(s, w).latency.mean_ms();
    };
    std::printf("%-18.0f %-16.3f %-16.3f\n", sim::to_msec(lat),
                run(ExecutionMode::kSerialAtomic), run(ExecutionMode::kSerial));
  }
  std::printf("expected shape: atomic latency grows ~1:1 with the checkpoint write; the "
              "non-atomic baseline is flat\n\n");
}

void ablation_client_scaling(std::uint64_t seed) {
  std::printf("--- A3: throughput vs closed-loop clients (3 servers, 2ms procedure) ---\n");
  std::printf("%-10s %-22s %-22s\n", "clients", "plain (calls/s)", "serial (calls/s)");
  for (int clients : {1, 2, 4, 8, 16}) {
    const auto run = [clients, seed](ExecutionMode mode) {
      ScenarioParams p;
      p.num_servers = 3;
      p.num_clients = clients;
      p.config.acceptance_limit = kAll;
      p.config.execution = mode;
      p.seed = seed - 48;  // historical default: 77 - 48 = 29
      p.server_app = [](UserProtocol& user, Site& site) {
        user.set_procedure([&site](OpId, Buffer&) -> sim::Task<> {
          co_await site.scheduler().sleep_for(sim::msec(2));
        });
      };
      Scenario s(std::move(p));
      WorkloadParams w;
      w.calls_per_client = 40;
      return run_closed_loop(s, w).throughput_per_sec();
    };
    std::printf("%-10d %-22.1f %-22.1f\n", clients, run(ExecutionMode::kPlain),
                run(ExecutionMode::kSerial));
  }
  std::printf("expected shape: plain execution overlaps procedure time and scales with "
              "clients; serial execution saturates near 1/procedure-time\n");
}

}  // namespace

int main(int argc, char** argv) {
  const ugrpc::bench::Args args = ugrpc::bench::parse_args(argc, argv, /*default_seed=*/77);
  std::printf("=== design-knob ablations ===\n(seed %llu)\n\n",
              static_cast<unsigned long long>(args.seed));
  ablation_retrans_timeout(args.seed);
  ablation_checkpoint_latency(args.seed);
  ablation_client_scaling(args.seed);
  return 0;
}
