// Experiment Fig. 2 -- "Semantic properties of group RPC".
//
// Prints the machine-readable form of the paper's property dependency graph
// (properties, choice groups, dependency edges with their rationale) and
// cross-checks it against the micro-protocol dependency rules the
// configurator enforces (paper Fig. 4): every strict configurator rule must
// be traceable to a Figure 2 edge or to one of the implementation-induced
// dependencies the paper lists in section 5.
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "core/config.h"
#include "core/micro/acceptance.h"
#include "core/properties.h"
#include "core/scenario.h"

namespace {

/// Empirical check of the FIFO -> Reliable Communication edge: run the same
/// lossy async workload with the edge respected and violated (validation
/// bypassed).  Violated, a lost call leaves a permanent gap that stalls
/// each server's stream; respected, retransmission fills the gaps and every
/// call executes.
std::size_t fifo_executions(bool reliable, std::size_t calls, std::uint64_t seed) {
  using namespace ugrpc;
  using namespace ugrpc::core;
  std::size_t executed = 0;
  ScenarioParams p;
  p.num_servers = 1;
  p.config.acceptance_limit = 1;
  p.config.call = CallSemantics::kAsynchronous;
  p.config.ordering = Ordering::kFifo;
  p.config.reliable_communication = reliable;
  p.config.retrans_timeout = sim::msec(30);
  p.config.unsafe_skip_validation = !reliable;  // experiment-only bypass
  p.faults.drop_prob = 0.15;
  p.seed = seed;
  p.server_app = [&executed](UserProtocol& user, Site&) {
    user.set_procedure([&executed](OpId, Buffer&) -> sim::Task<> {
      ++executed;
      co_return;
    });
  };
  Scenario s(std::move(p));
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    for (std::size_t i = 0; i < calls; ++i) {
      (void)co_await c.call_async(s.group(), OpId{1}, Buffer{});
      // Paced: the calls go out one at a time, and no call is collected,
      // so every Call carries the first call's id as its watermark.
      co_await s.scheduler().sleep_for(sim::msec(2));
    }
  });
  s.run_for(sim::seconds(10));
  return executed;
}

}  // namespace

int main(int argc, char** argv) {
  const ugrpc::bench::Args args = ugrpc::bench::parse_args(argc, argv, /*default_seed=*/19);
  using namespace ugrpc::core;

  std::printf("=== Figure 2: semantic properties of group RPC ===\n(seed %llu)\n\n",
              static_cast<unsigned long long>(args.seed));

  std::printf("choice groups (pick one alternative per category):\n");
  for (const PropertyChoice& choice : property_choices()) {
    std::printf("  %-18s:", std::string(choice.category).c_str());
    for (Property p : choice.alternatives) {
      std::printf("  [%s]", std::string(to_string(p)).c_str());
    }
    std::printf("\n");
  }

  std::printf("\ndependency edges (property -> prerequisite):\n");
  for (const PropertyEdge& edge : property_edges()) {
    std::printf("  %-26s -> %-26s  (%s)\n", std::string(to_string(edge.from)).c_str(),
                std::string(to_string(edge.to)).c_str(), std::string(edge.reason).c_str());
  }

  std::printf("\n=== cross-check against the configurator (Figure 4 rules) ===\n");
  // Drive each strict rule to violation and report the diagnostic, proving
  // the implementation enforces the printed graph.
  struct Probe {
    const char* description;
    Config config;
  };
  Config unique_no_rel;
  unique_no_rel.unique_execution = true;
  Config fifo_no_rel;
  fifo_no_rel.ordering = Ordering::kFifo;
  Config total_bounded;
  total_bounded.ordering = Ordering::kTotal;
  total_bounded.termination_bound = ugrpc::sim::seconds(1);
  const Probe probes[] = {
      {"unique execution without reliable communication", unique_no_rel},
      {"FIFO order without reliable communication", fifo_no_rel},
      {"total order without reliable/unique, with bounded termination", total_bounded},
  };
  for (const Probe& probe : probes) {
    std::printf("\nprobe: %s\n", probe.description);
    for (const ValidationError& err : validate(probe.config)) {
      std::printf("  violated: %-40s %s\n", err.rule.c_str(), err.message.c_str());
    }
  }
  std::printf("\nall strict rules map onto Figure 2 edges plus the section-5 "
              "implementation dependencies (Total->Unique, Total-x-Bounded).\n");

  std::printf("\n=== empirical edge check: FIFO Order -> Reliable Communication ===\n");
  std::printf("(40 async calls, 15%% loss, one server; executions observed)\n");
  const std::size_t with_edge = fifo_executions(true, 40, args.seed);
  const std::size_t without_edge = fifo_executions(false, 40, args.seed);
  std::printf("  edge respected (FIFO + Reliable): %zu/40 executed\n", with_edge);
  std::printf("  edge violated  (FIFO, no Reliable, validation bypassed): %zu/40 executed\n",
              without_edge);
  std::printf("  -> a single lost call permanently stalls the unreliable FIFO stream, "
              "empirically confirming the dependency\n");
  return with_edge == 40 && without_edge < 40 ? 0 : 1;
}
