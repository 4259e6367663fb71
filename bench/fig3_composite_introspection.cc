// Experiment Fig. 3 -- "A composite protocol".
//
// The paper's Figure 3 sketches a live composite: the framework in the
// middle with shared data and event definitions, micro-protocols on the
// left, and, on the right, each event with the ordered list of
// micro-protocol handlers invoked when it occurs (e.g. "Msg from network:
// R, U" / "Call from user: R, S").
//
// This harness reproduces that picture from a *running* composite: it
// builds the figure's configuration -- RPC Main (R), Synchronous Call (S),
// Bounded Termination (B), Unique Execution (U) -- plus the always-present
// Collation/Acceptance, and dumps the registered micro-protocols, the shared
// tables, and the per-event handler chains in invocation (priority) order.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/micro/acceptance.h"
#include "core/scenario.h"

int main() {
  using namespace ugrpc;
  using namespace ugrpc::core;

  Config config;  // Figure 3's letters: R + S + B + U (U needs reliable comm)
  config.call = CallSemantics::kSynchronous;
  config.reliable_communication = true;
  config.unique_execution = true;
  config.termination_bound = sim::seconds(1);
  config.acceptance_limit = 1;

  ScenarioParams params;
  params.num_servers = 2;
  params.config = config;
  Scenario scenario(std::move(params));
  GrpcComposite& composite = scenario.server(0).grpc();

  std::printf("=== Figure 3: a composite protocol (live introspection) ===\n\n");
  std::printf("micro-protocols configured:\n");
  for (const std::string& name : composite.micro_protocol_names()) {
    std::printf("  - %s\n", name.c_str());
  }

  std::printf("\nshared data (GrpcState):\n");
  const GrpcState& state = composite.state();
  std::printf("  pRPC (pending client calls): %zu entries\n", state.pRPC.size());
  std::printf("  sRPC (pending server calls): %zu entries\n", state.sRPC.size());
  std::printf("  HOLD array: [main=%d fifo=%d total=%d]\n", static_cast<int>(state.HOLD[kHoldMain]),
              static_cast<int>(state.HOLD[kHoldFifo]), static_cast<int>(state.HOLD[kHoldTotal]));
  std::printf("  members: %zu live\n", state.members.size());
  std::printf("  incarnation: %u\n", state.inc_number);

  std::printf("\nevents and their handler chains (in invocation order):\n");
  std::map<std::string, std::vector<std::string>> chains;
  for (const auto& reg : composite.framework().registrations()) {
    chains[reg.event].push_back(reg.handler + " (prio " +
                                (reg.priority >= 1'000'000 ? std::string("default")
                                                           : std::to_string(reg.priority)) +
                                ")");
  }
  for (const auto& [event, handlers] : chains) {
    std::printf("  %s:\n", event.c_str());
    for (const std::string& h : handlers) std::printf("      %s\n", h.c_str());
  }

  std::printf("\npaper Figure 3's bindings for comparison:\n");
  std::printf("  Msg from network -> R, U     (here: one event per message kind --\n");
  std::printf("                                CALL_FROM_NETWORK: Unique, Main;\n");
  std::printf("                                REPLY_FROM_NETWORK: Reliable, Unique,\n");
  std::printf("                                Collation, Acceptance;\n");
  std::printf("                                ACK_FROM_NETWORK: Unique;\n");
  std::printf("                                Reliable was implicit in the figure's example)\n");
  std::printf("  Call from user   -> R, S     (here: Main, then Synchronous Call last;\n");
  std::printf("                                a Request is REQUEST_FROM_USER)\n");
  std::printf("  Timeout          -> B, U     (here: one-shot timers of Bounded/Reliable)\n");
  std::printf("  Reply from server-> U        (here: Unique stores the result)\n");
  return 0;
}
