// Experiment B-modularity (ablation) -- what does the micro-protocol
// architecture cost relative to a hand-fused protocol?
//
// The paper: point-to-point RPC "would likely be implemented separately to
// obtain a more compact and efficient protocol".  We built that compact
// protocol (core/p2p_rpc.h) with the same wire format and the same
// semantics (reliable + unique execution), and compare one complete
// simulated call:
//
//   composite(n=1)  -- the full micro-protocol composite with a one-member
//                      group: framework dispatch, HOLD gating, event chains
//   p2p fast path   -- monolithic class, straight-line code
//
// The gap is the modularity tax the paper accepts for configurability.
// Measured in real (CPU) time with google-benchmark.
//
// Beyond the end-to-end gap, the span profiler decomposes it: the binary
// also runs the three Fig. 1 presets with span tracing enabled and emits
// per-micro-protocol self-time percentiles into the JSON file named by
// --out (which micro-protocol a microsecond went to, not just that it
// went).
//
//   usage: modularity_tax [--seed N] [--calls N] [--out PATH]
//                         [google-benchmark flags...]
//   Without --out the attribution pass is skipped (timing benches only).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "attribution.h"
#include "bench_util.h"
#include "core/config_builder.h"
#include "core/micro/acceptance.h"
#include "core/p2p_rpc.h"
#include "core/scenario.h"
#include "net/network.h"

namespace {

using namespace ugrpc;

void BM_Composite_SingleServerCall(benchmark::State& state) {
  core::ScenarioParams p;
  p.num_servers = 1;
  p.config.acceptance_limit = 1;
  p.config.reliable_communication = true;
  p.config.unique_execution = true;
  core::Scenario s(std::move(p));
  for (auto _ : state) {
    core::CallResult result;
    s.run_client(0, [&](core::Client& c) -> sim::Task<> {
      result = co_await c.call(s.group(), OpId{1}, Buffer{});
    });
    benchmark::DoNotOptimize(result.status);
  }
}
BENCHMARK(BM_Composite_SingleServerCall);

void BM_P2pFastPath_Call(benchmark::State& state) {
  sim::Scheduler sched{3};
  net::Network net{sched};
  net::Endpoint& client_ep = net.attach(ProcessId{1}, DomainId{1});
  net::Endpoint& server_ep = net.attach(ProcessId{2}, DomainId{2});
  core::UserProtocol client_user;
  core::UserProtocol server_user;
  server_user.set_procedure([](OpId, Buffer&) -> sim::Task<> { co_return; });
  core::P2pRpc client(net, client_ep, ProcessId{1}, client_user, {});
  core::P2pRpc server(net, server_ep, ProcessId{2}, server_user, {});
  for (auto _ : state) {
    core::CallResult result;
    sched.spawn([](core::P2pRpc& c, core::CallResult& out) -> sim::Task<> {
      out = co_await c.call(ProcessId{2}, OpId{1}, Buffer{});
    }(client, result), DomainId{1});
    sched.run();
    benchmark::DoNotOptimize(result.status);
  }
}
BENCHMARK(BM_P2pFastPath_Call);

// ---- attribution pass (emits the --out JSON) ----

/// The failure-semantics rows of paper Figure 1.
struct Preset {
  const char* name;
  core::Config config;
};

std::vector<Preset> fig1_presets() {
  std::vector<Preset> out;
  out.push_back({"at_least_once", core::ConfigBuilder::at_least_once().build()});
  out.push_back({"exactly_once", core::ConfigBuilder::exactly_once().build()});
  out.push_back({"at_most_once", core::ConfigBuilder::at_most_once().build()});
  return out;
}

int run_attribution(const std::string& out_path, std::uint64_t seed, int calls) {
  std::vector<std::pair<std::string, std::string>> sections;
  for (Preset& preset : fig1_presets()) {
    std::uint64_t dropped = 0;
    const obs::Profile prof =
        bench::profile_config(std::move(preset.config), calls, seed, /*num_servers=*/3, &dropped);
    if (dropped != 0) {
      std::fprintf(stderr,
                   "modularity_tax: %llu trace records overwritten under %s -- attribution "
                   "under-counts; raise the tracer capacity in bench/attribution.h\n",
                   static_cast<unsigned long long>(dropped), preset.name);
    }
    std::printf("attribution[%s]: per-component self-time p50/p99 (ns)\n", preset.name);
    for (const auto& [comp, st] : prof.by_component()) {
      std::printf("  %-16s count=%-6llu self p50=%-8llu p99=%llu\n", comp.c_str(),
                  static_cast<unsigned long long>(st.count),
                  static_cast<unsigned long long>(st.self_p50),
                  static_cast<unsigned long long>(st.self_p99));
    }
    sections.emplace_back(preset.name, prof.to_json());
  }
  if (!bench::write_attribution_json(
          out_path, "modularity_tax attribution",
          "Per-micro-protocol latency attribution from span tracing: one Profile per Fig. 1 "
          "failure-semantics preset (3 servers, sequential simulated calls).  self_* fields "
          "exclude time attributed to child spans.",
          seed, calls, sections)) {
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off our flags, hand the rest to google-benchmark.
  std::uint64_t seed = 21;
  int calls = 400;
  std::string out;  // no attribution artifact unless asked
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--seed" && has_value && ugrpc::bench::parse_u64(argv[i + 1], seed)) {
      ++i;
    } else if (arg == "--calls" && has_value && ugrpc::bench::parse_count(argv[i + 1], calls)) {
      ++i;
    } else if (arg == "--out" && has_value) {
      out = argv[++i];
    } else {
      rest.push_back(argv[i]);
    }
  }
  int rest_argc = static_cast<int>(rest.size());
  benchmark::Initialize(&rest_argc, rest.data());
  if (benchmark::ReportUnrecognizedArguments(rest_argc, rest.data())) return 1;
  ugrpc::bench::warn_if_debug("modularity_tax");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (out.empty()) return 0;
  return run_attribution(out, seed, calls);
}
