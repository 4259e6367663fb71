// Experiment B-overhead (DESIGN.md) -- the cost of the event-driven
// framework, measured with google-benchmark on real (wall-clock) time.
//
// The follow-on work to this paper (Cactus; "Experience with modularity in
// Consul") evaluates exactly this: what does decomposing a protocol into
// micro-protocols cost per event?  We measure:
//
//   * EventDispatch/N      -- triggering one event with N registered
//                             handlers (framework dispatch + priority chain)
//   * EventDispatch_Plain/N -- the same with N plain handlers, which run as
//                             calls instead of coroutines
//   * TimeoutRegistration  -- arming + cancelling a TIMEOUT registration
//   * FullCall/<config>    -- one complete simulated group RPC (client call
//                             through 3 servers to completion) for a minimal
//                             configuration vs a fully loaded one; the gap is
//                             the price of the added micro-protocols
//   * CodecNetMessage      -- encode+decode of a wire message
//   * WriterFixedWidth     -- 64 u64 fields written into a reserved Buffer
//                             and read back: the codec's per-field cost
//   * EventDispatch_Spans/N -- the same dispatch with span tracing attached;
//                             the delta against EventDispatch/N is the
//                             enabled-path cost of the profiler itself
//
// With `--out PATH` the binary additionally runs the fully loaded
// configuration under span tracing and emits a per-handler cost breakdown
// (obs::Profile) -- the framework-level companion to modularity_tax's
// per-preset attribution JSON.
//
//   usage: framework_overhead [--seed N] [--calls N] [--out PATH]
//                             [google-benchmark flags...]
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "attribution.h"
#include "bench_util.h"
#include "core/micro/acceptance.h"
#include "core/scenario.h"
#include "net/message.h"
#include "net/network.h"
#include "obs/trace.h"
#include "runtime/framework.h"

namespace {

using namespace ugrpc;

constexpr runtime::EventId kEvent{1};

void BM_EventDispatch(benchmark::State& state) {
  sim::Scheduler sched;
  net::Network net{sched};
  runtime::Framework fw(net, DomainId{1});
  const int handlers = static_cast<int>(state.range(0));
  for (int i = 0; i < handlers; ++i) {
    fw.register_handler(kEvent, "h" + std::to_string(i), i,
                        [](runtime::EventContext&) -> sim::Task<> { co_return; });
  }
  int arg = 0;
  for (auto _ : state) {
    sched.spawn([](runtime::Framework& f, int& a) -> sim::Task<> {
      co_await f.trigger(kEvent, runtime::EventArg::ref(a));
    }(fw, arg));
    sched.run();
  }
  state.SetItemsProcessed(state.iterations() * handlers);
}
BENCHMARK(BM_EventDispatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

// The same dispatch with plain handlers, which run as calls: no coroutine
// frame per handler.  The gap to BM_EventDispatch/N is what a handler that
// cannot block saves by not being a coroutine.
void BM_EventDispatch_Plain(benchmark::State& state) {
  sim::Scheduler sched;
  net::Network net{sched};
  runtime::Framework fw(net, DomainId{1});
  const int handlers = static_cast<int>(state.range(0));
  for (int i = 0; i < handlers; ++i) {
    fw.register_handler(kEvent, "h" + std::to_string(i), i,
                        [](runtime::EventContext& ctx) { benchmark::DoNotOptimize(&ctx); });
  }
  int arg = 0;
  for (auto _ : state) {
    sched.spawn([](runtime::Framework& f, int& a) -> sim::Task<> {
      co_await f.trigger(kEvent, runtime::EventArg::ref(a));
    }(fw, arg));
    sched.run();
  }
  state.SetItemsProcessed(state.iterations() * handlers);
}
BENCHMARK(BM_EventDispatch_Plain)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

// Same dispatch with a SiteTrace attached: every trigger records an
// event-chain span plus one span per handler (an open and a close record
// each) into the site ring, which wraps once full.  The ratio to BM_EventDispatch/N is the
// enabled-path cost of the profiler (the disabled path is a null check and is
// covered by BM_EventDispatch itself).
void BM_EventDispatch_Spans(benchmark::State& state) {
  sim::Scheduler sched;
  net::Network net{sched};
  obs::Tracer tracer(std::size_t{1} << 16);
  runtime::Framework fw(net, DomainId{1}, &tracer.site(ProcessId{1}));
  const int handlers = static_cast<int>(state.range(0));
  for (int i = 0; i < handlers; ++i) {
    fw.register_handler(kEvent, "h" + std::to_string(i), i,
                        [](runtime::EventContext&) -> sim::Task<> { co_return; });
  }
  int arg = 0;
  for (auto _ : state) {
    sched.spawn([](runtime::Framework& f, int& a) -> sim::Task<> {
      co_await f.trigger(kEvent, runtime::EventArg::ref(a));
    }(fw, arg));
    sched.run();
  }
  state.SetItemsProcessed(state.iterations() * handlers);
}
BENCHMARK(BM_EventDispatch_Spans)->Arg(1)->Arg(4)->Arg(16);

void BM_TimeoutRegistration(benchmark::State& state) {
  sim::Scheduler sched;
  net::Network net{sched};
  runtime::Framework fw(net, DomainId{1});
  for (auto _ : state) {
    TimerId id = fw.register_timeout("t", sim::seconds(10), []() -> sim::Task<> { co_return; });
    fw.cancel_timeout(id);
  }
}
BENCHMARK(BM_TimeoutRegistration);

core::Config minimal_config() {
  core::Config c;
  c.acceptance_limit = 1;
  return c;
}

core::Config loaded_config() {
  core::Config c;
  c.acceptance_limit = core::kAll;
  c.reliable_communication = true;
  c.unique_execution = true;
  c.ordering = core::Ordering::kTotal;
  c.execution = core::ExecutionMode::kSerial;
  c.orphan = core::OrphanHandling::kInterferenceAvoidance;
  return c;
}

void run_full_call(benchmark::State& state, core::Config config) {
  core::ScenarioParams p;
  p.num_servers = 3;
  p.config = std::move(config);
  core::Scenario s(std::move(p));
  for (auto _ : state) {
    core::CallResult result;
    s.run_client(0, [&](core::Client& c) -> sim::Task<> {
      result = co_await c.call(s.group(), OpId{1}, Buffer{});
    });
    benchmark::DoNotOptimize(result.status);
  }
}

void BM_FullCall_Minimal(benchmark::State& state) { run_full_call(state, minimal_config()); }
BENCHMARK(BM_FullCall_Minimal);

void BM_FullCall_FullyLoaded(benchmark::State& state) { run_full_call(state, loaded_config()); }
BENCHMARK(BM_FullCall_FullyLoaded);

void BM_CodecNetMessage(benchmark::State& state) {
  net::NetMessage msg;
  msg.type = net::MsgType::kCall;
  msg.id = CallId{123456};
  msg.op = OpId{7};
  Writer(msg.args).str("some moderately sized argument payload for the call");
  msg.server = GroupId{1};
  msg.sender = ProcessId{9};
  for (auto _ : state) {
    const Buffer wire = msg.encode();
    const net::NetMessage decoded = net::NetMessage::decode(wire);
    benchmark::DoNotOptimize(decoded.id);
  }
}
BENCHMARK(BM_CodecNetMessage);

void BM_WriterFixedWidth(benchmark::State& state) {
  constexpr std::size_t kFields = 64;
  std::vector<std::uint64_t> values(kFields);
  for (std::size_t i = 0; i < kFields; ++i) values[i] = 0x9e3779b97f4a7c15ULL * (i + 1);
  benchmark::DoNotOptimize(values.data());  // the fields are run-time data
  benchmark::ClobberMemory();
  Buffer buf;
  for (auto _ : state) {
    buf.clear();  // keeps the block: only the first iteration allocates
    buf.reserve(kFields * sizeof(std::uint64_t));
    Writer w(buf);
    for (const std::uint64_t v : values) w.u64(v);
    benchmark::DoNotOptimize(buf.bytes().data());
    benchmark::ClobberMemory();
    Reader r(buf);
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < kFields; ++i) sum += r.u64();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kFields));
}
BENCHMARK(BM_WriterFixedWidth);

}  // namespace

int main(int argc, char** argv) {
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
  ugrpc::bench::warn_if_debug("framework_overhead");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (out.empty()) return 0;

  std::uint64_t dropped = 0;
  const obs::Profile prof = ugrpc::bench::profile_config(loaded_config(), calls, seed,
                                                         /*num_servers=*/3, &dropped);
  if (dropped != 0) {
    std::fprintf(stderr,
                 "framework_overhead: %llu trace records overwritten -- attribution "
                 "under-counts\n",
                 static_cast<unsigned long long>(dropped));
  }
  std::vector<std::pair<std::string, std::string>> sections;
  sections.emplace_back("fully_loaded", prof.to_json());
  if (!ugrpc::bench::write_attribution_json(
          out, "framework_overhead attribution",
          "Per-handler cost breakdown of the fully loaded configuration (3 servers, sequential "
          "simulated calls) from span tracing; companion to modularity_tax's attribution.",
          seed, calls, sections, "configs")) {
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
