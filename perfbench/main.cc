// µGRPC benchmark driver: one workload per run, one JSON result line.
//
//   ugrpc_perfbench --workload NAME --seed N --seconds N --trace 0|1
//                   [--trace-out PATH] [--corrupt-echo]
//
// Workloads (see NOTES.md for why each exists):
//   write_ordered_sim  at-most-once + total order + acceptance=all over the
//                      simulator, 3 servers, 4 closed-loop clients, lossy links
//   read_fanout_udp    read_optimized preset over UDP loopback, 3 servers,
//                      4 closed-loop clients, 64 B args
//   bulk_echo_udp      exactly-once asynchronous calls over UDP loopback,
//                      1 client keeping a window of 8 KiB echoes outstanding
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced, reports the per-layer metrics, and writes the
// driver's spans to --trace-out.  The last line of stdout is
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Exit codes: 0 = result printed (check "correct"), 2 = usage error,
// 3 = not a Release build (no result is recorded).
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_util.h"
#include "perfbench.h"

namespace {

using perfbench::Options;
using perfbench::Outcome;

constexpr const char* kUsage =
    "usage: ugrpc_perfbench --workload write_ordered_sim|read_fanout_udp|bulk_echo_udp\n"
    "                       --seed N --seconds N --trace 0|1 [--trace-out PATH]"
    " [--corrupt-echo]\n";

int usage_error(const std::string& msg) {
  std::fprintf(stderr, "ugrpc_perfbench: %s\n%s", msg.c_str(), kUsage);
  return 2;
}

std::string read_first_line(const char* path) {
  std::ifstream in(path);
  std::string line;
  if (!in || !std::getline(in, line)) return "unknown";
  return line;
}

/// bench::env_json() plus what this benchmark's numbers depend on: the
/// socket receive-buffer default sets where bulk_echo_udp's fan-in cliff
/// lies (NOTES.md).
std::string env_stamp(const Options& opt) {
  std::string env = ugrpc::bench::env_json();
  env.pop_back();  // reopen the object
  env += ", \"cmake_build_type\": \"" UGRPC_PERFBENCH_BUILD_TYPE "\"";
  env += ", \"rmem_default\": \"" + read_first_line("/proc/sys/net/core/rmem_default") + "\"";
  env += ", \"workload\": \"" + opt.workload + "\"";
  env += ", \"seed\": " + std::to_string(opt.seed);
  env += ", \"seconds\": " + std::to_string(opt.seconds);
  env += ", \"trace\": " + std::string(opt.trace ? "1" : "0") + "}";
  return env;
}

void print_result(const Outcome& out) {
  // Human-readable table first (with sample counts), then the one-line
  // machine result, which must be the last line of stdout.
  for (const auto& m : out.metrics) {
    std::printf("  %-36s %16.6f %-6s (n=%" PRIu64 ")\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.samples);
  }
  std::printf("  host slowdown (timed values are divided by it) %.4f\n", out.host_slowdown);
  for (const auto& v : out.violations) std::printf("  VIOLATION: %s\n", v.c_str());
  std::ostringstream js;
  js.precision(17);
  js << "{\"correct\": " << (out.correct ? "true" : "false") << ", \"attempted\": "
     << out.attempted << ", \"failed\": " << out.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& m = out.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    js << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": " << v << ", \"unit\": \""
       << m.unit << "\"}";
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--corrupt-echo") {
      opt.corrupt_echo = true;
      continue;
    }
    if (i + 1 >= argc) return usage_error("missing value for " + arg);
    const char* val = argv[++i];
    std::uint64_t n = 0;
    if (arg == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      if (!ugrpc::bench::parse_u64(val, n)) return usage_error("invalid --seed '" + std::string(val) + "'");
      opt.seed = n;
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!ugrpc::bench::parse_u64(val, n) || n < 1 || n > 3600) {
        return usage_error("invalid --seconds '" + std::string(val) + "'");
      }
      opt.seconds = static_cast<int>(n);
      have_seconds = true;
    } else if (arg == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) {
        return usage_error("invalid --trace '" + std::string(val) + "' (expected 0 or 1)");
      }
      opt.trace = val[0] == '1';
      have_trace = true;
    } else if (arg == "--trace-out") {
      opt.trace_out = val;
    } else {
      return usage_error("unknown argument " + arg);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage_error("--workload, --seed, --seconds and --trace are required");
  }
  Outcome (*run)(const Options&) = nullptr;
  if (opt.workload == "write_ordered_sim") run = perfbench::run_write_ordered_sim;
  if (opt.workload == "read_fanout_udp") run = perfbench::run_read_fanout_udp;
  if (opt.workload == "bulk_echo_udp") run = perfbench::run_bulk_echo_udp;
  if (run == nullptr) return usage_error("unknown workload '" + opt.workload + "'");

  if (!ugrpc::bench::is_release_build() ||
      std::strcmp(UGRPC_PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "ugrpc_perfbench: refusing to record results from a %s build "
                 "(CMAKE_BUILD_TYPE=%s); rebuild with -DCMAKE_BUILD_TYPE=Release\n",
                 ugrpc::bench::kBuildType, UGRPC_PERFBENCH_BUILD_TYPE);
    return 3;
  }

  std::printf("env: %s\n", env_stamp(opt).c_str());
  std::fflush(stdout);
  const Outcome out = run(opt);
  print_result(out);
  return 0;
}
