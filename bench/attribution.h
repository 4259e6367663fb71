// Shared harness for the attribution benches (ISSUE 4 tentpole part 4).
//
// Runs a span-traced simulated workload and rolls the span trees into an
// obs::Profile, turning the paper's qualitative "cost of configurability"
// discussion into a measured per-micro-protocol table.  Span timestamps use
// the steady clock, so even though the scenario runs under the virtual-time
// simulator, the attributed numbers are real nanoseconds.  Caveat: they are
// *elapsed* time -- a span that suspends across an await is also charged for
// whatever other fibers ran meanwhile.  Leaf handler spans (the
// micro-protocol rows) rarely suspend, so their self-time approximates CPU
// time; long-lived wrapper spans such as SynchronousCall deliberately read
// as end-to-end latency.
#pragma once

#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/config.h"
#include "core/scenario.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace ugrpc::bench {

/// Runs `calls` sequential group calls under `config` with span tracing
/// enabled and folds every site's span tree into the returned Profile.
/// `dropped` (optional) reports records the per-site rings overwrote -- a
/// non-zero value means the oldest calls' spans are missing from the numbers
/// and the capacity needs raising.
inline obs::Profile profile_config(core::Config config, int calls, std::uint64_t seed,
                                   int num_servers = 3, std::uint64_t* dropped = nullptr) {
  // Capacity sized for the workload: a fully loaded exactly-once call makes
  // a few dozen span records per site; 1<<18 leaves ample slack for the
  // default call counts.
  obs::Tracer tracer(std::size_t{1} << 18);
  core::ScenarioParams p;
  p.num_servers = num_servers;
  p.config = std::move(config);
  p.seed = seed;
  p.tracer = &tracer;
  core::Scenario s(std::move(p));
  for (int i = 0; i < calls; ++i) {
    s.run_client(0, [&](core::Client& c) -> sim::Task<> {
      core::CallResult r = co_await c.call(s.group(), OpId{1}, Buffer{});
      (void)r;
    });
  }
  if (dropped != nullptr) *dropped = tracer.total_dropped();
  obs::Profile prof;
  prof.add(tracer.spans(), tracer);
  return prof;
}

/// Writes an attribution artifact: one named Profile JSON object
/// per section (e.g. one per Fig. 1 preset), plus the measured environment.
/// Returns false (with a stderr diagnostic) when the file cannot be written.
inline bool write_attribution_json(const std::string& path, const char* bench_name,
                                   const char* description, std::uint64_t seed, int calls,
                                   const std::vector<std::pair<std::string, std::string>>& sections,
                                   const char* section_key = "presets") {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  char date[16] = "unknown";
  const std::time_t now = std::time(nullptr);
  if (std::tm tm{}; localtime_r(&now, &tm) != nullptr) {
    std::strftime(date, sizeof date, "%Y-%m-%d", &tm);
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"description\": \"%s\",\n", bench_name,
               description);
  std::fprintf(f, "  \"date\": \"%s\",\n  \"seed\": %llu,\n  \"calls\": %d,\n", date,
               static_cast<unsigned long long>(seed), calls);
  std::fprintf(f, "  \"units\": \"nanoseconds (steady clock)\",\n");
  std::fprintf(f, "  \"environment\": %s,\n  \"%s\": {\n", env_json().c_str(), section_key);
  for (std::size_t i = 0; i < sections.size(); ++i) {
    std::fprintf(f, "    \"%s\": %s%s\n", sections[i].first.c_str(), sections[i].second.c_str(),
                 i + 1 < sections.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace ugrpc::bench
