// config_explorer: command-line explorer of the configuration space.
//
//   config_explorer                  summary: space size and usage
//   config_explorer list             all 198 valid configurations
//   config_explorer graph            the Figure 2 property graph
//   config_explorer check TEXT       validate a configuration and, if valid,
//                                    build it and show its composite
//
// TEXT is a Config::describe() line, as `list` prints, or any of its
// '|'-separated tokens: a field left out keeps its default.  `check` exits
// 0 when the configuration is valid and its smoke call succeeds, 1 when it
// violates a rule (each Rule is listed) and 2 when TEXT does not parse (the
// offending token is named).
//
// Example:
//   config_explorer check 'reliable=50ms|unique|total'
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/micro/acceptance.h"
#include "core/properties.h"
#include "core/scenario.h"

using namespace ugrpc;
using namespace ugrpc::core;

namespace {

void print_summary() {
  const ConfigSpace space = config_space();
  std::printf("configurable group RPC services: %d (= %d call x %d orphan x %d execution x %d "
              "comm/order combos)\n",
              space.total, space.call_variants, space.orphan_variants, space.execution_variants,
              space.comm_combinations);
  std::printf("\nusage: config_explorer [list | graph | check TEXT]\n"
              "TEXT: a line of `list`, or some of its '|'-separated tokens\n");
}

void print_list() {
  int i = 0;
  for (const Config& c : enumerate_valid_configs()) {
    std::printf("%3d  %s\n", ++i, c.describe().c_str());
  }
}

void print_graph() {
  std::printf("property dependency graph (paper Figure 2):\n");
  for (const PropertyEdge& e : property_edges()) {
    std::printf("  %-26s -> %s\n", std::string(to_string(e.from)).c_str(),
                std::string(to_string(e.to)).c_str());
  }
}

int check(const char* text) {
  // The text sets the Config aggregate directly: an invalid combination is
  // described and its violated rules listed, which a ConfigBuilder (whose
  // build() throws) would not hand out.
  std::string bad_token;
  const std::optional<Config> parsed = Config::parse(text, &bad_token);
  if (!parsed) {
    std::fprintf(stderr, "config_explorer: bad token '%s' in '%s'\n", bad_token.c_str(), text);
    return 2;
  }
  const Config& config = *parsed;
  std::printf("configuration: %s\n", config.describe().c_str());
  if (const std::vector<ValidationError> errors = validate(config); !errors.empty()) {
    std::printf("INVALID -- violated dependencies (paper Figure 4):\n");
    for (const ValidationError& e : errors) {
      std::printf("  %-42s %s\n", e.rule.c_str(), e.message.c_str());
    }
    return 1;
  }
  std::printf("valid.  building a live composite...\n\n");
  ScenarioParams p;
  p.num_servers = 3;
  p.config = config;
  Scenario s(std::move(p));
  GrpcComposite& composite = s.server(0).grpc();
  std::printf("micro-protocols:\n");
  for (const std::string& name : composite.micro_protocol_names()) {
    std::printf("  - %s\n", name.c_str());
  }
  std::printf("\nevent handler chains:\n");
  std::string last_event;
  for (const auto& reg : composite.framework().registrations()) {
    if (reg.event != last_event) {
      std::printf("  %s:\n", reg.event.c_str());
      last_event = reg.event;
    }
    std::printf("      %s\n", reg.handler.c_str());
  }
  // Prove it works: one call end to end.
  CallResult result;
  if (config.call == CallSemantics::kSynchronous) {
    s.run_client(0, [&](Client& c) -> sim::Task<> {
      result = co_await c.call(s.group(), OpId{1}, Buffer{});
    }, sim::seconds(30));
  } else {
    s.run_client(0, [&](Client& c) -> sim::Task<> {
      CallHandle handle = co_await c.call_async(s.group(), OpId{1}, Buffer{});
      result = co_await handle.get();
    }, sim::seconds(30));
  }
  std::printf("\nsmoke call: %s\n", std::string(to_string(result.status)).c_str());
  return result.status == Status::kOk ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_summary();
    return 0;
  }
  const std::string cmd = argv[1];
  if (cmd == "list") {
    print_list();
    return 0;
  }
  if (cmd == "graph") {
    print_graph();
    return 0;
  }
  if (cmd == "check" && argc == 3) return check(argv[2]);
  print_summary();
  return 2;
}
