// Scenario: a ready-made client/server-group testbed.
//
// Wires a Scheduler, a Network with configurable faults, `num_servers`
// server sites forming one group, and `num_clients` client sites, all
// running the same gRPC configuration.  Used by the integration tests, the
// examples and the benchmark harnesses; it is part of the library because a
// downstream user evaluating a configuration wants exactly this scaffolding.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/config.h"
#include "core/config_builder.h"
#include "core/service.h"
#include "core/site.h"
#include "net/network.h"
#include "sim/scheduler.h"

namespace ugrpc::core {

struct ScenarioParams {
  int num_servers = 3;
  int num_clients = 1;
  /// Defaults to the builder's (validated) base configuration.
  Config config = ConfigBuilder().build();
  net::FaultSpec faults;  ///< default link faults for every pair
  std::uint64_t seed = 1;
  /// Per-server application setup; default echoes args back unchanged.
  Site::AppSetup server_app;
  /// Optional trace collector (must outlive the scenario), set on the
  /// Network before any site attaches: every site -- servers and clients,
  /// their stacks and their traffic -- records into it.
  obs::Tracer* tracer = nullptr;
};

class Scenario {
 public:
  explicit Scenario(ScenarioParams params);

  /// The server group every client calls: the configuration's group.
  [[nodiscard]] GroupId group() const { return params_.config.group; }

  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }
  [[nodiscard]] net::Network& network() { return net_; }
  [[nodiscard]] net::Transport& transport() { return net_; }
  [[nodiscard]] Site& server(int i) { return *servers_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] Site& client_site(int i) { return *clients_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] Client& client(int i = 0) { return *client_handles_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] int num_servers() const { return static_cast<int>(servers_.size()); }
  [[nodiscard]] int num_clients() const { return static_cast<int>(clients_.size()); }

  /// Runs `fn` as a fiber in client i's domain and drives the simulation
  /// until the fiber finishes (then drains same-timestamp work) or
  /// `deadline` of virtual time passes -- periodic protocol timers such as
  /// membership heartbeats never quiesce, so an unbounded run() would hang.
  void run_client(int i, std::function<sim::Task<>(Client&)> fn,
                  sim::Duration deadline = sim::seconds(300));
  void run_until_quiescent() { sched_.run(); }
  void run_for(sim::Duration d) { sched_.run_for(d); }

  /// Sum of server-procedure executions across the group (Fig. 1 metric).
  [[nodiscard]] std::uint64_t total_server_executions() const;

  /// Process ids: servers are 1..num_servers, clients follow.
  [[nodiscard]] static ProcessId server_id(int i) {
    return ProcessId{static_cast<std::uint32_t>(i + 1)};
  }
  [[nodiscard]] ProcessId client_id(int i) const {
    return ProcessId{static_cast<std::uint32_t>(num_servers() + i + 1)};
  }

 private:
  ScenarioParams params_;
  sim::Scheduler sched_;
  net::Network net_;
  std::vector<std::unique_ptr<Site>> servers_;
  std::vector<std::unique_ptr<Site>> clients_;
  std::vector<std::unique_ptr<Client>> client_handles_;
};

/// A server application that echoes the request back (the default).
void echo_app(UserProtocol& user, Site& site);

}  // namespace ugrpc::core
