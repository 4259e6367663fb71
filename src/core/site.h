// A site: one machine running the gRPC protocol stack.
//
// Owns the durable identity of a process (ProcessId, incarnation counter,
// stable store) and its *volatile* stack (user protocol, gRPC composite,
// membership monitor), which is destroyed by crash() and rebuilt -- with a
// fresh incarnation number and a RECOVERY event -- by recover().  The
// application installs its server procedure (and, for Atomic Execution, its
// state snapshot hooks) through an AppSetup callback that runs at boot and
// after every recovery, mirroring how a real server re-initializes from
// stable storage.
//
// A Site programs exclusively against net::Transport: over the simulated
// net::Network it is one simulated machine in a deterministic experiment;
// over UdpTransport it boots on an actual host and serves group calls from
// other OS processes.
// Its crash/recovery records and every stack it builds go on its Endpoint's
// trace ring (net::Transport::set_tracer), so traces span incarnations.
#pragma once

#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "core/composite.h"
#include "core/config.h"
#include "core/user_protocol.h"
#include "membership/membership.h"
#include "net/transport.h"
#include "storage/stable_store.h"

namespace ugrpc::core {

class Site {
 public:
  /// Called at boot and after each recovery to (re)configure the
  /// application: register the server procedure, state hooks, and rebuild
  /// volatile application state from the stable store.
  using AppSetup = std::function<void(UserProtocol&, Site&)>;

  /// `known` seeds the composite's live-member set; `watch` (usually the
  /// server group plus clients of interest) is monitored when
  /// config.use_membership is set.
  Site(net::Transport& transport, ProcessId id, Config config, std::set<ProcessId> known,
       std::vector<ProcessId> watch = {});
  ~Site();

  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  void set_app(AppSetup setup) { app_setup_ = std::move(setup); }

  /// Builds the stack and brings the site up.  Call once, after set_app.
  void boot();

  /// Crash failure: kills every fiber of this site, destroys the volatile
  /// stack, goes dark on the transport.  The stable store survives.
  void crash();

  /// Recovers with the next incarnation number; rebuilds the stack, re-runs
  /// the app setup and triggers the RECOVERY event.
  void recover();

  [[nodiscard]] bool up() const { return up_; }
  [[nodiscard]] ProcessId id() const { return id_; }
  [[nodiscard]] DomainId domain() const { return DomainId{id_.value()}; }
  [[nodiscard]] Incarnation incarnation() const { return inc_; }

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] GrpcComposite& grpc();
  [[nodiscard]] UserProtocol& user();
  [[nodiscard]] storage::StableStore& stable() { return stable_; }
  [[nodiscard]] net::Transport& transport() { return transport_; }
  /// The transport's executor; convenience for tests and experiment drivers.
  [[nodiscard]] sim::Scheduler& scheduler() { return transport_.executor(); }

  /// Cumulative server-procedure executions across all incarnations
  /// (UserProtocol::executions() resets with the volatile stack; this does
  /// not -- it is the Figure 1 observable).
  [[nodiscard]] std::uint64_t total_executions() const;

 private:
  void build_stack();
  void teardown_stack();

  net::Transport& transport_;
  ProcessId id_;
  Config config_;
  std::set<ProcessId> known_;
  std::vector<ProcessId> watch_;
  storage::StableStore stable_;
  AppSetup app_setup_;

  net::Endpoint* endpoint_ = nullptr;
  std::unique_ptr<UserProtocol> user_;
  std::unique_ptr<GrpcComposite> grpc_;
  std::unique_ptr<membership::MembershipMonitor> monitor_;
  Incarnation inc_ = 0;
  bool up_ = false;
  std::uint64_t executions_before_crashes_ = 0;
};

}  // namespace ugrpc::core
