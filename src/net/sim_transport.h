// Transport backend over the deterministic simulated fabric.
//
// A thin forwarding layer: attachment, groups, process control and Stats go
// to net::Network (the shared Fabric over the simulated wire), and
// clock/timers/fibers go to the Network's sim::Scheduler.  Every forward is
// a single direct call, so schedules, RNG draws and timer ids are
// bit-identical to driving Network/Scheduler directly.
//
// SimTransport holds references only; several SimTransports over one fabric
// behave identically (all state lives in the Network and the Scheduler).
// Fault injection is set on the Network itself.
#pragma once

#include "net/network.h"
#include "net/transport.h"

namespace ugrpc::net {

class SimTransport final : public Transport {
 public:
  explicit SimTransport(Network& network) : net_(network), sched_(network.scheduler()) {}

  // ---- attachment ----
  Endpoint& attach(ProcessId process, DomainId domain) override {
    return net_.attach(process, domain);
  }
  void detach(ProcessId process) override { net_.detach(process); }

  // ---- groups ----
  void define_group(GroupId group, std::vector<ProcessId> members) override {
    net_.define_group(group, std::move(members));
  }
  [[nodiscard]] const std::vector<ProcessId>& group_members(GroupId group) const override {
    return net_.group_members(group);
  }

  // ---- process-up control ----
  void set_process_up(ProcessId process, bool up) override { net_.set_process_up(process, up); }
  [[nodiscard]] bool process_up(ProcessId process) const override {
    return net_.process_up(process);
  }

  // ---- clock + timers ----
  [[nodiscard]] sim::Time now() const override { return sched_.now(); }
  TimerId schedule_after(sim::Duration delay, std::function<void()> fn,
                         DomainId domain = sim::kGlobalDomain) override {
    return sched_.schedule_after(delay, std::move(fn), domain);
  }
  void cancel_timer(TimerId id) override { sched_.cancel_timer(id); }

  // ---- threads of control ----
  FiberId spawn(sim::Task<> task, DomainId domain = sim::kGlobalDomain) override {
    return sched_.spawn(std::move(task), domain);
  }
  void kill_domain(DomainId domain) override { sched_.kill_domain(domain); }
  [[nodiscard]] sim::Scheduler& executor() override { return sched_; }

  // ---- observability ----
  [[nodiscard]] const Stats& stats() const override { return net_.stats(); }

 private:
  Network& net_;
  sim::Scheduler& sched_;
};

}  // namespace ugrpc::net
