// Simulated network fabric with x-kernel style demultiplexing.
//
// Processes attach to the Network and receive an Endpoint.  A packet sent to
// a process is, after fault-injection (drop / duplicate / delay), delivered
// by spawning a fiber in the destination's domain that runs the handler the
// destination registered for the packet's ProtocolId -- the x-kernel demux
// step.  Each delivered packet therefore gets its own thread of control,
// matching the paper's model where message arrival events execute in their
// own thread.
//
// Crash modelling: `set_process_up(p, false)` makes the fabric drop all
// traffic to and from p (a crashed site neither sends nor receives); the
// Site layer additionally kills p's fibers and discards its volatile state.
//
// Crash-edge semantics (pinned by tests/net/crash_edge_test.cc):
//  * packets in flight when set_process_up(p, false) fires are dropped at
//    delivery time -- going down races ahead of the wire;
//  * a handler replaced between send and delivery receives the packet in
//    its *new* registration (demux happens at delivery, not at send), while
//    a handler already executing runs to completion on the old closure;
//  * detach() invalidates the Endpoint and drops in-flight packets on
//    delivery; a subsequent attach() starts fresh (empty demux table).
//
// This fabric is normally driven through net::SimTransport; protocol layers
// program against net::Transport and never name Network directly.
#pragma once

#include <map>
#include <unordered_map>
#include <vector>

#include "common/buffer.h"
#include "common/ids.h"
#include "common/rate_limited_log.h"
#include "net/fault.h"
#include "net/transport.h"
#include "obs/trace.h"
#include "sim/rng.h"
#include "sim/scheduler.h"
#include "sim/task.h"

namespace ugrpc::net {

class Network {
 public:
  explicit Network(sim::Scheduler& sched);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Attaches a process; `domain` is the scheduler domain its delivery
  /// fibers run in (killed when the site crashes).  The returned reference
  /// stays valid until the process is detached (never, for the common case
  /// of sites that crash via set_process_up but stay attached).
  Endpoint& attach(ProcessId process, DomainId domain);

  /// Removes an attachment; in-flight packets to the process are dropped at
  /// delivery time.  No-op for a process that is not attached.
  void detach(ProcessId process);

  /// Faults applied to links without a per-link override.
  void set_default_faults(const FaultSpec& spec) { default_faults_ = spec; }
  /// Per-link override; creates the override (copied from the default) on
  /// first use.  Mutations apply to packets sent afterwards.
  FaultSpec& link(ProcessId from, ProcessId to);

  /// Marks a process up/down.  Down processes neither send nor receive.
  void set_process_up(ProcessId process, bool up);
  [[nodiscard]] bool process_up(ProcessId process) const;

  // ---- groups ----
  void define_group(GroupId group, std::vector<ProcessId> members);
  [[nodiscard]] const std::vector<ProcessId>& group_members(GroupId group) const;
  [[nodiscard]] bool has_group(GroupId group) const { return groups_.contains(group); }

  // ---- observability ----

  /// Attaches the fabric to a trace collector: transmissions record
  /// kMsgSent/kMsgDropped/kMsgDuplicated/kMsgUnroutable on the sender's ring
  /// and deliveries record kMsgDelivered (or kMsgDropped for in-flight
  /// losses) on the receiver's, each with the peer and protocol id.  nullptr
  /// (default) disables recording.
  void set_tracer(obs::Tracer* tracer) { obs_ = tracer; }

  // ---- counters (for benches and tests) ----

  using Stats = net::Stats;
  [[nodiscard]] const Stats& stats() const { return stats_; }
  void reset_stats() {
    stats_ = {};
    link_stats_.clear();
    unroutable_log_.clear();
  }

  /// Per-link (ordered from->to pair) counters.  `sent`/`dropped`/
  /// `duplicated`/`bytes_sent` are stamped at transmission time,
  /// `delivered`/`bytes_delivered` when the packet reaches a handler.
  struct LinkStats {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_delivered = 0;
  };
  /// Counters of the from->to link; all-zero for a link never used.
  [[nodiscard]] LinkStats link_stats(ProcessId from, ProcessId to) const;

  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }

 private:
  /// The simulator's attachment point: send/multicast feed the fault
  /// injection pipeline of the owning Network.
  class SimEndpoint final : public Endpoint {
   public:
    SimEndpoint(Network& net, ProcessId process, DomainId domain)
        : Endpoint(process, domain), net_(&net) {}

    void send(ProcessId dst, ProtocolId proto, Buffer payload) override {
      net_->transmit(process(), dst, proto, payload);
    }
    void multicast(GroupId group, ProtocolId proto, Buffer payload) override {
      net_->multicast_from(process(), group, proto, payload);
    }

   private:
    Network* net_;
  };

  void transmit(ProcessId from, ProcessId to, ProtocolId proto, const Buffer& payload);
  void multicast_from(ProcessId from, GroupId group, ProtocolId proto, const Buffer& payload);
  void schedule_delivery(Packet packet, sim::Duration delay);
  [[nodiscard]] const FaultSpec& faults_for(ProcessId from, ProcessId to) const;

  sim::Scheduler& sched_;
  sim::Rng rng_;
  FaultSpec default_faults_;
  std::map<std::pair<ProcessId, ProcessId>, FaultSpec> link_faults_;
  std::unordered_map<ProcessId, SimEndpoint> endpoints_;
  std::unordered_map<ProcessId, bool> up_;
  std::unordered_map<GroupId, std::vector<ProcessId>> groups_;
  Stats stats_;
  std::map<std::pair<ProcessId, ProcessId>, LinkStats> link_stats_;
  obs::Tracer* obs_ = nullptr;

  /// Unroutable-destination warnings rate-limited per key (link or
  /// (sender, group)), exact counts; stats_.unroutable stays exact
  /// regardless.  See common/rate_limited_log.h for the shared policy.
  RateLimitedLog unroutable_log_;
};

}  // namespace ugrpc::net
