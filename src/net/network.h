// The simulator's wire: the net::Transport of a deterministic experiment.
//
// Processes attach to the Network and receive an Endpoint.  Transport
// (transport.h) does everything above the wire: routing, group fan-out,
// demux at arrival, the delivery fiber, Stats and the trace records; its
// clock, timers and fibers are the sim::Scheduler's, in virtual time.  What
// is simulated here is only the wire itself: each copy of a send draws its
// fate from the link's FaultSpec -- dropped, or delivered after a random
// delay, possibly twice -- and arrives as a scheduled event.  A destination
// is routable when it is attached.
//
// Crash modelling: `set_process_up(p, false)` makes the transport drop all
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
// Trace records of a send: kMsgSent opens the send span, or kMsgDropped
// opens a flagged one when the link loses the copy; kMsgDuplicated marks a
// manufactured second copy, whose delivery span is flagged.
//
// Fault injection is set on the Network itself; protocol layers take it as
// a net::Transport& and never name Network directly.
//
// A packet in flight waits in a slot of the Network (common/slot_table.h),
// and its delivery timer's callback names only the Network and the slot,
// so it fits std::function's local buffer: sending a copy allocates
// nothing once the slots have grown to the peak number in flight.
#pragma once

#include <map>
#include <utility>

#include "common/ids.h"
#include "common/slot_table.h"
#include "net/fault.h"
#include "net/transport.h"
#include "sim/rng.h"
#include "sim/scheduler.h"

namespace ugrpc::net {

class Network final : public Transport {
 public:
  explicit Network(sim::Scheduler& sched);

  /// Faults applied to links without a per-link override.
  void set_default_faults(const FaultSpec& spec) { default_faults_ = spec; }
  /// Per-link override; creates the override (copied from the default) on
  /// first use.  Mutations apply to packets sent afterwards.
  FaultSpec& link(ProcessId from, ProcessId to);

  /// Packet slots ever used: the peak number of packets in flight at once.
  [[nodiscard]] std::size_t in_flight_slot_count() const { return in_flight_.slot_count(); }

 private:
  [[nodiscard]] bool routable(ProcessId to) const override { return attached(to); }
  void transmit(const Endpoint& from, ProcessId to, ProtocolId proto, const Buffer& payload,
                obs::SpanCtx parent) override;
  void schedule_delivery(Packet packet, sim::Duration delay);
  [[nodiscard]] const FaultSpec& faults_for(ProcessId from, ProcessId to) const;

  sim::Rng rng_;
  FaultSpec default_faults_;
  std::map<std::pair<ProcessId, ProcessId>, FaultSpec> link_faults_;
  SlotTable<Packet> in_flight_;
};

}  // namespace ugrpc::net
