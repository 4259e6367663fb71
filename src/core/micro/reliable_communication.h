// Reliable Communication micro-protocol (paper section 4.4.3).
//
// Implements the standard retransmit-until-acknowledged scheme on the client
// side: a call is retransmitted to each group member that has neither
// replied nor acknowledged it once the call's copy to that member is older
// than the member's retransmission timeout.  Only a Reply counts as an
// acknowledgement: servers send no call-receipt ACKs, and the ACKs of
// net/message.h flow the other way (client to server, releasing stored
// results below the client's low watermark).  Combined with RPC Main this
// gives unbounded termination: "the client side keeps on trying until it
// gets a response".
//
// Adaptive timeout (Jacobson/Karels, RFC 6298): each peer has a smoothed
// round trip SRTT and its variation RTTVAR, sampled from the Reply to a call
// sent to that peer only once (Karn's rule: a reply to a retransmitted call
// could answer any of its copies).  RTO = SRTT + max(G, 4 * RTTVAR), where G
// (kClockGranularity) is a 1 ms floor on the variation term.  Each
// pending copy records its last send time and retry count (PendingServer),
// and its timeout is RTO doubled per retry.  `retrans_timeout` is both the
// RTO before a peer's first sample and the ceiling of every timeout, so loss
// recovery is never slower than a fixed `retrans_timeout` timer.
//
// Timer: one timeout stays armed, at the earliest deadline of any pending
// copy (armed only while calls are pending, so an idle client quiesces).  A
// new call re-arms it only if its deadline comes earlier, or if the call the
// timer waits for has completed meanwhile (so a client whose calls finish
// within the RTO does not pay a timer fire per call).  When the timer fires
// it resends just the copies whose deadline has passed.  Each retransmitted
// Call carries the client's current low watermark W in its ackid, as the
// original Call did (grpc_state.h), so a retransmission also releases the
// server's stored results below W.
#pragma once

#include <map>
#include <optional>

#include "core/events.h"
#include "core/grpc_state.h"
#include "runtime/micro_protocol.h"
#include "sim/time.h"

namespace ugrpc::core {

class ReliableCommunication : public runtime::MicroProtocol {
 public:
  /// G in the RTO formula.  Over UDP a timer fires when the host wakes the
  /// poll loop, late by the host's wake-up jitter (timer slack, scheduling
  /// delay), and a Reply is read just as late; with RTTVAR near zero on a
  /// quiet loopback, an RTO without this floor would retransmit on that
  /// jitter alone.  The simulator's message flow depends on its value too.
  static constexpr sim::Duration kClockGranularity = sim::msec(1);

  /// A peer's round-trip estimate (RFC 6298 state).
  struct RttEstimate {
    sim::Duration srtt = 0;
    sim::Duration rttvar = 0;
    std::uint64_t samples = 0;
  };

  ReliableCommunication(GrpcState& state, sim::Duration retrans_timeout)
      : MicroProtocol("Reliable Communication"), state_(state),
        retrans_timeout_(retrans_timeout) {}

  void start(runtime::Framework& fw) override;

  /// Total retransmissions performed (observability for tests/benches).
  [[nodiscard]] std::uint64_t retransmissions() const { return retransmissions_; }
  /// `peer`'s round-trip estimate; nullopt before its first sample.
  [[nodiscard]] std::optional<RttEstimate> rtt(ProcessId peer) const;
  /// Timeout of a first transmission to `peer`.
  [[nodiscard]] sim::Duration rto(ProcessId peer) const;

 private:
  void sample_rtt(ProcessId peer, sim::Duration r);
  /// When the copy `ps` is due for retransmission.
  [[nodiscard]] sim::Time deadline(const PendingServer& ps) const;
  /// The earliest deadline of `rec`'s unacknowledged copies.
  [[nodiscard]] sim::Time first_deadline(const ClientRecord& rec) const;
  /// Arms the timer at `call`'s deadline `at` unless it is already armed no
  /// later.
  void arm_timer(sim::Time at, CallId call);
  /// Arms the timer at the earliest deadline of any pending call.
  void arm_earliest();
  /// Resends every copy whose deadline has passed, then re-arms.
  void resend_due();

  GrpcState& state_;
  runtime::Framework* fw_ = nullptr;
  sim::Duration retrans_timeout_;
  std::map<ProcessId, RttEstimate> peers_;
  bool armed_ = false;
  sim::Time armed_at_ = 0;
  CallId armed_for_{};  ///< the call whose deadline the timer is armed at
  TimerId timer_{};
  std::uint64_t retransmissions_ = 0;
};

}  // namespace ugrpc::core
