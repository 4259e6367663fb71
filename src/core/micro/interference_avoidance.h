// Interference Avoidance micro-protocol (paper section 4.4.7).
//
// Prevents orphan computations (calls from a crashed client incarnation)
// from interfering with the recovered client's new calls, without killing
// them: calls are partitioned into generations by the client's incarnation
// number, and a call of a new incarnation is admitted only after every
// pending call of the old incarnation has finished.  Arrivals from the new
// incarnation are dropped while old calls drain -- Reliable Communication's
// retransmissions deliver them again later.  Once a new incarnation has
// been seen, no further old-incarnation calls are started (starvation
// avoidance: the generation gate is latched to "blocked" via kBlocked).
#pragma once

#include <limits>
#include <unordered_map>

#include "core/events.h"
#include "core/grpc_state.h"
#include "runtime/micro_protocol.h"

namespace ugrpc::core {

class InterferenceAvoidance : public runtime::MicroProtocol {
 public:
  explicit InterferenceAvoidance(GrpcState& state)
      : MicroProtocol("Interference Avoidance"), state_(state) {}

  void start(runtime::Framework& fw) override;

 private:
  /// Gate value meaning "draining the old generation; admit nothing".
  static constexpr Incarnation kBlocked = std::numeric_limits<Incarnation>::max();

  void call_from_net(runtime::EventContext& ctx);
  void handle_reply(runtime::EventContext& ctx);

  struct ClientInfo {
    Incarnation inc = 0;       ///< incarnation currently admitted (or kBlocked)
    int count = 0;             ///< calls of the admitted incarnation in progress
    Incarnation next_inc = 0;  ///< incarnation to admit once drained
  };

  GrpcState& state_;
  std::unordered_map<ProcessId, ClientInfo> cinfo_;
};

}  // namespace ugrpc::core
