// Serial Execution micro-protocol (paper section 4.4.5).
//
// Ensures the server processes calls one at a time, which Atomic Execution's
// checkpoint-per-call technique requires.
//
// Placement of the P(serial) (deviation, see priorities.h note 2): the paper
// acquires the token in a MSG_FROM_NETWORK handler, i.e. at *arrival* time.
// When an ordering micro-protocol holds a call back, arrival-time
// acquisition deadlocks: the held call owns the token while the call that
// must execute first blocks on it.  We therefore acquire the token on
// EXECUTE_CALL, which RPC Main triggers immediately before invoking the
// procedure -- equivalent when execution is immediate, correct when it is
// deferred.  The token is released on REPLY_FROM_SERVER after Atomic
// Execution's checkpoint; a held call released behind this one waits for it
// here, in a fiber of its own (GrpcState::release).
//
// The current holder's fiber is tracked so Terminate Orphan can release the
// token when it kills a thread that is mid-execution (the paper V's
// unconditionally per killed thread, which can over-release when the victim
// was still blocked waiting for the token).
#pragma once

#include "core/events.h"
#include "core/grpc_state.h"
#include "runtime/micro_protocol.h"

namespace ugrpc::core {

class SerialExecution : public runtime::MicroProtocol {
 public:
  explicit SerialExecution(GrpcState& state)
      : MicroProtocol("Serial Execution"), state_(state) {}

  void start(runtime::Framework& fw) override;

 private:
  GrpcState& state_;
};

}  // namespace ugrpc::core
