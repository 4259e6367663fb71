// Bounded Termination micro-protocol (paper section 4.4.3).
//
// Guarantees that every call returns to the client within `timebound`: when
// the deadline fires and the call is still WAITING, its status becomes
// TIMEOUT and the blocked client thread is released.  (Deviation from the
// paper's pseudocode, which V's unconditionally: we only time out calls
// still WAITING, so a call that completed but whose thread has not yet run
// does not get a spurious second V.)
//
// One timer for every call: the bound is uniform and ids ascend in issue
// order within an incarnation, so pRPC's first WAITING call has the first
// deadline (ClientRecord::issued_at + timebound).  The timer is armed for
// it; when it fires, every waiting call past its deadline times out and the
// timer is re-armed for the next waiting call.  Nothing is armed while no
// call waits, and a call that completes in time costs no timer of its own.
//
// Deadlines are read from the transport's clock, the one timers are armed
// on.  Over UDP the executor's clock lags it by up to one poll wait (a
// delivery fiber runs at the value from before the poll), so a deadline read
// from the executor would come early by that lag and the timer armed for it
// would end calls before their bound.
#pragma once

#include "core/events.h"
#include "core/grpc_state.h"
#include "runtime/micro_protocol.h"
#include "sim/time.h"

namespace ugrpc::core {

class BoundedTermination : public runtime::MicroProtocol {
 public:
  BoundedTermination(GrpcState& state, sim::Duration timebound)
      : MicroProtocol("Bounded Termination"), state_(state), timebound_(timebound) {}

  void start(runtime::Framework& fw) override;

 private:
  /// Times out every waiting call past its deadline; re-arms for the next.
  void expire_and_rearm();
  void arm_timer(const ClientRecord& rec);

  GrpcState& state_;
  runtime::Framework* fw_ = nullptr;
  sim::Duration timebound_;
  bool armed_ = false;
};

}  // namespace ugrpc::core
