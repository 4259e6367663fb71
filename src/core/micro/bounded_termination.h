// Bounded Termination micro-protocol (paper section 4.4.3).
//
// Guarantees that every call returns to the client within `timebound`: when
// the deadline fires and the call is still WAITING, its status becomes
// TIMEOUT and the blocked client thread is released.  (Deviation from the
// paper's pseudocode, which V's unconditionally: we only time out calls
// still WAITING, so a call that completed but whose thread has not yet run
// does not get a spurious second V.)
//
// Timer coalescing: the paper's pseudocode effectively keeps one timer per
// outstanding call.  Because the bound is uniform, deadlines expire in call
// order, so a FIFO queue of (deadline, id) drained by a single armed timer is
// equivalent and keeps the timer population O(1) instead of O(calls).
//
// Deadlines are read from the transport's clock, the one timers are armed
// on.  Over UDP the executor's clock lags it by up to one poll wait (a
// delivery fiber runs at the value from before the poll), so a deadline read
// from the executor would come early by that lag and the timer armed for it
// would end calls before their bound.
#pragma once

#include <deque>
#include <utility>

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
  void drain_expired();
  void arm_timer();

  GrpcState& state_;
  runtime::Framework* fw_ = nullptr;
  sim::Duration timebound_;
  /// FIFO of (deadline, call) pairs; front expires first (uniform bound).
  std::deque<std::pair<sim::Time, CallId>> deadlines_;
  bool armed_ = false;
};

}  // namespace ugrpc::core
