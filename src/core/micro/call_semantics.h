// Synchronous Call and Asynchronous Call micro-protocols
// (paper section 4.4.2, "User thread management").
//
// Synchronous Call blocks the calling user thread on the call's semaphore
// until Acceptance (success) or Bounded Termination (timeout) releases it,
// then copies the collated results and status back into the user message and
// removes the pRPC record.
//
// Asynchronous Call lets the issuing thread return immediately (RPC Main
// already sent the call; nothing blocks).  The user later issues a Request
// (REQUEST_FROM_USER) with the call id; it blocks until the result is available
// -- "if the result is pending, the request message returns immediately".
#pragma once

#include "core/events.h"
#include "core/grpc_state.h"
#include "runtime/micro_protocol.h"

namespace ugrpc::core {

class SynchronousCall : public runtime::MicroProtocol {
 public:
  explicit SynchronousCall(GrpcState& state)
      : MicroProtocol("Synchronous Call"), state_(state) {}

  void start(runtime::Framework& fw) override;

 private:
  GrpcState& state_;
};

class AsynchronousCall : public runtime::MicroProtocol {
 public:
  explicit AsynchronousCall(GrpcState& state)
      : MicroProtocol("Asynchronous Call"), state_(state) {}

  void start(runtime::Framework& fw) override;

 private:
  GrpcState& state_;
};

}  // namespace ugrpc::core
