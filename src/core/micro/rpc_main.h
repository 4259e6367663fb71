// RPC Main micro-protocol (paper section 4.4.1).
//
// Handles the main control flow on both sides: stores client calls in pRPC
// and sends them to the server group; stores incoming calls in sRPC and,
// once every configured HOLD gate is satisfied, executes the server
// procedure via forward_up() and returns the Reply.  It does not block user
// threads (that is Synchronous/Asynchronous Call's job).
#pragma once

#include "core/events.h"
#include "core/grpc_state.h"
#include "runtime/micro_protocol.h"

namespace ugrpc::core {

class RpcMain : public runtime::MicroProtocol {
 public:
  explicit RpcMain(GrpcState& state) : MicroProtocol("RPC Main"), state_(state) {}

  void start(runtime::Framework& fw) override;

  /// Marks gate `index` satisfied for call `id`; if the call's hold array
  /// now matches the composite's HOLD array, triggers EXECUTE_CALL, invokes
  /// the server procedure, triggers REPLY_FROM_SERVER and sends the Reply.  A gate already open for the row's arrival stays as it is.
  /// Exported (paper: "exported procedure forward_up"); see GrpcState.
  [[nodiscard]] sim::Task<> forward_up(CallId id, HoldIndex index);

 private:
  [[nodiscard]] sim::Task<> call_from_net(runtime::EventContext& ctx);
  [[nodiscard]] sim::Task<> call_from_user(runtime::EventContext& ctx);

  GrpcState& state_;
  runtime::Framework* fw_ = nullptr;
};

}  // namespace ugrpc::core
