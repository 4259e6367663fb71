// Acceptance micro-protocol (paper section 4.4.5).
//
// Implements the acceptance semantics of group RPC: a call is accepted once
// `acceptance_limit` members of the server group have executed it
// successfully.  At call creation, the number of required responses is
// min(limit, live members of the group); if a membership service is
// configured, the failure of a pending server also counts it out, so "the
// client might not want to wait for recovery, but is willing to settle for
// the responses from all servers that are still functioning".  Without a
// membership service the member set stays constant (paper behaviour).
//
// Use kAll as the limit to require a response from every group member.
#pragma once

#include <limits>

#include "core/events.h"
#include "core/grpc_state.h"
#include "runtime/micro_protocol.h"

namespace ugrpc::core {

/// Sentinel acceptance limit: every (live) member must respond.
inline constexpr int kAll = std::numeric_limits<int>::max();

class Acceptance : public runtime::MicroProtocol {
 public:
  Acceptance(GrpcState& state, int acceptance_limit)
      : MicroProtocol("Acceptance"), state_(state), limit_(acceptance_limit) {}

  void start(runtime::Framework& fw) override;

 private:
  void handle_new_call(runtime::EventContext& ctx);
  void reply_from_net(runtime::EventContext& ctx);
  void server_failure(runtime::EventContext& ctx);

  GrpcState& state_;
  int limit_;
};

}  // namespace ugrpc::core
