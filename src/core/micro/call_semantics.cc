#include "core/micro/call_semantics.h"

namespace ugrpc::core {

namespace {

/// Shared wait-and-collect path: P on the call's semaphore, copy results and
/// status into the user message, drop the record.  One fiber collects a
/// call; a concurrent second request returns WAITING at once.
sim::Task<> await_completion(GrpcState& state, runtime::EventContext& ctx) {
  UserMessage& umsg = ctx.arg_as<UserMessage>();
  ClientRecord* rec = state.find_client(umsg.id);
  if (rec == nullptr || rec->collecting) co_return;  // unknown, collected or being collected
  rec->collecting = true;
  co_await rec->sem.acquire();
  auto it = state.pRPC.find(umsg.id);
  UGRPC_ASSERT(it != state.pRPC.end() && "only the collector erases a record");
  umsg.args = std::move(it->second.args);
  umsg.status = it->second.status;
  state.pRPC.erase(it);
}

}  // namespace

void SynchronousCall::start(runtime::Framework& fw) {
  // Default (lowest) priority: runs after RPC Main has created the record
  // and sent the call, exactly as in the paper.
  fw.register_handler(kCallFromUser, "SynchronousCall.call_from_user",
                      [this](runtime::EventContext& ctx) { return await_completion(state_, ctx); });
}

void AsynchronousCall::start(runtime::Framework& fw) {
  fw.register_handler(kRequestFromUser, "AsynchronousCall.request_from_user",
                      [this](runtime::EventContext& ctx) { return await_completion(state_, ctx); });
}

}  // namespace ugrpc::core
