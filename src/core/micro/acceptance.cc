#include "core/micro/acceptance.h"

#include <algorithm>

#include "core/priorities.h"

namespace ugrpc::core {

void Acceptance::start(runtime::Framework& fw) {
  fw.register_handler(kNewRpcCall, "Acceptance.handle_new_call", kPrioNewAcceptance,
                      [this](runtime::EventContext& ctx) { return handle_new_call(ctx); });
  fw.register_handler(kReplyFromNetwork, "Acceptance.reply_from_net", kPrioNetAcceptance,
                      [this](runtime::EventContext& ctx) { return reply_from_net(ctx); });
  fw.register_handler(kMembershipChange, "Acceptance.server_failure", kPrioMemberAcceptance,
                      [this](runtime::EventContext& ctx) { return server_failure(ctx); });
}

void Acceptance::handle_new_call(runtime::EventContext& ctx) {
  ClientRecord& rec = ctx.arg_as<ClientRecord>();
  int alive = 0;
  for (PendingServer& ps : rec.pending) {
    if (state_.members.contains(ps.server)) {
      ps.done = false;
      ++alive;
    } else {
      ps.done = true;  // known-failed members are not waited for
    }
  }
  rec.nres = std::min(limit_, alive);
}

void Acceptance::reply_from_net(runtime::EventContext& ctx) {
  const auto& msg = ctx.arg_as<net::NetMessage>();
  ClientRecord* rec = state_.find_client(msg.id);
  if (rec == nullptr) return;
  PendingServer* ps = rec->pending_for(msg.sender);
  if (ps == nullptr) return;  // reply from a non-member: ignore
  if (!ps->done) {
    ps->done = true;
    if (--rec->nres <= 0) state_.complete(*rec, Status::kOk);
  } else {
    ctx.cancel();  // duplicate reply: nothing further should process it
  }
}

void Acceptance::server_failure(runtime::EventContext& ctx) {
  const auto& ev = ctx.arg_as<MembershipEvent>();
  if (ev.change != membership::Change::kFailure) return;
  // A failed server will not respond: stop waiting for it on every pending
  // call.  Deviation from the paper, which decrements nres as if the failure
  // were a response -- under that reading a k=1 call "succeeds" with zero
  // replies as soon as any server fails.  Instead we clamp nres to the
  // number of responses still possible, which matches the paper's intent
  // for acceptance=ALL ("settle for the responses from all servers that are
  // still functioning") and keeps k-of-n waiting for k real replies while
  // k are still possible.
  for (auto& [id, rec] : state_.pRPC) {
    PendingServer* ps = rec.pending_for(ev.who);
    if (ps == nullptr || ps->done) continue;
    ps->done = true;
    const auto remaining =
        static_cast<int>(std::ranges::count(rec.pending, false, &PendingServer::done));
    rec.nres = std::min(rec.nres, remaining);
    if (rec.nres <= 0) state_.complete(rec, Status::kOk);
  }
}

}  // namespace ugrpc::core
