#include "core/micro/terminate_orphan.h"

#include "common/log.h"
#include "core/priorities.h"

namespace ugrpc::core {

void TerminateOrphan::start(runtime::Framework& fw) {
  fw.register_handler(kExecuteCall, "TermOrphan.execute_call", kPrioExecOrphan,
                      [this](runtime::EventContext& ctx) {
                        const auto& rec = ctx.arg_as<ServerRecord>();
                        cinfo_[rec.client].threads[state_.sched.current_fiber()] = {
                            rec.id, rec.arrival};
                      });
  fw.register_handler(kCallFromNetwork, "TermOrphan.call_from_net", kPrioNetOrphan,
                      [this](runtime::EventContext& ctx) { return call_from_net(ctx); });
  fw.register_handler(kReplyFromServer, "TermOrphan.handle_reply", kPrioReplyOrphan,
                      [this](runtime::EventContext& ctx) { return handle_reply(ctx); });
  // Probing-based detection (paper's second approach): the membership
  // service heartbeats clients; a client declared failed has only orphans.
  fw.register_handler(kMembershipChange, "TermOrphan.client_failure", kPrioMemberOrphan,
                      [this](runtime::EventContext& ctx) { return client_failure(ctx); });
}

void TerminateOrphan::kill_threads(ProcessId client, ClientInfo& info) {
  for (const auto& [th, call] : info.threads) {
    UGRPC_ASSERT(th != state_.sched.current_fiber());
    if (state_.serial_holder == th) {
      // The victim holds the serial token; free it or the server wedges.
      state_.serial_holder.reset();
      state_.serial.release();
    }
    state_.sched.kill(th);
    auto row = state_.sRPC.find(call.first);  // its end would have erased the row
    if (row != state_.sRPC.end() && row->second.arrival == call.second) state_.sRPC.erase(row);
    state_.note(obs::Kind::kOrphanKilled, 0, client.value(), th.value());
  }
  info.threads.clear();
}

void TerminateOrphan::client_failure(runtime::EventContext& ctx) {
  const auto& ev = ctx.arg_as<MembershipEvent>();
  if (ev.change != membership::Change::kFailure) return;
  auto it = cinfo_.find(ev.who);
  if (it == cinfo_.end()) return;
  if (!it->second.threads.empty()) {
    UGRPC_LOG(kDebug, "orphan@%u: probing detected death of client %u, killing %zu thread(s)",
              state_.my_id.value(), ev.who.value(), it->second.threads.size());
    kill_threads(ev.who, it->second);
  }
}

void TerminateOrphan::call_from_net(runtime::EventContext& ctx) {
  const auto& msg = ctx.arg_as<net::NetMessage>();
  auto [it, inserted] = cinfo_.try_emplace(msg.sender, ClientInfo{msg.inc, {}});
  ClientInfo& info = it->second;
  if (info.inc > msg.inc) {
    ctx.cancel();  // request from a dead incarnation
    return;
  }
  if (info.inc < msg.inc) {
    // Newer incarnation: the previous one is dead, its threads are orphans.
    UGRPC_LOG(kDebug, "orphan@%u: new incarnation of client %u, killing %zu thread(s)",
              state_.my_id.value(), msg.sender.value(), info.threads.size());
    kill_threads(msg.sender, info);
    info.inc = msg.inc;
  }
}

void TerminateOrphan::handle_reply(runtime::EventContext& ctx) {
  auto it = cinfo_.find(ctx.arg_as<ServerRecord>().client);
  if (it != cinfo_.end()) it->second.threads.erase(state_.sched.current_fiber());
}

}  // namespace ugrpc::core
