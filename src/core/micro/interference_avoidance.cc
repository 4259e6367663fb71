#include "core/micro/interference_avoidance.h"

#include "core/priorities.h"

namespace ugrpc::core {

void InterferenceAvoidance::start(runtime::Framework& fw) {
  fw.register_handler(kCallFromNetwork, "InterfAvoid.call_from_net", kPrioNetOrphan,
                      [this](runtime::EventContext& ctx) { return call_from_net(ctx); });
  fw.register_handler(kReplyFromServer, "InterfAvoid.handle_reply", kPrioReplyOrphan,
                      [this](runtime::EventContext& ctx) { return handle_reply(ctx); });
}

void InterferenceAvoidance::call_from_net(runtime::EventContext& ctx) {
  const auto& msg = ctx.arg_as<net::NetMessage>();
  auto [it, inserted] = cinfo_.try_emplace(msg.sender, ClientInfo{msg.inc, 0, msg.inc});
  ClientInfo& info = it->second;
  if (info.inc != kBlocked && info.inc > msg.inc) {
    // An orphaned request from a dead incarnation: drop permanently.
    ctx.cancel();
    return;
  }
  if (info.inc != kBlocked && info.inc < msg.inc) {
    // First sight of a new incarnation: latch the gate shut so no more old
    // calls start, and open for the new generation once drained.
    info.next_inc = msg.inc;
    info.inc = (info.count == 0) ? msg.inc : kBlocked;
  }
  if (info.inc == msg.inc) {
    ++info.count;  // admitted
  } else {
    // Draining: defer this call; the client's retransmissions will deliver
    // it again once the old generation has finished.  (The paper's
    // pseudocode omits this cancel and would let the first new-incarnation
    // arrival through; see DESIGN.md.)
    state_.note(obs::Kind::kCallDeferred, msg.id.value(), msg.sender.value());
    ctx.cancel();
  }
}

void InterferenceAvoidance::handle_reply(runtime::EventContext& ctx) {
  auto it = cinfo_.find(ctx.arg_as<ServerRecord>().client);
  if (it == cinfo_.end()) return;
  ClientInfo& info = it->second;
  if (info.count > 0) --info.count;
  if (info.count == 0 && info.inc == kBlocked) {
    info.inc = info.next_inc;  // old generation drained: admit the new one
  }
}

}  // namespace ugrpc::core
