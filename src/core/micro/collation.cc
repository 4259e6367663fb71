#include "core/micro/collation.h"

#include "core/priorities.h"

namespace ugrpc::core {

void Collation::start(runtime::Framework& fw) {
  fw.register_handler(kNewRpcCall, "Collation.handle_new_call", kPrioNewCollation,
                      [this](runtime::EventContext& ctx) {
                        ctx.arg_as<ClientRecord>().args = init_;
                      });
  fw.register_handler(kReplyFromNetwork, "Collation.reply_from_net", kPrioNetCollation,
                      [this](runtime::EventContext& ctx) {
                        const auto& msg = ctx.arg_as<net::NetMessage>();
                        ClientRecord* rec = state_.find_client(msg.id);
                        if (rec == nullptr) return;
                        const PendingServer* ps = rec->pending_for(msg.sender);
                        // Fold only first responses from known group members
                        // (Acceptance marks them `done` right after us).
                        if (ps == nullptr || ps->done) return;
                        rec->args = fn_(rec->args, msg.args);
                      });
}

}  // namespace ugrpc::core
