#include "core/micro/rpc_main.h"

#include "common/log.h"
#include "core/priorities.h"
#include "core/user_protocol.h"

namespace ugrpc::core {

void RpcMain::start(runtime::Framework& fw) {
  fw_ = &fw;
  state_.HOLD[kHoldMain] = true;
  // Other micro-protocols reach forward_up through the shared state, keeping
  // them decoupled from this class.
  state_.forward_up = [this](CallId id, HoldIndex index) { return forward_up(id, index); };
  state_.domain = fw.domain();
  fw.register_handler(kCallFromNetwork, "RPCMain.call_from_net", kPrioNetMain,
                      [this](runtime::EventContext& ctx) { return call_from_net(ctx); });
  fw.register_handler(kCallFromUser, "RPCMain.call_from_user", kPrioUserMain,
                      [this](runtime::EventContext& ctx) { return call_from_user(ctx); });
  fw.register_handler(kRecovery, "RPCMain.handle_recovery", kPrioRecoveryMain,
                      [this](runtime::EventContext& ctx) {
                        state_.inc_number = ctx.arg_as<RecoveryEvent>().inc;
                      });
}

sim::Task<> RpcMain::call_from_net(runtime::EventContext& ctx) {
  auto& msg = ctx.arg_as<net::NetMessage>();
  // Overwriting any previous record for this id implements the default
  // at-least-once behaviour: without Unique Execution a retransmitted call
  // is simply executed again.
  state_.sRPC.insert_or_assign(msg.id, ServerRecord{.id = msg.id, .op = msg.op, .args = msg.args,
                                                    .server = msg.server, .client = msg.sender,
                                                    .client_inc = msg.inc,
                                                    .arrived_at = state_.transport.now(),
                                                    .arrival = ++state_.arrivals});
  co_await forward_up(msg.id, kHoldMain);
}

sim::Task<> RpcMain::forward_up(CallId id, HoldIndex index) {
  ServerRecord* row = state_.find_server(id);
  // Gone, or the gate is open already: one arrival never runs twice.
  if (row == nullptr || row->hold[index]) co_return;
  row->hold[index] = true;
  for (std::size_t i = 0; i < kHoldCount; ++i) {
    if (state_.HOLD[i] && !row->hold[i]) co_return;  // still gated
  }
  // All gates open: run EXECUTE_CALL (priorities.h note 2), then execute on
  // a copy of the row, which stays in sRPC until the end.  The exec span
  // covers the procedure through the reply's send.  A released call's fiber
  // has no trace context yet, so there the execution starts its call's trace.
  ServerRecord rec = *row;
  UGRPC_ASSERT(state_.user != nullptr && "server site has no user protocol");
  const obs::SpanCtx saved_ctx = state_.trace() ? state_.sched.ambient() : obs::SpanCtx{};
  if (state_.trace() && !saved_ctx.active()) state_.sched.set_ambient({id.value(), 0});
  co_await fw_->trigger(kExecuteCall, runtime::EventArg::ref(rec));
  const std::uint64_t exec_span =
      state_.note_open(obs::Kind::kExecStarted, state_.sched.ambient(), id.value(),
                       rec.client.value(), rec.client_inc);
  co_await state_.user->pop(rec.op, rec.args);

  co_await fw_->trigger(kReplyFromServer, runtime::EventArg::ref(rec));

  net::NetMessage reply;
  reply.type = net::MsgType::kReply;
  reply.id = rec.id;
  reply.op = rec.op;
  reply.args = rec.args;  // the procedure wrote results in place
  reply.server = rec.server;
  reply.sender = state_.my_id;
  reply.inc = state_.inc_number;
  // Erase only if the row still holds this arrival; a retransmission may
  // have replaced it meanwhile.
  auto it = state_.sRPC.find(id);
  if (it != state_.sRPC.end() && it->second.arrival == rec.arrival) state_.sRPC.erase(it);
  state_.net_push(rec.client, reply);
  state_.note(obs::Kind::kExecCommitted, id.value(), rec.client.value(), rec.client_inc, exec_span);
  if (exec_span != 0) state_.sched.set_ambient(saved_ctx);
}

sim::Task<> RpcMain::call_from_user(runtime::EventContext& ctx) {
  auto& umsg = ctx.arg_as<UserMessage>();
  const CallId id = make_call_id(state_.my_id, state_.next_seq++);
  ClientRecord& rec =
      state_.pRPC.try_emplace(id, state_.sched, id, umsg.op, umsg.args, umsg.server).first->second;
  rec.issued_at = state_.transport.now();
  const std::vector<ProcessId>& members = state_.transport.group_members(umsg.server);
  rec.pending.reserve(members.size());
  for (ProcessId p : members) rec.pending.push_back(PendingServer{.server = p});
  // kCallIssued opens the root of the call's distributed trace: the trace id
  // IS the call id (globally unique), so spans recorded by other processes
  // join without any id-allocation protocol.  The span parents to whatever
  // the submitting fiber was doing and becomes its ambient context, so the
  // multicast below and everything downstream of it hang beneath the call.
  if (state_.trace()) {
    rec.span = state_.note_open(obs::Kind::kCallIssued,
                                obs::SpanCtx{id.value(), state_.sched.ambient().parent},
                                id.value(), umsg.server.value(), state_.inc_number);
  }
  co_await fw_->trigger(kNewRpcCall, runtime::EventArg::ref(rec));
  umsg.id = id;

  net::NetMessage msg;
  msg.type = net::MsgType::kCall;
  msg.id = id;
  msg.op = umsg.op;
  msg.args = umsg.args;  // the request, as in rec.request_args
  msg.server = umsg.server;
  msg.sender = state_.my_id;
  msg.inc = state_.inc_number;
  msg.ackid = state_.low_watermark().value();
  state_.net_multicast(umsg.server, msg);
}

}  // namespace ugrpc::core
