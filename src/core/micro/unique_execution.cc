#include "core/micro/unique_execution.h"

#include "core/priorities.h"

namespace ugrpc::core {

void UniqueExecution::start(runtime::Framework& fw) {
  fw_ = &fw;
  fw.register_handler(kMsgFromNetwork, "UniqueExec.msg_from_net", kPrioNetUnique,
                      [this](runtime::EventContext& ctx) { return msg_from_net(ctx); });
  fw.register_handler(kNewRpcCall, "UniqueExec.handle_new_call", kPrioNewUnique,
                      [this](runtime::EventContext& ctx) -> sim::Task<> {
                        // RPC Main multicasts this Call right after the
                        // event's chain, carrying W: each server it goes to
                        // is told W, which covers every Reply below it.
                        auto rec = state_.find_client(ctx.arg_as<CallEvent>().id);
                        if (rec == nullptr) co_return;
                        const CallId w = state_.low_watermark();
                        for (Owed& o : owed_) {
                          if (o.replied < w && rec->pending.contains(o.server)) {
                            o.replied = CallId{};
                          }
                        }
                        co_return;
                      });
  fw.register_handler(kReplyFromServer, "UniqueExec.handle_reply", kPrioReplyUnique,
                      [this](runtime::EventContext& ctx) -> sim::Task<> {
                        const CallId id = ctx.arg_as<CallEvent>().id;
                        if (auto rec = state_.find_server(id)) {
                          old_results_[id] = rec->args;
                          journal_change(Change::kResultStored, id, &rec->args);
                        }
                        co_return;
                      });
}

void UniqueExecution::write_change(Writer& w, Change op, CallId id, const Buffer* result) {
  w.u8(static_cast<std::uint8_t>(op));
  w.u64(id.value());
  if (op == Change::kResultStored) w.raw(result->bytes());
}

void UniqueExecution::journal_change(Change op, CallId id, const Buffer* result) {
  if (Writer* w = journal()) write_change(*w, op, id, result);
}

void UniqueExecution::free_below(ProcessId client, CallId watermark) {
  if (call_client(watermark) != client) return;
  const auto first = old_results_.lower_bound(make_call_id(client, 0));
  const auto last = old_results_.lower_bound(watermark);
  if (Writer* w = journal()) {
    for (auto it = first; it != last; ++it) write_change(*w, Change::kResultFreed, it->first);
  }
  old_results_.erase(first, last);
}

UniqueExecution::Owed& UniqueExecution::owed_entry(ProcessId server) {
  for (Owed& o : owed_) {
    if (o.server == server) return o;
  }
  return owed_.emplace_back(Owed{server, CallId{}});
}

void UniqueExecution::arm_flush() {
  if (flush_armed_) return;
  flush_armed_ = true;
  fw_->register_timeout("UniqueExec.flush_acks", idle_ack_delay_, [this]() -> sim::Task<> {
    flush_armed_ = false;
    flush_acks();
    co_return;
  });
}

void UniqueExecution::flush_acks() {
  const CallId w = state_.low_watermark();
  bool uncovered = false;
  for (Owed& o : owed_) {
    if (o.replied == CallId{}) continue;
    if (w <= o.replied) {
      uncovered = true;
      continue;
    }
    net::NetMessage ack;
    ack.type = net::MsgType::kAck;
    ack.sender = state_.my_id;
    ack.inc = state_.inc_number;
    ack.ackid = w.value();
    state_.net_push(o.server, ack);
    o.replied = CallId{};
    ++ack_messages_sent_;
  }
  // A Reply that W does not cover yet belongs to the call holding W back.
  // While that call is in flight it completes on its own, so look again
  // later.  A completed call that waits for the user to collect it may wait
  // forever, and a timer re-armed for it would keep an idle site from
  // quiescing; the next Reply arms the timer instead.  (With pRPC empty, an
  // uncovered Reply named no call this client issued.)
  if (uncovered && !state_.pRPC.empty() &&
      state_.pRPC.begin()->second->status == Status::kWaiting) {
    arm_flush();
  }
}

sim::Task<> UniqueExecution::msg_from_net(runtime::EventContext& ctx) {
  const auto& msg = ctx.arg_as<net::NetMessage>();
  switch (msg.type) {
    case net::MsgType::kCall: {
      if (const auto w = call_watermark(msg)) free_below(call_client(msg.id), *w);
      if (auto it = old_results_.find(msg.id); it != old_results_.end()) {
        // Completed before: answer from the stored result, do not re-execute.
        ++duplicates_suppressed_;
        state_.note(obs::Kind::kDupSuppressed, msg.id.value());
        net::NetMessage reply;
        reply.type = net::MsgType::kReply;
        reply.id = msg.id;
        reply.op = msg.op;
        reply.args = it->second;
        reply.server = msg.server;
        reply.sender = state_.my_id;
        reply.inc = state_.inc_number;
        state_.net_push(msg.sender, reply);
        ctx.cancel();
      } else if (old_calls_.contains(msg.id)) {
        // In progress, or executed with its result freed below a watermark:
        // drop.
        ++duplicates_suppressed_;
        state_.note(obs::Kind::kDupSuppressed, msg.id.value());
        ctx.cancel();
      } else {
        old_calls_.insert(msg.id);
        journal_change(Change::kCallSeen, msg.id);
      }
      break;
    }
    case net::MsgType::kReply: {
      // Client side: the server stores this result until a W above it
      // reaches the server; owe it one.
      Owed& o = owed_entry(msg.sender);
      if (o.replied < msg.id) o.replied = msg.id;
      arm_flush();
      break;
    }
    case net::MsgType::kAck:
      free_below(msg.sender, CallId{msg.ackid});
      break;
    case net::MsgType::kOrder:
    case net::MsgType::kOrderQuery:
    case net::MsgType::kOrderInfo:
      break;
  }
  co_return;
}

void UniqueExecution::encode_state(Writer& w) const {
  for (CallId id : old_calls_) write_change(w, Change::kCallSeen, id);
  for (const auto& [id, result] : old_results_) write_change(w, Change::kResultStored, id, &result);
}

void UniqueExecution::apply(Reader& r) {
  // Replayed in order: a result stored and freed within one chain ends up
  // absent, exactly as on the live server.
  while (!r.at_end()) {
    const auto op = static_cast<Change>(r.u8());  // any u8 fits the enum
    const CallId id{r.u64()};
    switch (op) {
      case Change::kCallSeen: old_calls_.insert(id); break;
      // A copy, not a slice: a slice would keep the whole checkpoint part
      // alive for as long as any one result stays in the table.
      case Change::kResultStored: old_results_[id] = Buffer::copy_of(r.raw().bytes()); break;
      case Change::kResultFreed: old_results_.erase(id); break;
      default: throw CodecError("Unique Execution: bad checkpoint change op");
    }
  }
}

}  // namespace ugrpc::core
