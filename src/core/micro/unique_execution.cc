#include "core/micro/unique_execution.h"

#include "core/priorities.h"

namespace ugrpc::core {

void UniqueExecution::start(runtime::Framework& fw) {
  fw_ = &fw;
  fw.register_handler(kMsgFromNetwork, "UniqueExec.msg_from_net", kPrioNetUnique,
                      [this](runtime::EventContext& ctx) { return msg_from_net(ctx); });
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

void UniqueExecution::free_result(CallId id) {
  if (old_results_.erase(id) != 0) journal_change(Change::kResultFreed, id);
}

void UniqueExecution::queue_ack(ProcessId dest, std::uint64_t id) {
  state_.pending_acks[dest].push_back(id);
  ++acks_queued_;
  if (flush_armed_) return;
  flush_armed_ = true;
  // One coalesced timer for every destination: all acknowledgements queued
  // before it fires leave in one message per server.  Its delay of 0 still
  // batches -- timers fire only after the ready fibers of the current
  // instant have drained, so a burst of same-time Replies is acknowledged
  // as one batch.
  fw_->register_timeout("UniqueExec.flush_acks", 0, [this]() -> sim::Task<> {
    flush_armed_ = false;
    flush_acks();
    co_return;
  });
}

void UniqueExecution::flush_acks() {
  // Drain every destination's queue in place.  The queue lives in the shared
  // state because retransmission piggybacking may already have consumed some
  // ids (take_piggyback_ack).  Clearing a drained queue rather than erasing
  // it keeps the map node and the vector's capacity for the next batch.
  for (auto& [dest, ids] : state_.pending_acks) {
    if (ids.empty()) continue;
    net::NetMessage ack;
    ack.type = net::MsgType::kAck;
    ack.sender = state_.my_id;
    ack.inc = state_.inc_number;
    ack.ackid = ids.front();
    ack.args = net::encode_ack_batch(std::span(ids).subspan(1));
    state_.net_push(dest, ack);
    ids.clear();
    ++ack_messages_sent_;
  }
}

sim::Task<> UniqueExecution::msg_from_net(runtime::EventContext& ctx) {
  const auto& msg = ctx.arg_as<net::NetMessage>();
  switch (msg.type) {
    case net::MsgType::kCall: {
      // A retransmitted Call may piggyback one acknowledgement in its
      // otherwise-unused ackid field (see Reliable Communication).
      if (msg.ackid != 0) free_result(CallId{msg.ackid});
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
        // In progress (or executed and already acknowledged): drop.
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
      // Client side: queue the acknowledgement so the server can free the
      // stored result; the coalesced flush timer batches per destination.
      queue_ack(msg.sender, msg.id.value());
      break;
    }
    case net::MsgType::kAck:
      free_result(CallId{msg.ackid});
      for (std::uint64_t id : net::decode_ack_batch(msg.args)) free_result(CallId{id});
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
