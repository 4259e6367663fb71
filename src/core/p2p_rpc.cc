#include "core/p2p_rpc.h"

namespace ugrpc::core {

P2pRpc::P2pRpc(net::Transport& transport, net::Endpoint& endpoint, ProcessId my_id,
               UserProtocol& user, Options options)
    : transport_(transport), endpoint_(endpoint), my_id_(my_id), user_(user), options_(options) {
  endpoint_.set_handler(kP2pProto, [this](net::Packet pkt) { return on_packet(std::move(pkt)); });
}

P2pRpc::~P2pRpc() {
  transport_.cancel_timer(retrans_timer_);
  endpoint_.clear_handler(kP2pProto);
}

sim::Task<CallResult> P2pRpc::call(ProcessId server, OpId op, Buffer args) {
  const CallId id = make_call_id(my_id_, next_seq_++);
  auto rec = std::make_shared<Pending>(transport_.executor());
  rec->server = server;
  rec->op = op;
  rec->request = args;
  pending_[id] = rec;

  net::NetMessage msg;
  msg.type = net::MsgType::kCall;
  msg.id = id;
  msg.op = op;
  msg.args = std::move(args);
  msg.sender = my_id_;
  send(server, msg);
  if (options_.reliable) arm_retransmit_timer();

  TimerId deadline{};
  if (options_.termination_bound.has_value()) {
    deadline = transport_.schedule_after(
        *options_.termination_bound,
        [rec] {
          if (rec->status == Status::kWaiting) {
            rec->status = Status::kTimeout;
            rec->sem.release();
          }
        },
        DomainId{my_id_.value()});
  }

  co_await rec->sem.acquire();
  transport_.cancel_timer(deadline);
  pending_.erase(id);
  co_return CallResult{rec->status, std::move(rec->result), id};
}

sim::Task<> P2pRpc::on_packet(net::Packet pkt) {
  net::NetMessage msg;
  try {
    msg = net::NetMessage::decode(pkt.payload);
  } catch (const CodecError& e) {
    malformed_.note("p2p", pkt.src, transport_.now(), e.what());
    co_return;
  }
  switch (msg.type) {
    case net::MsgType::kCall:
      co_await serve_call(std::move(msg));
      break;
    case net::MsgType::kReply: {
      // Acknowledge so the server can free the stored result, then wake the
      // caller.
      if (options_.unique_execution) {
        net::NetMessage ack;
        ack.type = net::MsgType::kAck;
        ack.sender = my_id_;
        ack.ackid = msg.id.value();
        send(msg.sender, ack);
      }
      auto it = pending_.find(msg.id);
      if (it != pending_.end() && it->second->status == Status::kWaiting) {
        it->second->result = std::move(msg.args);
        it->second->status = Status::kOk;
        it->second->acked = true;
        it->second->sem.release();
      }
      break;
    }
    case net::MsgType::kAck:
      stored_results_.erase(CallId{msg.ackid});
      break;
    default:
      break;  // no ordering messages in the point-to-point protocol
  }
}

sim::Task<> P2pRpc::serve_call(net::NetMessage msg) {
  if (options_.unique_execution) {
    if (auto it = stored_results_.find(msg.id); it != stored_results_.end()) {
      net::NetMessage reply;
      reply.type = net::MsgType::kReply;
      reply.id = msg.id;
      reply.op = msg.op;
      reply.args = it->second;
      reply.sender = my_id_;
      send(msg.sender, reply);
      co_return;
    }
    if (!seen_calls_.insert(msg.id).second) co_return;  // in progress: drop
  }
  co_await user_.pop(msg.op, msg.args);
  if (options_.unique_execution) stored_results_[msg.id] = msg.args;
  net::NetMessage reply;
  reply.type = net::MsgType::kReply;
  reply.id = msg.id;
  reply.op = msg.op;
  reply.args = std::move(msg.args);
  reply.sender = my_id_;
  send(msg.sender, reply);
}

void P2pRpc::arm_retransmit_timer() {
  if (timer_armed_) return;
  timer_armed_ = true;
  retrans_timer_ = transport_.schedule_after(
      options_.retrans_timeout,
      [this] {
        timer_armed_ = false;
        for (const auto& [id, rec] : pending_) {
          if (rec->acked || rec->status != Status::kWaiting) continue;
          net::NetMessage msg;
          msg.type = net::MsgType::kCall;
          msg.id = id;
          msg.op = rec->op;
          msg.args = rec->request;
          msg.sender = my_id_;
          send(rec->server, msg);
          ++retransmissions_;
        }
        if (!pending_.empty()) arm_retransmit_timer();
      },
      DomainId{my_id_.value()});
}

}  // namespace ugrpc::core
