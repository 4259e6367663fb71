#include "core/micro/reliable_communication.h"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "core/priorities.h"

namespace ugrpc::core {

namespace {
/// No deadline: nothing to arm for.
constexpr sim::Time kNever = std::numeric_limits<sim::Time>::max();
}  // namespace

void ReliableCommunication::start(runtime::Framework& fw) {
  fw_ = &fw;
  fw.register_handler(kNewRpcCall, "ReliableComm.handle_new_call", kPrioNewReliable,
                      [this](runtime::EventContext& ctx) {
                        ClientRecord& rec = ctx.arg_as<ClientRecord>();
                        // RPC Main multicasts the Call right after this
                        // event's chain, at the same transport time.
                        const sim::Time now = state_.transport.now();
                        for (PendingServer& ps : rec.pending) {
                          ps.acked = false;
                          ps.sent_at = now;
                          ps.retries = 0;
                        }
                        if (armed_ && !state_.pRPC.contains(armed_for_)) {
                          // The timer waits for a call that has completed
                          // and left the table; rather than let it fire for
                          // nothing, move it to the earliest live deadline.
                          fw_->cancel_timeout(timer_);
                          armed_ = false;
                          arm_earliest();
                        } else {
                          arm_timer(first_deadline(rec), rec.id);
                        }
                      });
  fw.register_handler(kReplyFromNetwork, "ReliableComm.reply_from_net", kPrioNetReliable,
                      [this](runtime::EventContext& ctx) {
                        const auto& msg = ctx.arg_as<net::NetMessage>();
                        ClientRecord* rec = state_.find_client(msg.id);
                        if (rec == nullptr) return;
                        PendingServer* ps = rec->pending_for(msg.sender);
                        if (ps == nullptr || ps->acked) return;
                        ps->acked = true;
                        if (ps->retries == 0) {
                          sample_rtt(msg.sender, state_.transport.now() - ps->sent_at);
                        }
                      });
}

std::optional<ReliableCommunication::RttEstimate> ReliableCommunication::rtt(
    ProcessId peer) const {
  auto it = peers_.find(peer);
  if (it == peers_.end()) return std::nullopt;
  return it->second;
}

sim::Duration ReliableCommunication::rto(ProcessId peer) const {
  auto it = peers_.find(peer);
  if (it == peers_.end()) return retrans_timeout_;
  const RttEstimate& e = it->second;
  return std::min(retrans_timeout_, e.srtt + std::max(kClockGranularity, 4 * e.rttvar));
}

void ReliableCommunication::sample_rtt(ProcessId peer, sim::Duration r) {
  // RFC 6298 section 2, in integer microseconds (alpha = 1/8, beta = 1/4).
  RttEstimate& e = peers_[peer];
  if (e.samples++ == 0) {
    e.srtt = r;
    e.rttvar = r / 2;
  } else {
    e.rttvar = (3 * e.rttvar + std::abs(e.srtt - r)) / 4;
    e.srtt = (7 * e.srtt + r) / 8;
  }
}

sim::Time ReliableCommunication::deadline(const PendingServer& ps) const {
  sim::Duration timeout = rto(ps.server);
  for (int i = 0; i < ps.retries && timeout < retrans_timeout_; ++i) timeout *= 2;
  return ps.sent_at + std::min(timeout, retrans_timeout_);
}

sim::Time ReliableCommunication::first_deadline(const ClientRecord& rec) const {
  sim::Time first = kNever;
  for (const PendingServer& ps : rec.pending) {
    if (!ps.acked) first = std::min(first, deadline(ps));
  }
  return first;
}

void ReliableCommunication::arm_timer(sim::Time at, CallId call) {
  // The paper's handler re-registers itself for TIMEOUT at the end of each
  // run, making it periodic.  Here the one armed timeout tracks the earliest
  // deadline instead, and nothing is armed while no call is pending, so an
  // idle client (and hence the whole simulation) can quiesce.
  if (at == kNever) return;
  if (armed_) {
    if (armed_at_ <= at) return;
    fw_->cancel_timeout(timer_);
  }
  armed_ = true;
  armed_at_ = at;
  armed_for_ = call;
  timer_ = fw_->register_timeout("ReliableComm.handle_timeout",
                                 std::max<sim::Duration>(0, at - state_.transport.now()),
                                 [this]() -> sim::Task<> {
                                   armed_ = false;
                                   resend_due();
                                   co_return;
                                 });
}

void ReliableCommunication::arm_earliest() {
  sim::Time at = kNever;
  CallId call{};
  for (const auto& [id, rec] : state_.pRPC) {
    const sim::Time first = first_deadline(rec);
    if (first < at) {
      at = first;
      call = id;
    }
  }
  arm_timer(at, call);
}

void ReliableCommunication::resend_due() {
  // Sends never run protocol code in place, so nothing mutates pRPC while
  // this walks it.
  const sim::Time now = state_.transport.now();
  const bool traced = state_.trace() != nullptr;
  const obs::SpanCtx saved_ctx = traced ? state_.sched.ambient() : obs::SpanCtx{};
  const std::uint64_t watermark = state_.low_watermark().value();
  for (auto& [id, rec] : state_.pRPC) {
    for (PendingServer& ps : rec.pending) {
      if (ps.acked || deadline(ps) > now) continue;
      net::NetMessage msg;
      msg.type = net::MsgType::kCall;
      msg.id = id;
      msg.op = rec.op;
      msg.args = rec.request_args;  // shared, not deep-copied (COW Buffer)
      msg.server = rec.server;
      msg.sender = state_.my_id;
      msg.inc = state_.inc_number;
      msg.ackid = watermark;  // as on the original Call: see grpc_state.h
      // Re-enter the call's own trace context: the timer fiber's ambient is
      // the timer span, but each retransmitted datagram belongs to the call
      // it retries, so the span tree shows the retry under the original call.
      if (traced) state_.sched.set_ambient(obs::SpanCtx{id.value(), rec.span});
      state_.net_push(ps.server, msg);
      ps.sent_at = now;
      ++ps.retries;
      ++retransmissions_;
      state_.note(obs::Kind::kRetransmit, id.value(), ps.server.value());
    }
  }
  if (traced) state_.sched.set_ambient(saved_ctx);
  arm_earliest();
}

}  // namespace ugrpc::core
