#include "core/micro/fifo_order.h"

#include "core/priorities.h"

namespace ugrpc::core {

void FifoOrder::write_position(Writer& w, ProcessId client, const InProgress& info) {
  w.u32(client.value());
  w.u32(info.inc);
  w.u64(info.next.value());
}

void FifoOrder::set_position(ProcessId client, InProgress& info, InProgress to) {
  info = to;
  if (Writer* w = journal()) write_position(*w, client, info);
}

void FifoOrder::encode_state(Writer& w) const {
  for (const auto& [client, info] : in_progress_) write_position(w, client, info);
}

void FifoOrder::apply(Reader& r) {
  while (!r.at_end()) {
    const ProcessId client{r.u32()};
    InProgress& info = in_progress_[client];
    info.inc = r.u32();
    info.next = CallId{r.u64()};
  }
}

void FifoOrder::start(runtime::Framework& fw) {
  state_.HOLD[kHoldFifo] = true;
  fw.register_handler(kCallFromNetwork, "FifoOrder.call_from_net", kPrioNetOrderDeliver,
                      [this](runtime::EventContext& ctx) { return call_from_net(ctx); });
  fw.register_handler(kReplyFromServer, "FifoOrder.mark_executed", kPrioReplyOrderMark,
                      [this](runtime::EventContext& ctx) { return mark_executed(ctx); });
}

sim::Task<> FifoOrder::call_from_net(runtime::EventContext& ctx) {
  const auto& msg = ctx.arg_as<net::NetMessage>();
  auto [it, inserted] = in_progress_.try_emplace(msg.sender);
  InProgress& info = it->second;
  // A stream starts at the client's low watermark: every call below it has
  // completed, and the Call that arrives first may have overtaken (or
  // outlived the loss of) an earlier one that is still to come.
  const CallId base = call_watermark(msg).value_or(msg.id);
  if (inserted) {
    set_position(msg.sender, info, {msg.inc, base});
  } else if (info.inc > msg.inc || (info.inc == msg.inc && msg.id < info.next)) {
    // Stale: an orphaned incarnation or an id already executed here.
    state_.note(obs::Kind::kStaleDropped, msg.id.value());
    ctx.cancel();
    auto srec = state_.sRPC.find(msg.id);
    if (srec != state_.sRPC.end()) state_.sRPC.erase(srec);
    co_return;
  } else if (info.inc < msg.inc) {
    set_position(msg.sender, info, {msg.inc, base});  // a new client incarnation
  }
  if (msg.id == info.next) {
    co_await state_.forward_up(msg.id, kHoldFifo);
  } else {
    state_.note(obs::Kind::kCallHeld, msg.id.value(), kHoldFifo);
  }
}

void FifoOrder::mark_executed(runtime::EventContext& ctx) {
  // Advance the client's stream position before the Atomic checkpoint runs
  // (see priorities.h), then release the successor if it has arrived.
  const ServerRecord& rec = ctx.arg_as<ServerRecord>();
  const CallId next = next_call_id(rec.id);
  auto it = in_progress_.find(rec.client);
  if (it != in_progress_.end() && next.value() > it->second.next.value()) {
    set_position(rec.client, it->second, {it->second.inc, next});
  }
  const ServerRecord* row = state_.find_server(next);
  if (row != nullptr && !row->hold[kHoldFifo]) state_.release(next, kHoldFifo);
}

}  // namespace ugrpc::core
