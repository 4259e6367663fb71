#include "core/micro/total_order.h"

#include "common/log.h"
#include "core/priorities.h"
#include "net/wire.h"

namespace ugrpc::core {

namespace {

/// How long a new leader waits for OrderInfo answers before closing the
/// reconciliation round with whatever arrived.
constexpr sim::Duration kAgreementTimeout = sim::msec(100);

/// An Order's args begin with the leader's previous assignment, id:u64
/// order:u64; the Call may follow as one length-prefixed field.
constexpr std::size_t kPredecessorBytes = 16;
constexpr std::size_t kLengthPrefixBytes = 4;

/// True when Order args are the predecessor alone, or the predecessor and
/// one length-prefixed field that ends them.
bool framed(const Buffer& args) {
  if (args.size() == kPredecessorBytes) return true;
  if (args.size() < kPredecessorBytes + kLengthPrefixBytes) return false;
  Reader r(args.bytes().subspan(kPredecessorBytes));
  const std::uint32_t length = r.u32();
  return length == r.remaining();
}

/// True when an Order carrying `call` fits in one datagram.
bool fits_with(const net::NetMessage& call) {
  constexpr std::size_t kOverhead = sizeof(net::WireFrame::Head) + net::NetMessage::kFixedBytes +
                                    kPredecessorBytes + kLengthPrefixBytes +
                                    net::NetMessage::kFixedBytes;
  return call.args.size() <= net::kMaxDatagram - kOverhead;
}

}  // namespace

void TotalOrder::start(runtime::Framework& fw) {
  fw_ = &fw;
  state_.HOLD[kHoldTotal] = true;
  fw.register_handler(kCallFromNetwork, "TotalOrder.assign_order", kPrioNetAssignOrder,
                      [this](runtime::EventContext& ctx) { return assign_order(ctx); });
  fw.register_handler(kCallFromNetwork, "TotalOrder.call_from_net", kPrioNetOrderDeliver,
                      [this](runtime::EventContext& ctx) { return call_from_net(ctx); });
  fw.register_handler(kOrderFromNetwork, "TotalOrder.order_from_net", kPrioNetOrderDeliver,
                      [this](runtime::EventContext& ctx) { return order_from_net(ctx); });
  fw.register_handler(kOrderQueryFromNetwork, "TotalOrder.order_query_from_net",
                      kPrioNetOrderDeliver,
                      [this](runtime::EventContext& ctx) { return order_query_from_net(ctx); });
  fw.register_handler(kOrderInfoFromNetwork, "TotalOrder.order_info_from_net",
                      kPrioNetOrderDeliver,
                      [this](runtime::EventContext& ctx) { return order_info_from_net(ctx); });
  fw.register_handler(kReplyFromServer, "TotalOrder.mark_executed", kPrioReplyOrderMark,
                      [this](runtime::EventContext&) { return mark_executed(); });
  fw.register_handler(kMembershipChange, "TotalOrder.membership_change", kPrioMemberOrder,
                      [this](runtime::EventContext& ctx) { return membership_change(ctx); });
  // A member that boots (or recovers) into the leader role must not assign
  // orders from a fresh counter: reconcile with the group first.
  if (state_.my_id == leader()) {
    bool has_peers = false;
    for (ProcessId p : state_.transport.group_members(group_)) {
      if (p != state_.my_id && state_.members.contains(p)) has_peers = true;
    }
    if (has_peers) begin_reconciliation();
  }
}

ProcessId TotalOrder::leader() const {
  ProcessId best{0};
  for (ProcessId p : state_.transport.group_members(group_)) {
    if (state_.members.contains(p) && p.value() > best.value()) best = p;
  }
  return best;
}

void TotalOrder::assign_order(runtime::EventContext& ctx) {
  const auto& msg = ctx.arg_as<net::NetMessage>();
  if (msg.server != group_) {
    // This member orders the calls of the one group it serves; a Call
    // naming any other group (possibly an undefined one) has no leader here.
    state_.drop_malformed(msg.sender, CodecError("Call names a group Total Order does not serve"));
    ctx.cancel();
    return;
  }
  const ProcessId who_leads = leader();
  if (state_.my_id == who_leads) {
    std::uint64_t order = 0;
    if (auto it = old_orders_.find(msg.id); it != old_orders_.end()) {
      order = it->second;  // re-announce an existing assignment
    } else if (!reconciling_) {
      order = remember_order(msg.id, next_order_++);
    } else {
      // Mid-reconciliation: do not assign.  The call waits in sRPC without
      // an order, and finish_reconciliation assigns it.
      return;
    }
    announce(msg.id, order, &msg);
  } else if (!old_orders_.contains(msg.id) && state_.sRPC.contains(msg.id)) {
    // A retransmission of a call we still cannot order: nudge the (possibly
    // new) leader, which may never have received the original.
    state_.net_push(who_leads, msg);
  }
  // Note: the paper cancels the event here when the call's order is already
  // below next_entry (an executed duplicate).  That cancel runs before
  // Unique Execution's handler and therefore suppresses its resend of the
  // stored result -- a client whose Reply was lost would retransmit forever.
  // Since Total Order requires Unique Execution (Figure 4), which both
  // cancels duplicates and re-answers completed calls, the early cancel is
  // redundant and we omit it (see DESIGN.md).
}

void TotalOrder::announce(CallId id, std::uint64_t order, const net::NetMessage* call) {
  net::NetMessage order_msg;
  order_msg.type = net::MsgType::kOrder;
  order_msg.id = id;
  order_msg.server = group_;
  order_msg.sender = state_.my_id;
  order_msg.inc = state_.inc_number;
  order_msg.ackid = order;
  order_msg.args = std::move(order_args_);
  order_msg.args.clear();
  Writer w(order_msg.args);
  w.u64(prev_id_.value());
  w.u64(prev_order_);
  if (call != nullptr && fits_with(*call)) {
    // Written in place rather than encoded into a buffer of its own.
    const std::size_t prefix_at = w.begin_raw();
    call->encode_to(w);
    w.end_raw(prefix_at);
  }
  const Buffer bytes = order_msg.encode();
  for (ProcessId p : state_.transport.group_members(group_)) {
    if (p != state_.my_id) state_.endpoint.send(p, kGrpcProto, bytes);
  }
  // Back in its one owner, the buffer is rewritten in place next time.
  order_args_ = std::move(order_msg.args);
  prev_id_ = id;
  prev_order_ = order;
}

bool TotalOrder::note_order(CallId id, std::uint64_t order) {
  // Followers track the leader's counter so a successor continues the
  // numbering after a failover.
  if (next_order_ < order + 1) next_order_ = order + 1;
  const std::uint64_t my_order = remember_order(id, order);
  // A held call is an sRPC row whose gate is still closed.
  const ServerRecord* row = state_.find_server(id);
  if (row == nullptr || row->hold[kHoldTotal]) return false;
  if (my_order > next_entry_) ready_list_[my_order] = id;
  return my_order == next_entry_;
}

std::uint64_t TotalOrder::remember_order(CallId id, std::uint64_t order) {
  const auto [it, inserted] = old_orders_.try_emplace(id, order);
  if (inserted) {
    if (Writer* w = journal()) write_assigned(*w, id, order);
  }
  return it->second;
}

void TotalOrder::write_assigned(Writer& w, CallId id, std::uint64_t order) {
  w.u8(static_cast<std::uint8_t>(Change::kAssigned));
  w.u64(id.value());
  w.u64(order);
}

void TotalOrder::write_next_entry(Writer& w, std::uint64_t next_entry) {
  w.u8(static_cast<std::uint8_t>(Change::kNextEntry));
  w.u64(next_entry);
}

sim::Task<> TotalOrder::call_from_net(runtime::EventContext& ctx) {
  const auto& msg = ctx.arg_as<net::NetMessage>();
  auto it = old_orders_.find(msg.id);
  if (it == old_orders_.end()) {
    // Unordered: the row waits in sRPC until an Order arrives.
    state_.note(obs::Kind::kCallHeld, msg.id.value(), kHoldTotal);
    co_return;
  }
  const std::uint64_t my_order = it->second;
  if (my_order < next_entry_) {
    // Already executed here; discard the freshly re-created record.
    state_.note(obs::Kind::kStaleDropped, msg.id.value());
    ctx.cancel();
    state_.sRPC.erase(msg.id);
  } else if (my_order == next_entry_) {
    co_await state_.forward_up(msg.id, kHoldTotal);
  } else {
    ready_list_[my_order] = msg.id;
    state_.note(obs::Kind::kCallHeld, msg.id.value(), kHoldTotal);
  }
}

std::optional<net::NetMessage> TotalOrder::lost_call(const net::NetMessage& order) {
  if (order.args.size() <= kPredecessorBytes || state_.find_server(order.id) != nullptr) {
    return std::nullopt;
  }
  const auto known = old_orders_.find(order.id);
  if ((known != old_orders_.end() ? known->second : order.ackid) < next_entry_) {
    return std::nullopt;  // executed here
  }
  // framed() has checked that the Call's length prefix spans the rest.
  constexpr std::size_t kCallAt = kPredecessorBytes + kLengthPrefixBytes;
  net::NetMessage call =
      net::NetMessage::decode(order.args.slice(kCallAt, order.args.size() - kCallAt));
  if (call.type != net::MsgType::kCall) {
    throw CodecError("Order carries a message that is not a Call");
  }
  if (call.id != order.id || call.server != order.server) {
    throw CodecError("Order carries another call's Call");
  }
  return call;
}

sim::Task<> TotalOrder::order_from_net(runtime::EventContext& ctx) {
  const auto& msg = ctx.arg_as<net::NetMessage>();
  // Check everything before applying anything: a malformed Order teaches
  // no order.
  std::optional<net::NetMessage> call;
  try {
    if (!framed(msg.args)) throw CodecError("Order args are not an assignment and a Call");
    call = lost_call(msg);
  } catch (const CodecError& e) {
    state_.drop_malformed(msg.sender, e);
    co_return;
  }
  // The leader's previous assignment, if any: it repairs a lost Order.  It
  // comes first, and runs in a fiber of its own if its turn has come.
  Reader r(msg.args);
  const CallId prev{r.u64()};
  const std::uint64_t prev_order = r.u64();
  if (prev != CallId{0} && note_order(prev, prev_order)) state_.release(prev, kHoldTotal);
  if (note_order(msg.id, msg.ackid)) {
    state_.note(obs::Kind::kCallReleased, msg.id.value(), kHoldTotal);
    co_await state_.forward_up(msg.id, kHoldTotal);
  } else if (call.has_value()) {
    // This member lost the Call: run the leader's copy through the Call's
    // own chain, which finds its order known now.
    co_await fw_->trigger(kCallFromNetwork, runtime::EventArg::ref(*call));
  }
}

void TotalOrder::order_query_from_net(runtime::EventContext& ctx) {
  const auto& msg = ctx.arg_as<net::NetMessage>();
  if (msg.sender == state_.my_id) return;
  net::NetMessage info;
  info.type = net::MsgType::kOrderInfo;
  info.server = msg.server;
  info.sender = state_.my_id;
  info.inc = state_.inc_number;
  info.ackid = msg.ackid;  // echo the floor
  info.args = encode_order_info(msg.ackid);
  state_.net_push(msg.sender, info);
}

void TotalOrder::order_info_from_net(runtime::EventContext& ctx) {
  const auto& msg = ctx.arg_as<net::NetMessage>();
  if (!reconciling_) return;  // stale answer from an earlier round
  // Decode the whole answer before applying any of it: a malformed one is
  // dropped and counted, and the round's timeout covers its sender.
  std::vector<std::pair<CallId, std::uint64_t>> orders;
  try {
    orders = decode_order_info(msg.args);
  } catch (const CodecError& e) {
    state_.drop_malformed(msg.sender, e);
    return;
  }
  for (const auto& [id, order] : orders) {
    if (note_order(id, order)) state_.release(id, kHoldTotal);
  }
  awaiting_info_.erase(msg.sender);
  if (awaiting_info_.empty()) finish_reconciliation();
}

void TotalOrder::mark_executed() {
  ++next_entry_;  // before the checkpoint; see priorities.h
  if (Writer* w = journal()) write_next_entry(*w, next_entry_);
  auto it = ready_list_.find(next_entry_);
  if (it != ready_list_.end()) {
    const CallId next_id = it->second;
    ready_list_.erase(it);
    state_.release(next_id, kHoldTotal);
  }
}

void TotalOrder::membership_change(runtime::EventContext& ctx) {
  const auto& ev = ctx.arg_as<MembershipEvent>();
  // Leadership falls to this member when a higher-id member fails while we
  // are (now) the maximum live id.
  if (ev.change == membership::Change::kFailure && ev.who.value() > state_.my_id.value() &&
      state_.my_id == leader() && !reconciling_) {
    begin_reconciliation();
  }
}

Buffer TotalOrder::encode_order_info(std::uint64_t floor) const {
  Buffer out;
  Writer w(out);
  std::uint32_t count = 0;
  for (const auto& [id, order] : old_orders_) {
    if (order >= floor) ++count;
  }
  w.u32(count);
  for (const auto& [id, order] : old_orders_) {
    if (order < floor) continue;
    w.u64(id.value());
    w.u64(order);
  }
  return out;
}

std::vector<std::pair<CallId, std::uint64_t>> TotalOrder::decode_order_info(const Buffer& args) {
  Reader r(args);
  const std::uint32_t n = r.u32();
  std::vector<std::pair<CallId, std::uint64_t>> orders;
  orders.reserve(std::min<std::size_t>(n, r.remaining() / 16));  // n comes off the wire
  for (std::uint32_t i = 0; i < n; ++i) {
    const CallId id{r.u64()};
    orders.emplace_back(id, r.u64());
  }
  return orders;
}

void TotalOrder::begin_reconciliation() {
  reconciling_ = true;
  ++reconciliations_;
  awaiting_info_.clear();
  for (ProcessId p : state_.transport.group_members(group_)) {
    if (p != state_.my_id && state_.members.contains(p)) awaiting_info_.insert(p);
  }
  UGRPC_LOG(kDebug, "total@%u: reconciling with %zu members", state_.my_id.value(),
            awaiting_info_.size());
  if (awaiting_info_.empty()) {
    finish_reconciliation();
    return;
  }
  net::NetMessage query;
  query.type = net::MsgType::kOrderQuery;
  query.server = group_;
  query.sender = state_.my_id;
  query.inc = state_.inc_number;
  query.ackid = next_entry_;  // members answer with assignments >= this floor
  state_.net_multicast(group_, query);
  // Lost answers must not wedge the group: close the round after a timeout
  // with whatever arrived.
  reconcile_timer_ = fw_->register_timeout("TotalOrder.reconcile_timeout",
                                           kAgreementTimeout, [this]() -> sim::Task<> {
                                             if (reconciling_) finish_reconciliation();
                                             co_return;
                                           });
}

void TotalOrder::encode_state(Writer& w) const {
  for (const auto& [id, order] : old_orders_) write_assigned(w, id, order);
  write_next_entry(w, next_entry_);
  // ready_list_ and the unordered calls reference sRPC records that do not
  // survive the crash; the calls they hold are re-delivered by client
  // retransmissions, so only the assignments need to persist.
}

void TotalOrder::apply(Reader& r) {
  while (!r.at_end()) {
    switch (static_cast<Change>(r.u8())) {  // any u8 fits the enum
      case Change::kAssigned: {
        const CallId id{r.u64()};
        const std::uint64_t order = r.u64();
        old_orders_.emplace(id, order);
        // next_order_ is always one past the largest known order, so it is
        // recomputed rather than stored: the leader assigns next_order_++
        // only to a call without an order, note_order raises it past each
        // order it learns, and both record the assignment.  (An Order for a
        // call known under another number would raise it further, but only
        // a group whose assignments diverged can send one.)
        next_order_ = std::max(next_order_, order + 1);
        break;
      }
      case Change::kNextEntry: next_entry_ = r.u64(); break;
      default: throw CodecError("Total Order: bad checkpoint change op");
    }
  }
}

void TotalOrder::finish_reconciliation() {
  reconciling_ = false;
  awaiting_info_.clear();
  fw_->cancel_timeout(reconcile_timer_);
  UGRPC_LOG(kDebug, "total@%u: reconciliation closed, next_order=%llu", state_.my_id.value(),
            static_cast<unsigned long long>(next_order_));
  // Calls that arrived during the round wait in sRPC unassigned; give them
  // their numbers now rather than waiting for client retransmissions, and
  // deliver each locally: the leader sends itself no Order.
  for (const auto& [id, row] : state_.sRPC) {
    if (old_orders_.contains(id)) continue;
    if (note_order(id, remember_order(id, next_order_++))) state_.release(id, kHoldTotal);
  }
  // Re-announce the merged tail (plus the fresh assignments) so every
  // member converges on one assignment even if the old leader's Orders
  // reached only a subset.
  for (const auto& [id, order] : old_orders_) {
    if (order >= next_entry_) announce(id, order, nullptr);
  }
}

}  // namespace ugrpc::core
