// Total Order micro-protocol (paper section 4.4.6).
//
// Guarantees that calls from all clients are processed in the same total
// order by all servers.  One group member -- the leader, defined as "the
// server with the largest unique identifier of all non-failed servers" --
// assigns consecutive order numbers to calls and disseminates them to the
// group with Order messages.  Each member executes calls strictly in
// assigned order (a HOLD gate holds calls whose turn has not come).
//
// Order message (EXTENSION): `ackid` carries the order of call `id`, and
// `args` two repairs:
//   prev_id:u64 prev_order:u64  the assignment the leader announced just
//                               before this one (all zero before its first)
//   call:bytes                  optional: the Call being ordered, its
//                               NetMessage encoding as one length-prefixed
//                               field that ends the args
// A follower that lost Order k learns it from Order k+1, about one call
// later, instead of stalling every later call until a client's
// retransmission makes the leader re-announce it.
//
// A follower that lost the Call runs it from its Order.  Only when the
// Order finds no sRPC row for its call and the call has not executed here
// (its order >= next_entry) does the follower decode the embedded Call; it
// raises CALL_FROM_NETWORK with it, so orphan handling, Unique Execution,
// RPC Main and Total Order see it as if it had come from the client.  The
// client's own copy, if it arrives later, is a duplicate that Unique
// Execution answers.  Under acceptance below ALL the client stops sending a
// call once enough servers answered, so without the embedded Call such a
// follower would hold that order, and every later one, for good.  The
// leader writes the Call in place (NetMessage::encode_to) into one reused
// buffer, so it costs no allocation, but it costs bytes: one more copy of
// each Call on the leader's link to every follower, which matters for
// large arguments (a third more bytes per ordered write with 8 KiB args;
// DESIGN.md section 5, item 17).  An
// Order that the Call would push past net::kMaxDatagram goes out without
// it, and a reconciliation's re-announcements carry none.
//
// An Order whose args are not framed as above is dropped as malformed, and
// so is one whose Call, when the follower needs it, does not decode as a
// Call with the Order's id and group.  The leader sends Orders to the other
// members only: the Call's own call_from_net handler already releases or
// queues the call it has just assigned, so an Order to itself would be a
// no-op.
//
// Leader change: followers track the leader's counter via the Order
// messages ("if next_order < msg.ackid+1 ..."), so when the leader fails the
// next-largest live member continues numbering where it left off;
// retransmitted calls (Reliable Communication is required) reach the new
// leader, and followers forward retransmissions of calls they hold without
// an order.  A held call is its sRPC row with the gate closed; one with a
// later order also waits on ready_list, which the reply handler releases
// from (GrpcState::release) as it advances next_entry.
//
// Agreement phase (EXTENSION -- the paper omits it "for brevity"): tracking
// the counter is not enough.  If the failed leader's last Order messages
// reached only a subset of the group -- in particular, not the successor --
// the new leader would reassign those order numbers to different calls and
// the members would execute divergent sequences.  So a member that observes
// the leadership falling to it runs a reconciliation round before assigning
// any further orders: it multicasts an OrderQuery carrying its next_entry;
// every member answers with an OrderInfo listing its (call, order) pairs at
// or above that floor; the new leader merges the union (assignments are
// consistent by construction -- they all came from one old leader),
// advances next_order past the maximum, re-announces the merged tail with
// ordinary Order messages, and only then resumes assignment.  If some
// members' answers are lost, a timeout closes the round with the answers at
// hand; reconciliation is idempotent and re-runs on later failures.
//
// Checkpoint (with Atomic Execution): a change is an assignment learned or
// made, or a new next_entry:
//   kAssigned:  op:u8 id:u64 order:u64
//   kNextEntry: op:u8 next_entry:u64
// next_order is not stored; apply() recomputes it (see there).
//
// Dependencies (paper Figure 4): Reliable Communication and Unique Execution
// (a server must see each request effectively once past the dedup stage);
// incompatible with Bounded Termination.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/events.h"
#include "core/grpc_state.h"
#include "runtime/micro_protocol.h"

namespace ugrpc::core {

class TotalOrder : public runtime::MicroProtocol, public CheckpointParticipant {
 public:
  TotalOrder(GrpcState& state, GroupId group)
      : MicroProtocol("Total Order"), state_(state), group_(group) {
    state_.checkpoint_participants.push_back(this);
  }

  void start(runtime::Framework& fw) override;

  // CheckpointParticipant: with Atomic Execution configured, the ordering
  // position (next_entry, known assignments, held calls) survives a crash,
  // so a recovered member resumes the total order where its last completed
  // call left it instead of restarting from order 1.
  void encode_state(Writer& w) const override;
  void apply(Reader& r) override;

  /// The group leader from this member's viewpoint: the largest-id live
  /// member of the group this member serves (Config::group).  A Call naming
  /// any other group is dropped as malformed.
  [[nodiscard]] ProcessId leader() const;

  [[nodiscard]] std::uint64_t orders_assigned() const { return next_order_ - 1; }
  [[nodiscard]] std::uint64_t next_entry() const { return next_entry_; }
  /// Calls whose order this member knows (assigned or learned).
  [[nodiscard]] std::size_t old_orders() const { return old_orders_.size(); }
  [[nodiscard]] bool reconciling() const { return reconciling_; }
  [[nodiscard]] std::uint64_t reconciliations() const { return reconciliations_; }

 private:
  void assign_order(runtime::EventContext& ctx);
  [[nodiscard]] sim::Task<> call_from_net(runtime::EventContext& ctx);
  [[nodiscard]] sim::Task<> order_from_net(runtime::EventContext& ctx);
  void order_query_from_net(runtime::EventContext& ctx);
  void order_info_from_net(runtime::EventContext& ctx);
  void mark_executed();
  void membership_change(runtime::EventContext& ctx);

  /// Sends the Order assigning `order` to call `id`, with the previous
  /// announcement and, if it fits, `call` in its args, to every other member
  /// of the group.
  void announce(CallId id, std::uint64_t order, const net::NetMessage* call);
  /// The Call an Order carries, when this member needs it: no row holds the
  /// call here and it has not executed.  Throws CodecError when the bytes
  /// are not a Call with the Order's id and group.
  [[nodiscard]] std::optional<net::NetMessage> lost_call(const net::NetMessage& order);
  /// Records an assignment learned from an Order/OrderInfo message; queues
  /// the call if it is held here, or returns true if its turn has come.
  bool note_order(CallId id, std::uint64_t order);
  /// Records `id -> order` unless `id` already has one (first assignment
  /// wins); returns the call's order.
  std::uint64_t remember_order(CallId id, std::uint64_t order);

  enum class Change : std::uint8_t { kAssigned = 0, kNextEntry = 1 };
  static void write_assigned(Writer& w, CallId id, std::uint64_t order);
  static void write_next_entry(Writer& w, std::uint64_t next_entry);

  void begin_reconciliation();
  void finish_reconciliation();
  [[nodiscard]] Buffer encode_order_info(std::uint64_t floor) const;
  /// Throws CodecError on malformed args.
  [[nodiscard]] static std::vector<std::pair<CallId, std::uint64_t>> decode_order_info(
      const Buffer& args);

  GrpcState& state_;
  GroupId group_;
  runtime::Framework* fw_ = nullptr;
  std::map<std::uint64_t, CallId> ready_list_;       ///< order -> call, not yet executable
  std::unordered_map<CallId, std::uint64_t> old_orders_;  ///< call -> assigned order
  std::uint64_t next_order_ = 1;  ///< leader: next order number to assign
  std::uint64_t next_entry_ = 1;  ///< next order number allowed to execute
  /// Leader: the last assignment announced (zero before the first), the
  /// next Order's predecessor.
  CallId prev_id_{0};
  std::uint64_t prev_order_ = 0;
  /// Leader: the Orders' args, one buffer rewritten in place per Order.
  Buffer order_args_;

  // Reconciliation round state (only meaningful on the new leader).
  bool reconciling_ = false;
  std::set<ProcessId> awaiting_info_;
  TimerId reconcile_timer_{};
  std::uint64_t reconciliations_ = 0;
};

}  // namespace ugrpc::core
