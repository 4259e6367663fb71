// Unique Execution micro-protocol (paper section 4.4.5).
//
// Guarantees a call is not executed more than once at each server: the
// server remembers which calls it has seen (OldCalls) and keeps each call's
// result (OldResults) until the client acknowledges the Reply.  A duplicate
// of a completed call is answered from OldResults; a duplicate of an
// in-progress call, or of a call whose result is already freed, is
// discarded.
//
// Acknowledgement is one number, not a message per Reply: every Call carries
// its client's low watermark W (grpc_state.h), and every call of that client
// below W has completed.  On a Call, the server frees all of that client's
// stored results below W in one range erase.  It trusts W only when W names
// the Call's own client, in the Call's incarnation, at or below the Call's
// id (call_watermark); a kAck's W must name the ACK's sender.  A recovered
// client's first Call thus frees every result of its old incarnations.
//
// A client that keeps calling needs no ACK message.  One that goes idle
// would leave its last results stored, so the client side keeps, per
// server, whether it replied since the last W that server was sent (on a
// Call or an ACK), and one timer: armed at a Reply, at `idle_ack_delay`
// (Reliable Communication's retrans_timeout, which Unique Execution
// requires).  When it fires it sends kAck(W) to each server that replied
// since it was last sent a W, where W now covers that Reply, and looks again
// later while the call holding W back is still in flight.  The Reply itself
// is Reliable Communication's acknowledgement, so neither a late nor a lost
// ACK delays anything but server-side garbage collection: a result whose
// Call or ACK carrying W was lost stays until the client's next Call
// reaches that server, and so do the results at and above an asynchronous
// call that completed but that the user has not collected (it holds W
// back).
//
// Combined with RPC Main + Reliable Communication this upgrades
// "at least once" to "exactly once" (paper Figure 1).  The duplicate tables
// are volatile; to preserve uniqueness across a server crash, configure
// Atomic Execution, which includes this micro-protocol's tables in its
// checkpoints (CheckpointParticipant).  A change to the tables -- a call
// seen, a result stored, a result freed below a watermark -- is encoded as
//   op:u8 id:u64 [result:raw if op is kResultStored]
// The whole state is the calls seen and the results stored; with Atomic
// Execution every change is also journaled, and each checkpoint delta
// carries just those changes.
#pragma once

#include <map>
#include <set>
#include <vector>

#include "core/events.h"
#include "core/grpc_state.h"
#include "runtime/micro_protocol.h"

namespace ugrpc::core {

class UniqueExecution : public runtime::MicroProtocol, public CheckpointParticipant {
 public:
  UniqueExecution(GrpcState& state, sim::Duration idle_ack_delay)
      : MicroProtocol("Unique Execution"), state_(state), idle_ack_delay_(idle_ack_delay) {
    state_.checkpoint_participants.push_back(this);
  }

  void start(runtime::Framework& fw) override;

  // CheckpointParticipant: the duplicate-suppression tables are part of the
  // server state that Atomic Execution rolls back on recovery.
  void encode_state(Writer& w) const override;
  void apply(Reader& r) override;

  [[nodiscard]] std::size_t old_calls() const { return old_calls_.size(); }
  [[nodiscard]] std::size_t stored_results() const { return old_results_.size(); }
  /// OldResults: the stored result of each call not yet acknowledged.
  [[nodiscard]] const std::map<CallId, Buffer>& results() const { return old_results_; }
  [[nodiscard]] std::uint64_t duplicates_suppressed() const { return duplicates_suppressed_; }
  /// kAck messages this client sent (observability for tests/benches).
  [[nodiscard]] std::uint64_t ack_messages_sent() const { return ack_messages_sent_; }

 private:
  /// What the client owes one server: the highest call id it replied to
  /// since it was last sent a W, or 0 (no call id) if it has not replied.
  struct Owed {
    ProcessId server;
    CallId replied;
  };

  [[nodiscard]] sim::Task<> msg_from_net(runtime::EventContext& ctx);
  /// The entry of `server`, added at its first Reply.
  Owed& owed_entry(ProcessId server);
  /// Arms the idle flush unless it is armed already.
  void arm_flush();
  /// Sends kAck(W) to each server owed one that W covers; re-arms while a
  /// Reply it cannot cover yet belongs to a call still in flight.
  void flush_acks();
  /// One change to the checkpointed tables; the values are stored bytes.
  enum class Change : std::uint8_t { kCallSeen = 0, kResultStored = 1, kResultFreed = 2 };
  static void write_change(Writer& w, Change op, CallId id, const Buffer* result = nullptr);
  void journal_change(Change op, CallId id, const Buffer* result = nullptr);
  /// Frees every stored result of `client` below `watermark`, journaling
  /// each; nothing when the watermark names another client.
  void free_below(ProcessId client, CallId watermark);

  GrpcState& state_;
  runtime::Framework* fw_ = nullptr;
  sim::Duration idle_ack_delay_;
  bool flush_armed_ = false;
  /// One entry per server that ever replied, found by a linear search: a
  /// client talks to few servers, and the table allocates nothing per call.
  std::vector<Owed> owed_;
  std::set<CallId> old_calls_;
  std::map<CallId, Buffer> old_results_;
  std::uint64_t duplicates_suppressed_ = 0;
  std::uint64_t ack_messages_sent_ = 0;
};

}  // namespace ugrpc::core
