// Unique Execution micro-protocol (paper section 4.4.5).
//
// Guarantees a call is not executed more than once at each server: the
// server remembers which calls it has seen (OldCalls) and keeps each call's
// result (OldResults) until the client acknowledges the Reply.  A duplicate
// of a completed call is answered from OldResults; a duplicate of an
// in-progress call is discarded.  On the client side, received Replies are
// acknowledged so the server can garbage-collect -- but not one message per
// Reply: acknowledgements are queued per destination and flushed by a single
// coalesced timer as one batched ACK (extra ids ride in the args field; see
// net/message.h), or piggybacked onto retransmitted Calls by Reliable
// Communication.  The Reply itself already serves as the receipt
// acknowledgement for Reliable Communication, so deferring the explicit ACK
// only delays server-side GC, never retransmission suppression.
//
// Combined with RPC Main + Reliable Communication this upgrades
// "at least once" to "exactly once" (paper Figure 1).  The duplicate tables
// are volatile; to preserve uniqueness across a server crash, configure
// Atomic Execution, which includes this micro-protocol's tables in its
// checkpoints (CheckpointParticipant).  A change to the tables -- a call
// seen, a result stored, a result freed by an ACK -- is encoded as
//   op:u8 id:u64 [result:raw if op is kResultStored]
// The whole state is the calls seen and the results stored; with Atomic
// Execution every change is also journaled, and each checkpoint delta
// carries just those changes.
#pragma once

#include <map>
#include <set>

#include "core/events.h"
#include "core/grpc_state.h"
#include "runtime/micro_protocol.h"

namespace ugrpc::core {

class UniqueExecution : public runtime::MicroProtocol, public CheckpointParticipant {
 public:
  explicit UniqueExecution(GrpcState& state)
      : MicroProtocol("Unique Execution"), state_(state) {
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
  /// ACK messages actually sent vs. acknowledgements delivered: the gap is
  /// what batching and piggybacking saved (observability for tests/benches).
  [[nodiscard]] std::uint64_t ack_messages_sent() const { return ack_messages_sent_; }
  [[nodiscard]] std::uint64_t acks_queued() const { return acks_queued_; }

 private:
  [[nodiscard]] sim::Task<> msg_from_net(runtime::EventContext& ctx);
  void queue_ack(ProcessId dest, std::uint64_t id);
  void flush_acks();
  /// One change to the checkpointed tables; the values are stored bytes.
  enum class Change : std::uint8_t { kCallSeen = 0, kResultStored = 1, kResultFreed = 2 };
  static void write_change(Writer& w, Change op, CallId id, const Buffer* result = nullptr);
  void journal_change(Change op, CallId id, const Buffer* result = nullptr);
  /// Erases a stored result once its ACK arrives (journaled only if present).
  void free_result(CallId id);

  GrpcState& state_;
  runtime::Framework* fw_ = nullptr;
  bool flush_armed_ = false;
  std::set<CallId> old_calls_;
  std::map<CallId, Buffer> old_results_;
  std::uint64_t duplicates_suppressed_ = 0;
  std::uint64_t ack_messages_sent_ = 0;
  std::uint64_t acks_queued_ = 0;
};

}  // namespace ugrpc::core
