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
// checkpoints (CheckpointParticipant).  With it, every change to the tables
// -- a call seen, a result stored, a result freed by an ACK -- is journaled,
// and each checkpoint delta carries just those changes.
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
      : MicroProtocol("Unique Execution"), state_(state) {}

  void start(runtime::Framework& fw) override;

  // CheckpointParticipant: the duplicate-suppression tables are part of the
  // server state that Atomic Execution rolls back on recovery.
  void encode_state(Writer& w) const override;
  void decode_state(Reader& r) override;
  // A delta carries every change journaled since the last committed record,
  // in order: OldCalls inserts, stored results and freed results.  Layout:
  //   n:u32 (op:u8 id:u64 [result:raw if op is kResultStored])*n
  void encode_delta(Writer& w) const override;
  void apply_delta(Reader& r) override;
  [[nodiscard]] std::uint64_t journal_end() const override { return journal_.end(); }
  void forget_journal(std::uint64_t end) override { journal_.forget(end); }

  [[nodiscard]] std::size_t old_calls() const { return old_calls_.size(); }
  [[nodiscard]] std::size_t stored_results() const { return old_results_.size(); }
  /// OldResults: the stored result of each call not yet acknowledged.
  [[nodiscard]] const std::map<CallId, Buffer>& results() const { return old_results_; }
  /// Table changes (OldCalls inserts, OldResults stores and frees) not yet
  /// held by a committed checkpoint record (always 0 without Atomic
  /// Execution).
  [[nodiscard]] std::size_t journaled() const { return journal_.entries().size(); }
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
  struct JournalEntry {
    Change op;
    CallId id;
    Buffer result;  ///< kResultStored only; an O(1) copy-on-write share
  };
  void journal(Change op, CallId id, Buffer result = {});
  /// Erases a stored result once its ACK arrives (journaled only if present).
  void free_result(CallId id);

  GrpcState& state_;
  runtime::Framework* fw_ = nullptr;
  bool flush_armed_ = false;
  std::set<CallId> old_calls_;
  std::map<CallId, Buffer> old_results_;
  CheckpointJournal<JournalEntry> journal_;  ///< table changes for the next delta
  std::uint64_t duplicates_suppressed_ = 0;
  std::uint64_t ack_messages_sent_ = 0;
  std::uint64_t acks_queued_ = 0;
};

}  // namespace ugrpc::core
