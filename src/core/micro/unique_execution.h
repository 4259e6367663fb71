// Unique Execution micro-protocol (paper section 4.4.5).
//
// Guarantees a call is not executed more than once at each server.  In
// place of the paper's OldCalls and OldResults, which grow with every call,
// a server keeps one session per client: a floor; the calls seen and not
// yet pruned, by id (an insert is almost always an append), each with its
// result once replied; and the ranges of ids below the floor that have not
// completed here.  A Call seen before is a duplicate: one with a stored
// result is answered from it, any other dropped.  So is a Call below the
// floor outside the missed ranges.  Any other Call runs.
//
// The floor is the client's low watermark W (grpc_state.h): every call of
// that client below W has completed at the client.  Raising the floor prunes
// the completed calls below it.  W is trusted only when it names the Call's
// own client, in the Call's incarnation, at or below the Call's id
// (call_watermark); a kAck's W must name its sender.  Under acceptance <
// ALL, W can pass a call still on its way to a slower server, or running
// there: it stays missed until it completes.  A floor in a new incarnation
// forgets the old one, so that incarnation's orphans are dropped.
//
// A client that keeps calling sends no ACK.  One that goes idle would leave
// its last results stored, so the client keeps, per server, the highest id
// it replied to since that server was last sent a W, and one timer, armed
// at a Reply for `idle_ack_delay` (Reliable Communication's
// retrans_timeout).  When it fires, each such server whose Reply W now
// covers gets kAck(W); while the call holding W back is in flight, it looks
// again later.  A lost ACK only delays garbage collection (DESIGN.md section 7).
//
// With RPC Main + Reliable Communication this upgrades "at least once" to
// "exactly once" (paper Figure 1).  Sessions are volatile; Atomic Execution
// checkpoints them (CheckpointParticipant) as the changes
//   kResultStored: op:u8 id:u64 result:raw
//   kFloor: op:u8 w:u64 n:u64, then n missed ranges lo:u64 hi:u64
// (W's high bits name the client).  A base is each session's kFloor and
// stored results.  A running call is not checkpointed: Serial Execution
// runs no call while a record is written, so after a crash its
// retransmission must execute.
#pragma once

#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>
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

  void encode_state(Writer& w) const override;
  void apply(Reader& r) override;

  /// Session entries: the calls seen and not yet pruned.
  [[nodiscard]] std::size_t old_calls() const { return count([](const Entry&) { return true; }); }
  /// The entries that hold a result: replied, not yet acknowledged.
  [[nodiscard]] std::size_t stored_results() const {
    return count([](const Entry& e) { return e.result.has_value(); });
  }
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

  void call_from_net(runtime::EventContext& ctx);
  /// The entry of `server`, added at its first Reply.
  Owed& owed_entry(ProcessId server);
  /// Arms the idle flush unless it is armed already.
  void arm_flush();
  /// Sends kAck(W) to each server owed one that W covers; re-arms while a
  /// Reply it cannot cover yet belongs to a call still in flight.
  void flush_acks();

  /// A call seen and not yet pruned; its result once replied.
  struct Entry {
    CallId id;
    std::optional<Buffer> result;
  };
  using Range = std::pair<CallId, CallId>;  ///< the ids in [first, second)
  struct Session {
    CallId floor;                ///< the client's highest trusted W
    std::vector<Range> missed;   ///< ids below `floor` not completed here
    std::vector<Entry> entries;  ///< by id; below `floor` only while running
  };

  enum class Change : std::uint8_t { kResultStored = 0, kFloor = 1 };
  static void write_floor(Writer& w, const Session& s);
  static void write_result(Writer& w, CallId id, const Buffer& result);
  [[nodiscard]] std::size_t count(const std::function<bool(const Entry&)>& pred) const;
  /// The session of `client`, made with the lowest floor at its first use.
  Session& session(ProcessId client);
  /// Marks `id` seen; true when it may run.  Its entry, or nullptr when it
  /// is dropped below the floor.  A running call is not journaled.
  std::pair<Entry*, bool> see(CallId id);
  // Each writes its change to `out` unless that is null or nothing changed.
  void raise_floor(CallId w, Writer* out);
  void store_result(CallId id, const Buffer& result, Writer* out);

  GrpcState& state_;
  runtime::Framework* fw_ = nullptr;
  sim::Duration idle_ack_delay_;
  bool flush_armed_ = false;
  /// One entry per server that ever replied, found by a linear search: a
  /// client talks to few servers, and the table allocates nothing per call.
  std::vector<Owed> owed_;
  /// One session per client that ever called: no node per call.
  std::unordered_map<ProcessId, Session> sessions_;
  std::uint64_t duplicates_suppressed_ = 0;
  std::uint64_t ack_messages_sent_ = 0;
};

}  // namespace ugrpc::core
