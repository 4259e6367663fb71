// Shared data of the gRPC composite protocol (paper section 4.2).
//
// The framework "supports shared data (e.g., messages) that can be accessed
// by the micro-protocols configured into the framework".  GrpcState is that
// shared data: the client-side pending-call table (pRPC), the server-side
// table (sRPC), the HOLD readiness array, the live-member set, the serial
// semaphore, the checkpoint participants (with the journal each keeps for
// Atomic Execution), and handles to the neighbouring protocols (the network
// below, the user protocol above).
//
// Call-id scheme: the paper indexes both tables by a bare integer call id
// assigned per client.  With multiple clients those ids would collide at the
// servers, so we make ids globally unique by packing the client's process id
// into the high bits and a per-client sequence number into the low bits.
// Low bits increment by one per call, preserving the consecutive-id
// assumption FIFO Order relies on (next expected id = id + 1).
//
// Low watermark: every Call carries its client's W (GrpcState::low_watermark)
// in the otherwise unused `ackid` field.  Unique Execution raises the
// client's floor to it, and FIFO Order starts a client's stream at it
// (call_watermark says when a Call's field may be trusted as one).
//
// Ownership: pRPC and sRPC own their records by value, one map node each,
// and the two call events hand handlers the record itself, not an id to
// look up.  An execution runs on its own copy of its ServerRecord, taken
// when its last gate opens; the row stays in sRPC meanwhile, so the
// watchdog and /introspect see executing calls, and a retransmission may
// replace it (an at-least-once stack runs the call again).  Each arrival
// gets a per-site stamp, and an execution erases the row at its end only if
// the row still holds its own arrival.  A pointer from find_client or
// find_server is not held across a co_await: the row may be gone after it.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/buffer.h"
#include "common/ids.h"
#include "common/status.h"
#include "net/message.h"
#include "net/transport.h"
#include "obs/trace.h"
#include "sim/scheduler.h"
#include "sim/sync.h"

namespace ugrpc::core {

/// Demux key of the gRPC composite on the network fabric.
inline constexpr ProtocolId kGrpcProto{1};

// ---- globally unique call ids ----

inline constexpr int kCallSeqBits = 40;
/// Within the 40-bit sequence space, the high bits carry the client's
/// incarnation so a recovered client never reuses the ids of its orphaned
/// calls.  (The paper's per-client `next_id` is volatile and restarts at the
/// same value after a crash; with Unique Execution configured the reused id
/// would make the server treat the recovered client's new call as a
/// duplicate of the orphan and answer it with the orphan's result.  See
/// DESIGN.md.)  Ids stay consecutive within one incarnation, which FIFO
/// Order relies on.
inline constexpr int kIncarnationShift = 28;

[[nodiscard]] constexpr std::uint64_t first_seq_of_incarnation(Incarnation inc) {
  return (static_cast<std::uint64_t>(inc) << kIncarnationShift) + 1;
}

[[nodiscard]] constexpr CallId make_call_id(ProcessId client, std::uint64_t seq) {
  return CallId{(static_cast<std::uint64_t>(client.value()) << kCallSeqBits) | seq};
}
[[nodiscard]] constexpr std::uint64_t call_seq(CallId id) {
  return id.value() & ((std::uint64_t{1} << kCallSeqBits) - 1);
}
[[nodiscard]] constexpr ProcessId call_client(CallId id) {
  return ProcessId{static_cast<std::uint32_t>(id.value() >> kCallSeqBits)};
}
/// The next call id issued by the same client (consecutive low bits).
[[nodiscard]] constexpr CallId next_call_id(CallId id) { return CallId{id.value() + 1}; }

/// The low watermark W a Call carries in its ackid, or nullopt when the
/// field cannot be one: W must name the Call's own client and lie in the
/// Call's incarnation, at or below the Call's id.
[[nodiscard]] inline std::optional<CallId> call_watermark(const net::NetMessage& call) {
  const CallId w{call.ackid};
  const ProcessId client = call_client(call.id);
  if (call_client(w) != client || call.id < w ||
      w < make_call_id(client, first_seq_of_incarnation(call.inc))) {
    return std::nullopt;
  }
  return w;
}

// ---- HOLD array ----

/// Indices into the HOLD/hold readiness arrays.  HOLD[i] is set by a
/// micro-protocol that wants to gate execution; a call executes only when
/// its per-call hold array matches HOLD (paper section 4.2).
enum HoldIndex : std::size_t {
  kHoldMain = 0,
  kHoldFifo = 1,
  kHoldTotal = 2,
  kHoldCount = 3,
};

using HoldArray = std::array<bool, kHoldCount>;

// ---- client-side table (pRPC) ----

/// Per-server response bookkeeping (`waiting_list` in the paper).
struct PendingServer {
  ProcessId server;
  bool acked = false;  ///< Reliable Communication: the server replied
  bool done = false;   ///< Acceptance: response received (or server failed)
  /// Reliable Communication: when the Call last went to this server, and how
  /// often it was retransmitted (the timeout doubles per retry; a Reply
  /// yields a round-trip sample only while this is 0, Karn's rule).
  sim::Time sent_at = 0;
  int retries = 0;
};

struct ClientRecord {
  ClientRecord(sim::Scheduler& sched, CallId id_, OpId op_, Buffer args_, GroupId server_)
      : id(id_), op(op_), args(args_), request_args(std::move(args_)), server(server_),
        sem(sched, 0) {}

  CallId id;
  OpId op;
  Buffer args;          ///< result accumulator (Collation overwrites this)
  /// Immutable copy of the marshalled request.  The paper stores only one
  /// `args` field, which Collation overwrites at NEW_RPC_CALL -- Reliable
  /// Communication would then retransmit the accumulator instead of the
  /// request.  Keeping the request separately fixes that (see DESIGN.md).
  Buffer request_args;
  GroupId server;
  sim::Semaphore sem;  ///< client thread blocks here until the call completes
  int nres = 0;        ///< responses still required (Acceptance)
  std::vector<PendingServer> pending;  ///< one per server group member, in group order
  Status status = Status::kWaiting;
  bool collecting = false;  ///< a fiber waits to collect the result; no second may
  /// Root span of this call's trace (obs layer), opened by the kCallIssued
  /// record and closed by kCallCompleted; 0 when tracing is off.
  /// Retransmission timers re-enter the context {id, span} so late sends
  /// stay on the original trace.
  std::uint64_t span = 0;
  /// Transport time the call was issued; Bounded Termination's deadline is
  /// this plus the bound, the live-telemetry introspection reports pending
  /// ages from it and the stall watchdog compares it against the bound.
  sim::Time issued_at = 0;
  /// The entry of `server`, or nullptr when it is not in the group.
  [[nodiscard]] PendingServer* pending_for(ProcessId server) {
    auto it = std::ranges::find(pending, server, &PendingServer::server);
    return it != pending.end() ? &*it : nullptr;
  }
};

// ---- server-side table (sRPC) ----

struct ServerRecord {
  CallId id;
  OpId op;
  Buffer args;      ///< request args; overwritten with results by the procedure
  GroupId server;
  ProcessId client;
  Incarnation client_inc = 0;
  HoldArray hold{};  ///< which gating properties have been satisfied
  /// Transport time the Call message arrived; entries pending far past the
  /// termination bound are flagged as orphaned by the stall watchdog.
  sim::Time arrived_at = 0;
  std::uint64_t arrival = 0;  ///< which arrival created it (GrpcState::arrivals)
};

// ---- checkpoint participation (Atomic Execution) ----

/// Micro-protocols with volatile state that must survive a crash for the
/// configured semantics to hold across recovery (e.g. Unique Execution's
/// duplicate tables) register themselves here, in their constructors;
/// Atomic Execution includes them in every checkpoint.
///
/// A participant's state has one encoding: a list of changes, each one a
/// record of the participant's own format, replayed in order by apply().
/// encode_state() writes the whole state as the changes that rebuild it
/// from empty.  While Atomic Execution runs, every change is also written,
/// in that same encoding, to a journal this class keeps.  Atomic Execution
/// stores a chain: a base record whose parts are encode_state(), then delta
/// records whose parts are the journal since the previous record.  Recovery
/// applies every record's part the same way, oldest first.
class CheckpointParticipant {
 public:
  CheckpointParticipant() = default;
  // The journal's writer holds the journal's address.
  CheckpointParticipant(const CheckpointParticipant&) = delete;
  CheckpointParticipant& operator=(const CheckpointParticipant&) = delete;
  virtual ~CheckpointParticipant() = default;

  /// The whole state, as the changes that rebuild it from empty.
  virtual void encode_state(Writer& w) const = 0;
  /// Replays changes until `r` is at its end; throws CodecError on a
  /// malformed one.
  virtual void apply(Reader& r) = 0;

  /// Atomic Execution turns the journal on.  Off, nothing accumulates.
  void start_journal() { journaling_ = true; }
  /// The changes not yet held by a committed checkpoint record.
  [[nodiscard]] std::span<const std::byte> journaled() const { return journal_.bytes(); }
  /// Marks the changes journaled so far as held by the record being written.
  void mark_journal() { marked_ = journal_.size(); }
  /// The record holding the marked changes is committed: drops them.  Never
  /// earlier, so a record lost to a crash or a killed writer costs no
  /// change, and changes journaled during its write stay for the next one.
  void forget_journal() {
    if (marked_ == journal_.size()) {
      journal_.clear();  // the usual case; keeps the capacity
    } else if (marked_ != 0) {
      journal_ = Buffer::copy_of(journal_.bytes().subspan(marked_));
    }
    marked_ = 0;
  }

 protected:
  /// Where to write a change as it happens; nullptr while the journal is off.
  [[nodiscard]] Writer* journal() { return journaling_ ? &journal_writer_ : nullptr; }

 private:
  Buffer journal_;
  Writer journal_writer_{journal_};
  std::size_t marked_ = 0;
  bool journaling_ = false;
};

class UserProtocol;  // defined in user_protocol.h

/// The shared data structure hosted by the gRPC framework.
///
/// The paper guards pRPC and sRPC with P/V on two table mutexes; there are
/// none here.  A site's code runs on a single-threaded cooperative executor
/// that switches fibers only at a co_await, so the one condition those
/// locks stood for is: code that reads and then writes pRPC or sRPC must
/// not co_await in between.  Such code then runs atomically.
struct GrpcState {
  GrpcState(net::Transport& transport_, net::Endpoint& endpoint_, ProcessId my_id_)
      : transport(transport_), sched(transport_.executor()), endpoint(endpoint_), my_id(my_id_),
        serial(sched, 1) {}

  net::Transport& transport;
  /// The transport's cooperative executor, for synchronization primitives
  /// and fiber control.  Traffic and timers go through `transport`.
  sim::Scheduler& sched;
  net::Endpoint& endpoint;
  ProcessId my_id;
  Incarnation inc_number = 1;   ///< this site's current incarnation
  std::uint64_t next_seq = 1;   ///< per-client call sequence counter

  // Client side.
  std::map<CallId, ClientRecord> pRPC;

  // Server side.
  std::map<CallId, ServerRecord> sRPC;
  HoldArray HOLD{};
  std::uint64_t arrivals = 0;  ///< calls stored in sRPC so far: the last arrival stamp

  /// Live members, maintained by the composite from MEMBERSHIP_CHANGE
  /// events; without a membership service it stays as initialized (the
  /// paper: "the set Members will remain constant").
  std::set<ProcessId> members;

  /// Serial Execution's semaphore, plus the fiber currently holding it (used
  /// by Terminate Orphan to release the token of a killed thread).
  sim::Semaphore serial;
  std::optional<FiberId> serial_holder;

  /// Checkpoint participants (see above), in assembly order.
  std::vector<CheckpointParticipant*> checkpoint_participants;

  /// RPC Main's exported forward_up procedure (set in RpcMain::start): opens
  /// one HOLD gate of a call, at most once per arrival, and executes the call
  /// once all are open.  An ordering micro-protocol awaits it only for the
  /// call of the message in hand; any other held call goes through release().
  std::function<sim::Task<>(CallId, HoldIndex)> forward_up;
  DomainId domain{};  ///< the site's fiber domain (set in RpcMain::start)

  /// Records kCallReleased and opens gate `gate` of held call `id` in a fiber
  /// of its own, so no reply chain executes another call.
  void release(CallId id, HoldIndex gate) {
    note(obs::Kind::kCallReleased, id.value(), gate);
    transport.spawn(forward_up(id, gate), domain);
  }

  /// The user protocol above gRPC (server procedure entry point).
  UserProtocol* user = nullptr;

  /// This site's trace ring (obs layer), the endpoint's; nullptr = tracing
  /// off.  All micro-protocols record through note() so every record site
  /// stays a single pointer check.
  [[nodiscard]] obs::SiteTrace* trace() const { return endpoint.trace(); }

  /// gRPC messages dropped because their bytes did not decode (the demux
  /// below the framework, Total Order's Order and OrderInfo args) or, at
  /// the demux, a Call naming a group this site is not a member of.  The
  /// trace record is the count; `malformed` keeps the rate-limited log.
  net::MalformedDrops malformed;
  void drop_malformed(ProcessId from, const CodecError& e) {
    malformed.note("grpc", from, transport.now(), e.what());
    note(obs::Kind::kMsgMalformed, 0, from.value());
  }

  /// Records `kind` on this site's ring.  A non-zero `closes` makes the
  /// record the close of that span (kCallCompleted, kExecCommitted).
  void note(obs::Kind kind, std::uint64_t call = 0, std::uint64_t a = 0, std::uint64_t b = 0,
            std::uint64_t closes = 0) {
    if (obs::SiteTrace* ring = trace()) {
      if (closes != 0) {
        ring->close(transport.now(), closes, kind, call, a, b);
      } else {
        ring->record(transport.now(), kind, call, a, b);
      }
    }
  }
  /// Records `kind` as the opening record of a span under `parent` and makes
  /// the span the running fiber's ambient context, so the work it causes
  /// hangs beneath it.  Returns the span id (0 when tracing is off).
  std::uint64_t note_open(obs::Kind kind, const obs::SpanCtx& parent, std::uint64_t call,
                          std::uint64_t a, std::uint64_t b) {
    obs::SiteTrace* ring = trace();
    if (ring == nullptr) return 0;
    const obs::SpanCtx ctx = ring->open(transport.now(), kind, parent, call, a, b);
    sched.set_ambient(ctx);
    return ctx.parent;
  }

  // ---- helpers ----

  /// This client's low watermark W, stamped on every Call it sends: the
  /// lowest id of a call it still waits for -- pRPC's first key, or the next
  /// id it will issue when pRPC is empty.  Every call of this client below
  /// W has completed, so no server needs its result again.  A completed
  /// asynchronous call stays in pRPC until the user collects it, so it holds
  /// W back: W never passes a call whose record is still here.
  [[nodiscard]] CallId low_watermark() const {
    return pRPC.empty() ? make_call_id(my_id, next_seq) : pRPC.begin()->first;
  }

  /// True when this site is a member of `group` (false for an undefined one).
  [[nodiscard]] bool member_of(GroupId group) const {
    const std::vector<ProcessId>* members = transport.find_group(group);
    return members != nullptr &&
           std::find(members->begin(), members->end(), my_id) != members->end();
  }

  [[nodiscard]] ClientRecord* find_client(CallId id) {
    auto it = pRPC.find(id);
    return it != pRPC.end() ? &it->second : nullptr;
  }
  [[nodiscard]] ServerRecord* find_server(CallId id) {
    auto it = sRPC.find(id);
    return it != sRPC.end() ? &it->second : nullptr;
  }

  /// Ends a call still WAITING with `status`: closes the root span of its
  /// trace and releases the blocked client thread.  A call that has already
  /// ended is left alone, so a late reply or deadline cannot V the
  /// semaphore twice (deviation from the paper's unconditional V; see
  /// DESIGN.md).
  void complete(ClientRecord& rec, Status status) {
    if (rec.status != Status::kWaiting) return;
    rec.status = status;
    note(obs::Kind::kCallCompleted, rec.id.value(), static_cast<std::uint64_t>(status), 0,
         rec.span);
    rec.sem.release();
  }

  /// Sends a gRPC message point-to-point (Net.push in the paper).
  void net_push(ProcessId dest, const net::NetMessage& msg) {
    endpoint.send(dest, kGrpcProto, msg.encode());
  }
  /// Multicast to a server group (Net.push with a group destination).
  void net_multicast(GroupId group, const net::NetMessage& msg) {
    endpoint.multicast(group, kGrpcProto, msg.encode());
  }
};

}  // namespace ugrpc::core
