// Canonical handler priorities for the gRPC micro-protocols.
//
// The framework runs handlers of one event in ascending priority order
// (paper: "executed in priority order"; omitted priority runs last).  The
// paper's example priorities contain collisions and two ordering hazards, so
// we renumber on a single scale while preserving every ordering the paper's
// correctness depends on.  No two handlers of one event share a priority in
// any valid configuration (composite_test checks all 198), so the order of
// every chain comes from this file, never from assembly order.  Deviations
// (documented in DESIGN.md):
//
//  1. Collation runs BEFORE Acceptance on a Reply (paper: after).  With the
//     paper's order the accepting V() can wake the client before the final
//     reply is folded in; folding first removes the race.  Collation
//     therefore performs the duplicate-reply check itself (only replies not
//     yet counted `done` are folded), since Acceptance's duplicate
//     cancellation now happens after it.
//
//  2. Serial Execution does not P(serial) at message arrival (paper's
//     placement): with FIFO/Total ordering a call whose execution is being
//     held back would acquire the token at arrival and deadlock the call
//     that must execute first.  It P()s on EXECUTE_CALL instead, the event
//     RPC Main triggers once a call's gates are all open, immediately before
//     invoking the procedure (see serial_execution.h).  A call the ordering
//     protocols release runs in a fiber of its own and waits there for the
//     token, so the serial V() needs no place relative to them.
#pragma once

namespace ugrpc::core {

// ---- *_FROM_NETWORK: one scale, the paper's MSG_FROM_NETWORK chain ----
inline constexpr int kPrioNetAssignOrder = 10;  ///< Call: Total Order leader assigns order
inline constexpr int kPrioNetReliable = 20;     ///< Reply: Reliable Comm marks acked
/// Orphan handling runs BEFORE Unique Execution: Interference Avoidance
/// defers a new-incarnation call by cancelling the event and relying on the
/// client's retransmissions -- if Unique Execution saw the call first it
/// would record it in its session and then suppress every retransmission as a
/// duplicate, so the deferred call could never be admitted.  (The paper
/// gives both handlers priority 2 and leaves the order to chance.)
inline constexpr int kPrioNetOrphan = 25;       ///< Call: Interference Avoidance / Terminate Orphan
inline constexpr int kPrioNetUnique = 30;       ///< Call, Reply, ACK: Unique Execution
inline constexpr int kPrioNetCollation = 45;    ///< Reply: Collation folds it (see note 1)
inline constexpr int kPrioNetMain = 50;         ///< Call: RPC Main records it, forward_up
inline constexpr int kPrioNetAcceptance = 55;   ///< Reply: Acceptance counts it
inline constexpr int kPrioNetOrderDeliver = 60; ///< Call, Order*: FIFO/Total bookkeeping + deliver

// ---- CALL_FROM_USER ----
inline constexpr int kPrioUserMain = 10;        ///< RPC Main: create record, send
// Synchronous Call registers with the default (lowest) priority, exactly as
// in the paper: it blocks after RPC Main has sent the call.

// ---- EXECUTE_CALL ----
// Terminate Orphan tracks the fiber before Serial Execution may park it on
// the token (note 2), so a fiber parked there is already killable.
inline constexpr int kPrioExecOrphan = 10;
inline constexpr int kPrioExecSerial = 20;

// ---- NEW_RPC_CALL ----
inline constexpr int kPrioNewReliable = 10;     ///< reset acked flags
inline constexpr int kPrioNewAcceptance = 20;   ///< compute nres / done flags
inline constexpr int kPrioNewCollation = 30;    ///< initialize accumulator
inline constexpr int kPrioNewBounded = 40;      ///< arm the per-call deadline
inline constexpr int kPrioNewUnique = 50;       ///< Unique Exec: the Call tells its servers W

// ---- REPLY_FROM_SERVER ----
// The ordering protocols' one reply handler advances next_entry / the
// per-client stream position before the Atomic Execution checkpoint, or a
// recovered member would resume expecting to re-execute the call it just
// completed.  It also releases the next held call (GrpcState::release),
// which runs in a fiber of its own: not before this chain yields, and then
// only up to the serial token this call holds until kPrioReplySerial, so
// the checkpoint never sees the next call's effects.
inline constexpr int kPrioReplyUnique = 10;      ///< store result for dup answers
inline constexpr int kPrioReplyOrphan = 20;      ///< orphan bookkeeping
inline constexpr int kPrioReplyOrderMark = 25;   ///< FIFO/Total: advance position, release next
inline constexpr int kPrioReplyAtomic = 30;      ///< checkpoint (post-position)
inline constexpr int kPrioReplySerial = 40;      ///< release serial token (see note 2)

// ---- RECOVERY ----
inline constexpr int kPrioRecoveryMain = 10;     ///< RPC Main: adopt the new incarnation
inline constexpr int kPrioRecoveryAtomic = 20;   ///< Atomic Execution: restore the checkpoint

// ---- MEMBERSHIP_CHANGE ----
inline constexpr int kPrioMemberOrphan = 10;     ///< Terminate Orphan: a client failed
inline constexpr int kPrioMemberAcceptance = 20; ///< Acceptance: a server failed
inline constexpr int kPrioMemberOrder = 30;      ///< Total Order: leader change

}  // namespace ugrpc::core
