// FIFO Order micro-protocol (paper section 4.4.6).
//
// Guarantees that the calls of any one client are executed in the same
// (issue) order at every server.  Implementation: a HOLD gate; a call is
// released only when its id is the next expected id of its client, and the
// reply handler releases an arrived successor into a fiber of its own.  A
// client's stream (or a new incarnation's) starts at the low watermark W
// that its first-seen Call carries (grpc_state.h), not at that Call's id:
// the calls from W on are still to be executed, even if their first copies
// were lost or overtaken, and every call below W has completed.  A Call
// without a usable W starts the stream at its own id.  A server that joins
// mid-stream (e.g. after recovery) thus starts from the stream position it
// can observe -- later calls are ordered, earlier ones are dropped as
// stale, which preserves the relative-order guarantee (execution sequences
// are subsequences of the issue order).  A stream that already runs is not
// advanced past a gap: a call that completed at the client without ever
// reaching this server still stalls it.
//
// Checkpoint (with Atomic Execution): a change is one client's new stream
// position, `client:u32 inc:u32 next:u64`.  Every change to a position is
// journaled -- a stream started or restarted when a call arrives, and an
// advance when one executes -- so a delta record restores exactly what a
// full snapshot would.
//
// Per the paper, FIFO Order deliberately allows duplicate and concurrent
// execution -- combine with Unique/Serial Execution to remove those.
// Depends on Reliable Communication (every server must receive the set of
// messages; paper Figure 2/4).
#pragma once

#include <unordered_map>

#include "core/events.h"
#include "core/grpc_state.h"
#include "runtime/micro_protocol.h"

namespace ugrpc::core {

class FifoOrder : public runtime::MicroProtocol, public CheckpointParticipant {
 public:
  explicit FifoOrder(GrpcState& state) : MicroProtocol("FIFO Order"), state_(state) {
    state_.checkpoint_participants.push_back(this);
  }

  void start(runtime::Framework& fw) override;

  // CheckpointParticipant: with Atomic Execution configured, the per-client
  // stream positions survive a crash, so a recovered member continues each
  // client's stream instead of restarting at its first re-seen id.
  void encode_state(Writer& w) const override;
  void apply(Reader& r) override;

 private:
  [[nodiscard]] sim::Task<> call_from_net(runtime::EventContext& ctx);
  void mark_executed(runtime::EventContext& ctx);

  struct InProgress {
    Incarnation inc = 0;
    CallId next;  ///< next call id allowed to execute for this client
  };
  static void write_position(Writer& w, ProcessId client, const InProgress& info);
  /// Sets `info`, the entry of `client` in in_progress_, to `to`.
  void set_position(ProcessId client, InProgress& info, InProgress to);

  GrpcState& state_;
  std::unordered_map<ProcessId, InProgress> in_progress_;
};

}  // namespace ugrpc::core
