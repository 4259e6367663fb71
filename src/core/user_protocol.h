// The user protocol sitting above gRPC.
//
// On the server side it owns the actual remote procedure: gRPC delivers a
// call by invoking pop(op, args) -- the x-kernel upcall -- which runs the
// registered procedure.  The procedure mutates `args` in place: on entry
// they are the marshalled request, on return the marshalled result (the
// paper treats arguments as "one continuous untyped field").  The call is
// blocking: gRPC awaits its completion before sending the Reply.
//
// For Atomic Execution the application may register snapshot/restore hooks
// covering whatever server state must be rolled back on recovery (both
// volatile and stable state, per paper section 4.4.5).
#pragma once

#include <functional>
#include <utility>

#include "common/buffer.h"
#include "common/ids.h"
#include "sim/task.h"

namespace ugrpc::core {

class UserProtocol {
 public:
  using Procedure = std::function<sim::Task<>(OpId op, Buffer& args)>;
  using Snapshot = std::function<Buffer()>;
  using Restore = std::function<void(const Buffer&)>;

  /// Installs the server procedure (dispatch over OpId is the application's
  /// concern; src/stub provides typed helpers).
  void set_procedure(Procedure procedure) { procedure_ = std::move(procedure); }

  /// Installs state capture hooks used by Atomic Execution's checkpoints.
  void set_state_hooks(Snapshot snapshot, Restore restore) {
    snapshot_ = std::move(snapshot);
    restore_ = std::move(restore);
  }

  /// Upcall from gRPC (Server.pop in the paper).  Blocking.
  [[nodiscard]] sim::Task<> pop(OpId op, Buffer& args) {
    ++executions_;
    if (procedure_) co_await procedure_(op, args);
  }

  [[nodiscard]] Buffer snapshot_state() const { return snapshot_ ? snapshot_() : Buffer{}; }
  void restore_state(const Buffer& state) const {
    if (restore_) restore_(state);
  }

  /// Number of procedure invocations at this site since boot -- the
  /// observable that the failure-semantics experiments (Figure 1) measure.
  [[nodiscard]] std::uint64_t executions() const { return executions_; }

 private:
  Procedure procedure_;
  Snapshot snapshot_;
  Restore restore_;
  std::uint64_t executions_ = 0;
};

}  // namespace ugrpc::core
