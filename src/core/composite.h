// The gRPC composite protocol: framework + shared state + configured
// micro-protocols, exporting the x-kernel-style interface
// (push from the user above, pop from the network below).
#pragma once

#include <memory>
#include <set>

#include "core/config.h"
#include "core/events.h"
#include "core/grpc_state.h"
#include "core/user_protocol.h"
#include "net/transport.h"
#include "runtime/composite.h"
#include "storage/stable_store.h"

namespace ugrpc::core {

class RpcMain;
class ReliableCommunication;
class BoundedTermination;
class UniqueExecution;
class AtomicExecution;
class FifoOrder;
class TotalOrder;
class InterferenceAvoidance;
class TerminateOrphan;

class GrpcComposite : public runtime::CompositeProtocol {
 public:
  /// Builds, wires and starts a composite realizing `config` on `transport`
  /// (traffic through `endpoint`, timers and fibers through the transport's
  /// hooks).  `known` initializes the live-member set (without a membership
  /// service it stays constant, per the paper).  The caller must have
  /// validated the config (asserted here).
  /// The framework and every micro-protocol record on `endpoint`'s ring
  /// (net::Endpoint::trace(), as the endpoint has it now); none leaves
  /// tracing off.
  GrpcComposite(net::Transport& transport, net::Endpoint& endpoint, ProcessId my_id,
                storage::StableStore& stable, UserProtocol& user, const Config& config,
                std::set<ProcessId> known);

  /// Entry points from the user protocol (UPI push), running CALL_FROM_USER
  /// or REQUEST_FROM_USER (the asynchronous call `umsg.id`'s result) in the
  /// calling fiber.  With Synchronous Call a call blocks until it ends.
  [[nodiscard]] sim::Task<> call(UserMessage& umsg);
  [[nodiscard]] sim::Task<> collect(UserMessage& umsg);

  /// To be called after recovery: runs the RECOVERY event chain.
  [[nodiscard]] sim::Task<> signal_recovery(Incarnation inc);

  /// Membership change notification: updates the shared member set and runs
  /// the MEMBERSHIP_CHANGE event chain.
  [[nodiscard]] sim::Task<> notify_membership(ProcessId who, membership::Change change);

  [[nodiscard]] GrpcState& state() { return state_; }
  [[nodiscard]] const Config& config() const { return config_; }

  // Typed access to optional micro-protocols (nullptr when not configured);
  // used by tests and benchmarks for observability.
  [[nodiscard]] ReliableCommunication* reliable() { return reliable_; }
  [[nodiscard]] BoundedTermination* bounded() { return bounded_; }
  [[nodiscard]] UniqueExecution* unique() { return unique_; }
  [[nodiscard]] AtomicExecution* atomic() { return atomic_; }
  [[nodiscard]] FifoOrder* fifo() { return fifo_; }
  [[nodiscard]] TotalOrder* total() { return total_; }
  [[nodiscard]] InterferenceAvoidance* interference() { return interference_; }
  [[nodiscard]] TerminateOrphan* terminator() { return terminator_; }

 private:
  void assemble();

  Config config_;
  GrpcState state_;
  net::Endpoint& endpoint_;
  storage::StableStore& stable_;

  ReliableCommunication* reliable_ = nullptr;
  BoundedTermination* bounded_ = nullptr;
  UniqueExecution* unique_ = nullptr;
  AtomicExecution* atomic_ = nullptr;
  FifoOrder* fifo_ = nullptr;
  TotalOrder* total_ = nullptr;
  InterferenceAvoidance* interference_ = nullptr;
  TerminateOrphan* terminator_ = nullptr;
};

}  // namespace ugrpc::core
