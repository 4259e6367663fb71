// Terminate Orphan micro-protocol (paper section 4.4.7).
//
// Kills orphan computations as soon as they are detected.  Detection is the
// paper's first option: receiving a call from a newer incarnation of a
// client proves the previous incarnation died, so every thread still
// executing that client's older calls is an orphan and is killed
// (my_thread()/kill(thread) map to Scheduler::current_fiber()/kill()).
//
// Thread tracking deviation: the paper records my_thread() at message
// arrival, but with ordering micro-protocols the executing thread can be a
// different fiber (GrpcState::release spawns one for a held call).  We
// record the executing fiber, call and arrival on EXECUTE_CALL, immediately
// before the procedure runs; a kill targets the fiber and, as
// the end of the execution would, erases the row if it holds that arrival.
// Likewise, the paper V's the serial semaphore once per killed thread,
// over-releasing when the victim never held the token; we release it only
// when the victim is the current holder (see serial_execution.h).
//
// The paper also names a second detection approach -- "by periodically
// probing the client" -- but implements only the first.  We provide both:
// when a membership service is configured (it heartbeats clients too, which
// is the probing), a MEMBERSHIP_CHANGE failure of a client kills its
// threads immediately, covering clients that crash and never come back.
#pragma once

#include <map>
#include <unordered_map>
#include <utility>

#include "core/events.h"
#include "core/grpc_state.h"
#include "runtime/micro_protocol.h"

namespace ugrpc::core {

class TerminateOrphan : public runtime::MicroProtocol {
 public:
  explicit TerminateOrphan(GrpcState& state)
      : MicroProtocol("Terminate Orphan"), state_(state) {}

  void start(runtime::Framework& fw) override;

 private:
  void call_from_net(runtime::EventContext& ctx);
  void handle_reply(runtime::EventContext& ctx);
  void client_failure(runtime::EventContext& ctx);

  struct ClientInfo {
    Incarnation inc = 0;
    /// Fibers executing this client's calls: the call and its arrival stamp.
    std::map<FiberId, std::pair<CallId, std::uint64_t>> threads;
  };

  void kill_threads(ProcessId client, ClientInfo& info);

  GrpcState& state_;
  std::unordered_map<ProcessId, ClientInfo> cinfo_;
};

}  // namespace ugrpc::core
