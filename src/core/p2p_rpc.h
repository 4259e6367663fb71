// Compact point-to-point RPC (paper section 4.1).
//
// "Point-to-point RPC can be seen as a special case in this implementation,
// although in practice it would likely be implemented separately to obtain a
// more compact and efficient protocol."  This is that separate
// implementation: one monolithic class, no event framework, no
// micro-protocols -- the same wire format and the same semantics options
// (reliable retransmission, unique execution, bounded termination) compiled
// into straight-line code.  The modularity_tax bench compares it against
// the composite configured with a one-member group to quantify what the
// micro-protocol architecture costs.
#pragma once

#include <map>
#include <optional>
#include <set>

#include "common/buffer.h"
#include "common/ids.h"
#include "common/status.h"
#include "core/service.h"
#include "core/user_protocol.h"
#include "net/message.h"
#include "net/transport.h"
#include "sim/sync.h"

namespace ugrpc::core {

/// Demux key of the compact point-to-point protocol.
inline constexpr ProtocolId kP2pProto{3};

class P2pRpc {
 public:
  struct Options {
    bool reliable = true;
    sim::Duration retrans_timeout = sim::msec(50);
    bool unique_execution = true;
    std::optional<sim::Duration> termination_bound;
  };

  /// One instance per process; acts as both client and server half.
  P2pRpc(net::Transport& transport, net::Endpoint& endpoint, ProcessId my_id, UserProtocol& user,
         Options options);
  ~P2pRpc();

  P2pRpc(const P2pRpc&) = delete;
  P2pRpc& operator=(const P2pRpc&) = delete;

  /// Synchronous point-to-point call.
  [[nodiscard]] sim::Task<CallResult> call(ProcessId server, OpId op, Buffer args);

  [[nodiscard]] std::uint64_t retransmissions() const { return retransmissions_; }
  /// Packets dropped because they did not decode.
  [[nodiscard]] std::uint64_t malformed_dropped() const { return malformed_.count(); }

 private:
  struct Pending {
    explicit Pending(sim::Scheduler& sched) : sem(sched, 0) {}
    sim::Semaphore sem;
    Buffer result;
    Status status = Status::kWaiting;
    bool acked = false;
    ProcessId server;
    OpId op;
    Buffer request;
  };

  [[nodiscard]] sim::Task<> on_packet(net::Packet pkt);
  [[nodiscard]] sim::Task<> serve_call(net::NetMessage msg);
  void send(ProcessId dst, const net::NetMessage& msg) {
    endpoint_.send(dst, kP2pProto, msg.encode());
  }
  void arm_retransmit_timer();

  net::Transport& transport_;
  net::Endpoint& endpoint_;
  ProcessId my_id_;
  UserProtocol& user_;
  Options options_;

  std::uint64_t next_seq_ = 1;
  std::map<CallId, std::shared_ptr<Pending>> pending_;
  // Server-side duplicate suppression (when unique_execution).
  std::set<CallId> seen_calls_;
  std::map<CallId, Buffer> stored_results_;
  TimerId retrans_timer_{};
  bool timer_armed_ = false;
  std::uint64_t retransmissions_ = 0;
  net::MalformedDrops malformed_;
};

}  // namespace ugrpc::core
