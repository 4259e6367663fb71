// Heartbeat-based membership service.
//
// The paper treats membership as an external service that triggers
// MEMBERSHIP_CHANGE(who, FAILURE|RECOVERY) events; most configurations can
// omit it ("the membership component of the system is omitted in these
// cases").  This implementation monitors a watch list of processes: each
// participant periodically sends heartbeat packets, and a detector declares
// FAILURE after `failure_timeout` of silence and RECOVERY on the first
// heartbeat heard from a process previously declared failed.  One timer
// per monitor does both, each `heartbeat_interval`: heartbeats, then check.
//
// It is a failure *detector*, not a view-agreement protocol: different
// observers may transition at slightly different times, which is all the
// paper's micro-protocols (Acceptance, Total Order leader selection) need.
#pragma once

#include <functional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/buffer.h"
#include "common/ids.h"
#include "net/transport.h"
#include "sim/time.h"

namespace ugrpc::membership {

/// Demux key for membership heartbeats on the shared network fabric.
inline constexpr ProtocolId kMembershipProto{2};

enum class Change : unsigned char { kFailure, kRecovery };

[[nodiscard]] constexpr std::string_view to_string(Change c) {
  return c == Change::kFailure ? "FAILURE" : "RECOVERY";
}

struct Params {
  sim::Duration heartbeat_interval = sim::msec(20);
  /// Silence longer than this declares the process failed.  Must comfortably
  /// exceed heartbeat_interval plus network delay.
  sim::Duration failure_timeout = sim::msec(100);
};

/// One instance per observing site; volatile (rebuilt on recovery).
class MembershipMonitor {
 public:
  using Listener = std::function<void(ProcessId who, Change change)>;

  /// `endpoint` is the observing site's transport attachment; `watch` is the
  /// set of processes to monitor (typically the server group), and this site
  /// also heartbeats to each of them, from a timer armed through the
  /// transport's timer hooks.
  MembershipMonitor(net::Transport& transport, net::Endpoint& endpoint,
                    std::vector<ProcessId> watch, Params params);
  ~MembershipMonitor();

  MembershipMonitor(const MembershipMonitor&) = delete;
  MembershipMonitor& operator=(const MembershipMonitor&) = delete;

  /// Registers the packet handler and begins heartbeating/checking.
  void start();

  /// Called on each FAILURE/RECOVERY transition.
  void set_listener(Listener listener) { listener_ = std::move(listener); }

  /// Processes currently believed alive (watched set minus failed).
  [[nodiscard]] std::set<ProcessId> live_members() const;
  [[nodiscard]] bool is_live(ProcessId p) const;

 private:
  void send_heartbeat();
  void check_failures();
  void arm_timer();

  net::Transport& transport_;
  net::Endpoint& endpoint_;
  std::vector<ProcessId> watch_;
  Params params_;
  Listener listener_;
  struct PeerState {
    sim::Time last_heard = 0;
    bool alive = true;
  };
  std::unordered_map<ProcessId, PeerState> peers_;
  TimerId timer_{};
  bool started_ = false;
};

}  // namespace ugrpc::membership
