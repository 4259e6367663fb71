// Real-network Transport backend: non-blocking UDP sockets on one host.
//
// The same protocol stack that runs deterministically over SimTransport runs
// here over actual datagrams between OS processes.  The trick is that the
// stack's threads of control stay on the cooperative sim::Scheduler: the
// transport slaves the executor's virtual clock to the host's monotonic
// clock (run_until(elapsed)), so semaphores, sleeps and fibers behave
// identically -- one microsecond of virtual time is one microsecond of real
// time.  Transport-level timers (retransmission, heartbeats, termination
// bounds) live on a hashed TimerWheel rather than the executor's heap.
//
// Topology is explicit: each locally attached process binds its own
// ephemeral-port socket (no fixed ports, so parallel CI runs cannot
// collide), and remote peers are introduced via add_peer().  Multicast is
// sender-side fan-out over the address book, mirroring the simulator.
//
// The event loop is poll()-based and single-threaded:
//
//   poll_once:  advance wheel + executor to `elapsed()`, then poll every
//               socket (timeout sized by the earliest wheel/executor timer),
//               then decode + demux received frames into delivery fibers.
//
// Crash modelling is local-only: set_process_up(p, false) silences a
// locally attached p (its datagrams are dropped on send and on receive) but
// cannot reach into other OS processes -- supports_process_control() is
// false, and remote failures are real failures detected by the membership
// service exactly as the paper intends.
#pragma once

#include <netinet/in.h>

#include <chrono>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rate_limited_log.h"
#include "net/timer_wheel.h"
#include "net/transport.h"
#include "obs/trace.h"

namespace ugrpc::net {

class UdpTransport final : public Transport {
 public:
  struct Options {
    /// Seed of the executor's RNG (protocol-visible randomness).
    std::uint64_t seed = 1;
    /// Address local sockets bind to (always with an ephemeral port).
    std::string bind_host = "127.0.0.1";
    /// Poll timeout cap: an idle loop wakes at least this often.
    sim::Duration max_poll_wait = sim::msec(10);
    /// Timer wheel tick width.
    sim::Duration wheel_granularity = sim::msec(1);
  };

  UdpTransport();  // default options
  explicit UdpTransport(Options options);
  ~UdpTransport() override;

  // ---- Transport interface ----

  Endpoint& attach(ProcessId process, DomainId domain) override;
  void detach(ProcessId process) override;

  void define_group(GroupId group, std::vector<ProcessId> members) override;
  [[nodiscard]] const std::vector<ProcessId>& group_members(GroupId group) const override;
  [[nodiscard]] bool has_group(GroupId group) const override;

  [[nodiscard]] bool supports_process_control() const override { return false; }
  /// Only locally attached processes can be taken down; remote ones crash
  /// for real.  Asserts on a non-local ProcessId.
  void set_process_up(ProcessId process, bool up) override;
  [[nodiscard]] bool process_up(ProcessId process) const override;

  [[nodiscard]] sim::Time now() const override;
  TimerId schedule_after(sim::Duration delay, std::function<void()> fn,
                         DomainId domain = sim::kGlobalDomain) override;
  void cancel_timer(TimerId id) override;

  FiberId spawn(sim::Task<> task, DomainId domain = sim::kGlobalDomain) override;
  void kill_domain(DomainId domain) override;
  [[nodiscard]] sim::Scheduler& executor() override { return exec_; }

  [[nodiscard]] const Stats& stats() const override { return stats_; }
  void reset_stats() override { stats_ = {}; }

  // ---- UDP-specific surface ----

  /// Introduces (or updates) a remote peer's address.  Local attachments
  /// register themselves automatically.
  void add_peer(ProcessId peer, const std::string& host, std::uint16_t port);

  /// Ephemeral port a locally attached process is bound to; publish it to
  /// the other side (the udp_group_call example pipes it between forks).
  [[nodiscard]] std::uint16_t local_port(ProcessId process) const;

  // ---- event loop ----

  /// One loop iteration: advance timers + executor to real `now()`, poll
  /// the sockets (waiting at most `max_wait`, less if a timer is due
  /// sooner), dispatch received datagrams, run the executor again.
  void poll_once(sim::Duration max_wait);

  /// Drives the loop for `d` of real time.
  void run_for(sim::Duration d);

  /// Drives the loop until `fiber` finishes or `timeout` elapses; true on
  /// fiber completion.
  bool run_until_fiber_done(FiberId fiber, sim::Duration timeout);

  /// Records kMsgSent/kMsgDelivered/kMsgDropped/kMsgUnroutable on the local
  /// processes' rings, plus send/deliver/wheel-fire spans with trace context
  /// carried in the wire frames (wire.h v2).  nullptr disables.
  void set_tracer(obs::Tracer* tracer) {
    obs_ = tracer;
    wheel_.set_tracer(tracer);
  }

  /// Deterministic loss injection: when set, each outgoing datagram is
  /// offered to `fault` (src, dst, proto) and dropped before sendto() on
  /// true.  Loopback UDP essentially never loses datagrams, so tests and the
  /// udp_group_call example use this to force real retransmissions.  nullptr
  /// removes the hook.
  using SendFault = std::function<bool(ProcessId, ProcessId, ProtocolId)>;
  void set_send_fault(SendFault fault) { send_fault_ = std::move(fault); }

 private:
  class UdpEndpoint final : public Endpoint {
   public:
    UdpEndpoint(UdpTransport& transport, ProcessId process, DomainId domain)
        : Endpoint(process, domain), transport_(&transport) {}

    void send(ProcessId dst, ProtocolId proto, Buffer payload) override {
      transport_->send_from(process(), dst, proto, std::move(payload));
    }
    void multicast(GroupId group, ProtocolId proto, Buffer payload) override {
      transport_->multicast_from(process(), group, proto, std::move(payload));
    }

   private:
    UdpTransport* transport_;
  };

  struct Attachment {
    std::unique_ptr<UdpEndpoint> endpoint;
    int fd = -1;
    std::uint16_t port = 0;
    std::uint32_t incarnation = 1;
    bool up = true;
  };

  void send_from(ProcessId src, ProcessId dst, ProtocolId proto, Buffer payload);
  void multicast_from(ProcessId src, GroupId group, ProtocolId proto, Buffer payload);
  void dispatch_datagram(Attachment& att, std::span<const std::byte> datagram);
  /// Advances the wheel and the executor's virtual clock to real elapsed
  /// time, draining every ready fiber and due timer.
  void sync_executor();
  [[nodiscard]] sim::Duration poll_wait(sim::Duration max_wait);

  Options options_;
  sim::Scheduler exec_;
  TimerWheel wheel_;
  std::chrono::steady_clock::time_point start_;
  std::unordered_map<ProcessId, Attachment> attachments_;
  std::unordered_map<ProcessId, sockaddr_in> peers_;
  std::unordered_map<GroupId, std::vector<ProcessId>> groups_;
  /// Highest incarnation heard per remote sender; older frames are stale.
  std::unordered_map<ProcessId, std::uint32_t> seen_incarnations_;
  /// Incarnation counter per locally attached ProcessId, so re-attach after
  /// detach tags frames as a fresh incarnation.
  std::unordered_map<ProcessId, std::uint32_t> attach_counts_;
  Stats stats_;
  obs::Tracer* obs_ = nullptr;
  SendFault send_fault_;
  /// Unroutable-send warnings rate-limited per (src, dst) / (src, group)
  /// with exact suppressed counts (common/rate_limited_log.h); the
  /// stats_.unroutable counter stays exact regardless.
  RateLimitedLog unroutable_log_{sim::seconds(1)};
};

}  // namespace ugrpc::net
