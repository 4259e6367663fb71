// Real-network Transport backend: non-blocking UDP sockets on one host.
//
// The same protocol stack that runs deterministically over net::Network runs
// here over actual datagrams between OS processes.  The trick is that the
// stack's threads of control stay on the cooperative sim::Scheduler: the
// transport slaves the executor's virtual clock to the host's monotonic
// clock (run_until(elapsed)), so semaphores, sleeps and fibers behave
// identically -- one microsecond of virtual time is one microsecond of real
// time.  Transport-level timers (retransmission, heartbeats, termination
// bounds) sit on the executor's heap like every other timer, armed at the
// absolute deadline now()+delay on the host clock (transport.h says why not
// relative to the executor's).  Of clock and timers, this backend
// overrides only the clock, now().
//
// Everything above the wire -- demux, groups and fan-out, unroutable
// accounting, delivery fibers, timers, Stats, the tracer (set_tracer) -- is
// the net::Transport base (transport.h), exactly as under the simulator.
// This file is the wire: framing (wire.h, which carries the trace context),
// the injectable send fault, the datagram size cap, the outbox and
// sendmmsg() (a datagram that fails there closes its kMsgSent span flagged),
// and on the receive side recvmmsg(), decode and two filters -- frames
// addressed to another process, and frames from a superseded incarnation of
// their sender, are counted as dropped without a record.
//
// Topology is explicit: each locally attached process binds its own
// ephemeral-port socket (no fixed ports, so parallel CI runs cannot
// collide), and remote peers are introduced via add_peer().  A destination
// is routable when it has an address: attached here, or added as a peer.
//
// The event loop is ppoll()-based and single-threaded:
//
//   poll_once:  advance the executor to `elapsed()`, then ppoll every socket
//               (timeout sized to the microsecond by the earliest timer),
//               then drain each ready socket with recvmmsg() into 16 slots,
//               and decode + demux the frames into delivery fibers.
//
// Datagram I/O is batched by the loop turn.  A send made while the executor
// drains (protocol fibers and timers run) joins one outbox in order; when
// the drain ends, each run of consecutive datagrams from one socket leaves
// in one sendmmsg().  A send made outside a drain is flushed at once.  A
// send's kMsgSent span stays open until its datagram has left, and detach()
// flushes before it closes the socket.  Every socket asks for a 2 MiB
// receive buffer (the kernel caps it at rmem_max), so a batch sent to one
// peer back to back fits in its queue.
//
// Crash modelling reaches only locally attached processes:
// set_process_up(p, false) silences a local p (its sends are dropped and
// datagrams arriving for it die on delivery).  Processes in other OS
// processes crash for real, and the membership service detects it exactly
// as the paper intends.
#pragma once

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>

#include <array>
#include <chrono>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/transport.h"
#include "net/wire.h"
#include "obs/trace.h"

namespace ugrpc::net {

class UdpTransport final : public Transport {
 public:
  struct Options {
    /// Seed of the executor's RNG (protocol-visible randomness).
    std::uint64_t seed = 1;
    /// Address local sockets bind to (always with an ephemeral port).
    std::string bind_host = "127.0.0.1";
  };

  UdpTransport();  // default options
  explicit UdpTransport(Options options);
  ~UdpTransport() override;

  // ---- Transport overrides ----

  Endpoint& attach(ProcessId process, DomainId domain) override;
  void detach(ProcessId process) override;

  /// Microseconds of real time since construction.
  [[nodiscard]] sim::Time now() const override;

  // ---- UDP-specific surface ----

  /// Introduces (or updates) a remote peer's address.  Local attachments
  /// register themselves automatically.
  void add_peer(ProcessId peer, const std::string& host, std::uint16_t port);

  /// Ephemeral port a locally attached process is bound to; publish it to
  /// the other side (the udp_group_call example pipes it between forks).
  [[nodiscard]] std::uint16_t local_port(ProcessId process) const;

  // ---- event loop ----

  /// One loop iteration: advance the executor to real `now()`, poll the
  /// sockets (waiting at most `max_wait`, less if a timer is due sooner),
  /// dispatch received datagrams, run the executor again.
  void poll_once(sim::Duration max_wait);

  /// Drives the loop for `d` of real time, waking at least every 10 ms.
  void run_for(sim::Duration d);

  /// Drives the loop until `fiber` finishes or `timeout` elapses; true on
  /// fiber completion.
  bool run_until_fiber_done(FiberId fiber, sim::Duration timeout);

  /// Deterministic loss injection: when set, each outgoing datagram is
  /// offered to `fault` (src, dst, proto) and dropped before it is queued on
  /// true.  Loopback UDP essentially never loses datagrams, so tests and the
  /// udp_group_call example use this to force real retransmissions.  nullptr
  /// removes the hook.
  using SendFault = std::function<bool(ProcessId, ProcessId, ProtocolId)>;
  void set_send_fault(SendFault fault) { send_fault_ = std::move(fault); }

 private:
  /// A local attachment's socket; its Endpoint lives in the Transport base.
  struct Socket {
    int fd = -1;
    std::uint16_t port = 0;
    std::uint32_t incarnation = 1;
  };

  /// A datagram transmit() queued: sent from `fd` to `addr` as the frame
  /// head followed by the payload's own bytes.
  struct Outgoing {
    int fd;
    sockaddr_in addr;
    WireFrame::Head head;
    Buffer payload;
    ProcessId from;
    ProcessId to;
    /// Ring holding the open kMsgSent span `span`; nullptr when untraced.
    obs::SiteTrace* trace;
    std::uint64_t span;
  };

  /// Datagrams recvmmsg() reads per call, into slots of kMaxDatagram + 1
  /// bytes: a datagram that fills its slot is longer than any frame.
  static constexpr std::size_t kRecvBatch = 16;

  [[nodiscard]] bool routable(ProcessId to) const override { return peers_.contains(to); }
  void transmit(const Endpoint& from, ProcessId to, ProtocolId proto, const Buffer& payload,
                obs::SpanCtx parent) override;
  /// Sends the outbox in queue order, one sendmmsg() per run of datagrams
  /// from one socket, and closes their send spans.
  void flush_sends();
  /// Closes a send's kMsgSent span `span` on `trace` (if traced); a failed
  /// send counts as dropped.
  void close_send(obs::SiteTrace* trace, std::uint64_t span, bool failed);
  /// Reads every datagram waiting on `owner`'s socket `fd`.
  void receive(int fd, ProcessId owner);
  void dispatch_datagram(ProcessId owner, std::span<const std::byte> datagram);
  /// Advances the executor's virtual clock to real elapsed time, draining
  /// every ready fiber and due timer, then flushes the sends they queued.
  void sync_executor();
  [[nodiscard]] sim::Duration poll_wait(sim::Duration max_wait);
  /// Refills pollfds_/poll_owners_ from sockets_ (on attach and detach).
  void rebuild_poll_set();

  Options options_;
  sim::Scheduler exec_;
  std::chrono::steady_clock::time_point start_;
  std::unordered_map<ProcessId, Socket> sockets_;
  /// What poll_once waits on: one entry per socket, with its owner.
  std::vector<pollfd> pollfds_;
  std::vector<ProcessId> poll_owners_;
  std::unordered_map<ProcessId, sockaddr_in> peers_;
  /// Highest incarnation heard per remote sender; older frames are stale.
  std::unordered_map<ProcessId, std::uint32_t> seen_incarnations_;
  /// Incarnation counter per locally attached ProcessId, so re-attach after
  /// detach tags frames as a fresh incarnation.
  std::unordered_map<ProcessId, std::uint32_t> attach_counts_;
  SendFault send_fault_;

  /// Sends queued during the current drain; empty outside one.
  std::vector<Outgoing> outbox_;
  bool draining_ = false;
  /// flush_sends()'s sendmmsg() arguments, kept for their capacity.
  std::vector<mmsghdr> send_msgs_;
  std::vector<std::array<iovec, 2>> send_iovs_;
  /// recvmmsg()'s slots, allocated once and never zeroed.
  std::unique_ptr<std::byte[]> recv_slots_;
  std::array<mmsghdr, kRecvBatch> recv_msgs_{};
  std::array<iovec, kRecvBatch> recv_iovs_{};
};

}  // namespace ugrpc::net
