// The network below a site: the one transport class the µGRPC stack programs
// against.
//
// The paper's composite protocol is transport-agnostic: micro-protocols sit
// on an x-kernel-style framework whose only contract with the layer below is
// push (send/multicast) and pop (demultiplexed packet delivery).  Transport
// is that contract plus the ambient services every layer above needs:
//
//   * attach/detach       -- bind a process, yielding an Endpoint for
//                            traffic and demux registration;
//   * groups              -- named member lists for sender-side multicast;
//   * process-up control  -- crash modelling of attached processes;
//   * clock + timers      -- now()/schedule_after()/cancel_timer(), the only
//                            way protocol layers may arm timers;
//   * threads of control  -- spawn()/kill_domain(), one fiber per delivered
//                            packet or timeout, killable per crashing site.
//
// Everything between push/pop and the wire is the same whatever the wire
// is, so it lives here once:
//
//   * attachments  -- one Endpoint per attached process: its demux table,
//                     executor domain, up/down flag and trace ring;
//   * routing      -- a send to a process the wire cannot reach, or a
//                     multicast to an undefined group, is counted in
//                     Stats::unroutable, recorded as kMsgUnroutable on the
//                     sender's ring and logged at warn level, rate-limited;
//   * delivery     -- demux at arrival, the receiver-side drops (destination
//                     down or without a handler: a plain kMsgDropped on the
//                     receiver's ring with a = sender; detached: counted),
//                     the delivered counts, the kMsgDelivered span and the
//                     fiber that runs the handler in the destination's domain;
//   * Stats and the tracer: set_tracer() is a process's one tracing switch.
//     Each Endpoint holds its process's ring, and every layer above (Site,
//     composite, SiteTelemetry) records on Endpoint::trace(), so a site is
//     traced throughout or not at all.
//
// Two backends derive from it and supply the wire: net::Network
// (network.h), the deterministic simulator, and net::UdpTransport
// (udp_transport.h), real non-blocking UDP sockets between OS processes.
// routable() says whether a destination can be reached at all, transmit()
// moves one copy of a send from an up sender toward a routable destination,
// and the backend hands each packet that comes off its wire to deliver().  A
// sender-side loss is the wire's to record; a crashed sender's sends are
// counted as dropped and record nothing.  So a packet's life above the wire,
// and what the trace and the counters say about it, is identical on both.
//
// Both backends execute protocol code on a single-threaded cooperative
// sim::Scheduler; executor() exposes it for the semaphore (sim::Semaphore)
// and fiber-level control (current_fiber, kill) that are executor concerns
// rather than transport concerns.  Timers live on the executor's heap under
// both backends, armed at the absolute deadline now()+delay.  now() is the
// one clock that differs: the executor's virtual time by default, the host's
// monotonic clock under UdpTransport.  Over UDP the executor's clock lags
// real time by up to one poll wait (a delivery fiber runs at the value from
// before the poll), so a deadline taken relative to it would fire early.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/buffer.h"
#include "common/ids.h"
#include "common/rate_limited_log.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "sim/scheduler.h"
#include "sim/task.h"
#include "sim/time.h"

namespace ugrpc::net {

/// A packet in flight: source, destination, demux key, opaque payload.
struct Packet {
  ProcessId src;
  ProcessId dst;
  ProtocolId proto;
  Buffer payload;
  /// Trace context propagated with the packet: {trace id, send-span id}.
  /// Carried as metadata in the simulator and in the wire frame (wire.h v2)
  /// over UDP; {0,0} when tracing is off.
  obs::SpanCtx ctx;
  /// This copy was manufactured by fault injection (duplicate delivery);
  /// its delivery span is flagged so the trace distinguishes it.
  bool duplicate = false;
};

/// Invoked (in a fresh fiber, in the destination's domain) for each
/// delivered packet of the registered protocol.
using PacketHandler = std::function<sim::Task<>(Packet)>;

/// Transport-wide counters, common to every backend.  Byte counts measure
/// payload bytes (what the protocol layers handed to the transport), so sim
/// and UDP numbers are directly comparable regardless of frame overhead.
struct Stats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_delivered = 0;
  /// Transmissions with no possible route: sends to a process the backend
  /// cannot reach (never attached in the simulator; neither attached nor
  /// added as a peer over UDP), and multicasts to an undefined GroupId.
  std::uint64_t unroutable = 0;
};

class Transport;

/// A process's attachment point: the x-kernel demux table plus push
/// (send/multicast).  Handlers are volatile: a crashing site clears them and
/// re-registers on recovery.
class Endpoint {
 public:
  /// Made by Transport::attach; the address is pinned until detach.
  Endpoint(Transport& transport, ProcessId process, DomainId domain)
      : transport_(transport), process_(process), domain_(domain) {}

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  /// Registers the upcall for packets demuxed to `proto` (replacing any
  /// previous handler).  Replacement takes effect for deliveries dispatched
  /// afterwards; a handler already running keeps executing to completion.
  void set_handler(ProtocolId proto, PacketHandler handler) {
    handlers_[proto] = std::make_shared<PacketHandler>(std::move(handler));
  }
  void clear_handler(ProtocolId proto) { handlers_.erase(proto); }
  void clear_all_handlers() { handlers_.clear(); }

  /// The handler currently registered for `proto`, or nullptr.  Delivery
  /// dispatches through the returned shared_ptr so an in-flight delivery
  /// fiber keeps the handler object (and thus the coroutine's implicit
  /// *this) alive even if the handler is replaced or cleared mid-flight.
  [[nodiscard]] std::shared_ptr<PacketHandler> handler(ProtocolId proto) const {
    auto it = handlers_.find(proto);
    return it != handlers_.end() ? it->second : nullptr;
  }

  void send(ProcessId dst, ProtocolId proto, Buffer payload);
  /// Sends one copy to every member of `group` (including the sender if it
  /// is a member): sender-side fan-out, each copy independently subject to
  /// link faults / datagram loss.
  void multicast(GroupId group, ProtocolId proto, Buffer payload);

  [[nodiscard]] ProcessId process() const { return process_; }
  [[nodiscard]] DomainId domain() const { return domain_; }
  /// This process's trace ring; nullptr when the transport has no tracer.
  [[nodiscard]] obs::SiteTrace* trace() const { return trace_; }

 private:
  friend class Transport;

  Transport& transport_;
  std::unordered_map<ProtocolId, std::shared_ptr<PacketHandler>> handlers_;
  ProcessId process_;
  DomainId domain_;
  obs::SiteTrace* trace_ = nullptr;
  bool up_ = true;
};

class Transport {
 public:
  virtual ~Transport() = default;

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  // ---- attachment ----

  /// Attaches a process; `domain` is the executor domain its delivery
  /// fibers run in (killed when the site crashes).  The returned reference
  /// stays valid until the process is detached.  Attaching an
  /// already-attached process is a fatal error; attach after detach starts a
  /// fresh attachment (empty demux table, up, next incarnation on backends
  /// that tag frames).
  virtual Endpoint& attach(ProcessId process, DomainId domain);

  /// Removes the attachment; the Endpoint reference becomes invalid.
  /// Packets in flight to a detached process are dropped on delivery.
  /// No-op for a process that is not attached.
  virtual void detach(ProcessId process) { endpoints_.erase(process); }

  // ---- groups (sender-side multicast fan-out) ----

  void define_group(GroupId group, std::vector<ProcessId> members);
  /// Members of a defined group; fatal on an undefined one.
  [[nodiscard]] const std::vector<ProcessId>& group_members(GroupId group) const;
  /// Members of `group`, or nullptr when it is undefined.
  [[nodiscard]] const std::vector<ProcessId>* find_group(GroupId group) const;

  // ---- process-up control (crash modelling of attached processes) ----

  /// Marks an attached process up/down.  Down processes neither send nor
  /// receive; a packet in flight to a process that goes down is dropped on
  /// arrival.  Fatal for a process not attached here; processes elsewhere
  /// (other OS processes over UDP) crash for real.
  void set_process_up(ProcessId process, bool up);
  /// True when `process` is attached here and up.
  [[nodiscard]] bool process_up(ProcessId process) const;

  // ---- clock + timers ----

  /// Current time: the executor's virtual time by default, microseconds of
  /// real time since construction under UdpTransport.
  [[nodiscard]] virtual sim::Time now() const { return exec_.now(); }

  /// Runs `fn` at now()+delay.  The callback executes inline in the driving
  /// loop (it typically spawns a fiber or releases a semaphore); `domain`
  /// ties the timer to a crashable site (cancelled by kill_domain).
  TimerId schedule_after(sim::Duration delay, std::function<void()> fn,
                         DomainId domain = sim::kGlobalDomain) {
    return exec_.schedule_at(now() + delay, std::move(fn), domain);
  }
  /// Cancels a pending timer; no-op if it already fired or was cancelled.
  void cancel_timer(TimerId id) { exec_.cancel_timer(id); }

  // ---- threads of control ----

  /// Starts a new fiber running `task`, tagged with `domain`.
  FiberId spawn(sim::Task<> task, DomainId domain = sim::kGlobalDomain) {
    return exec_.spawn(std::move(task), domain);
  }
  /// Kills every fiber of `domain` and cancels the domain's timers.  Models
  /// a site crash.
  void kill_domain(DomainId domain) { exec_.kill_domain(domain); }

  /// The cooperative executor protocol code runs on.  For the semaphore
  /// (sim::Semaphore) and fiber-level introspection
  /// (current_fiber, kill); traffic and timers must go through the
  /// Transport, never through the executor directly.
  [[nodiscard]] sim::Scheduler& executor() { return exec_; }

  // ---- observability ----

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Gives every endpoint, attached now or later, its ring of `tracer`
  /// (nullptr, the default, turns recording off); set it before sites boot.
  /// kMsgSent/kMsgDropped/kMsgDuplicated/kMsgUnroutable go on the sender's
  /// ring, kMsgDelivered/kMsgDropped on the receiver's, with peer and proto.
  void set_tracer(obs::Tracer* tracer);
  [[nodiscard]] obs::Tracer* tracer() const { return obs_; }

 protected:
  /// `exec` runs the protocol code; it may be a member of the derived class
  /// not yet constructed (only its address is taken here).
  explicit Transport(sim::Scheduler& exec);

  [[nodiscard]] bool attached(ProcessId process) const { return endpoints_.contains(process); }

  /// Whether the wire can reach `to` at all.
  [[nodiscard]] virtual bool routable(ProcessId to) const = 0;
  /// Moves one copy of a send toward `to` (routable; `from` is up),
  /// recording on `from.trace()`.  `parent` is the sending fiber's context,
  /// which parents the send span.
  virtual void transmit(const Endpoint& from, ProcessId to, ProtocolId proto,
                        const Buffer& payload, obs::SpanCtx parent) = 0;

  /// A packet off the wire: demux to the destination's handler in a fresh
  /// fiber, or drop it (counted, and recorded unless detached) when the
  /// destination is detached, down or has no handler for the protocol.
  void deliver(Packet packet);

  Stats stats_;

 private:
  friend class Endpoint;

  void send(const Endpoint& from, ProcessId to, ProtocolId proto, const Buffer& payload);
  void multicast(const Endpoint& from, GroupId group, ProtocolId proto, const Buffer& payload);
  void unroutable(const Endpoint& sender, std::uint64_t target, ProtocolId proto, bool group);
  void drop(const Packet& packet, obs::SiteTrace* trace);

  sim::Scheduler& exec_;
  std::unordered_map<ProcessId, Endpoint> endpoints_;
  std::unordered_map<GroupId, std::vector<ProcessId>> groups_;
  obs::Tracer* obs_ = nullptr;
  /// Unroutable warnings rate-limited per link or (sender, group), with
  /// exact suppressed counts (common/rate_limited_log.h); stats_.unroutable
  /// stays exact regardless.
  RateLimitedLog unroutable_log_;
};

inline void Endpoint::send(ProcessId dst, ProtocolId proto, Buffer payload) {
  transport_.send(*this, dst, proto, payload);
}

inline void Endpoint::multicast(GroupId group, ProtocolId proto, Buffer payload) {
  transport_.multicast(*this, group, proto, payload);
}

}  // namespace ugrpc::net
