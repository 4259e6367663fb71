// The backend-independent half of a packet's life, shared by both transports.
//
// In the paper a composite sees the network only through x-kernel push and
// pop.  Everything between that interface and the wire is the same whether
// the wire is the simulator or a UDP socket, so it lives here once:
//
//   * attachments  -- one Endpoint per attached process: its demux table,
//                     executor domain and up/down flag;
//   * groups       -- the group table and sender-side multicast fan-out;
//   * routing      -- a send to a process the backend cannot reach, or a
//                     multicast to an undefined group, is counted in
//                     Stats::unroutable, recorded as kMsgUnroutable on the
//                     sender's ring and logged at warn level, rate-limited;
//   * delivery     -- demux at arrival, the receiver-side drops (destination
//                     down, detached or without a handler; each a plain
//                     kMsgDropped on the receiver's ring with a = sender),
//                     the delivered counts, the kMsgDelivered span and the
//                     fiber that runs the handler in the destination's domain;
//   * Stats and the tracer pointer.
//
// A backend supplies the wire: routable() says whether a destination can be
// reached at all, transmit() moves one copy of a send from an up sender
// toward a routable destination, and the backend hands each packet that
// comes off its wire to deliver().  A sender-side loss is the wire's to
// record; a crashed sender's sends are counted as dropped and record nothing.
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

/// Fabric-wide counters, common to every backend.  Byte counts measure
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

class Fabric;

/// A process's attachment point: the x-kernel demux table plus push
/// (send/multicast).  Handlers are volatile: a crashing site clears them and
/// re-registers on recovery.
class Endpoint {
 public:
  /// Made by Fabric::add_endpoint; the address is pinned until detach.
  Endpoint(Fabric& fabric, ProcessId process, DomainId domain)
      : fabric_(fabric), process_(process), domain_(domain) {}

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

 private:
  friend class Fabric;

  Fabric& fabric_;
  std::unordered_map<ProtocolId, std::shared_ptr<PacketHandler>> handlers_;
  ProcessId process_;
  DomainId domain_;
  bool up_ = true;
};

class Fabric {
 public:
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  void define_group(GroupId group, std::vector<ProcessId> members);
  /// Members of a defined group; fatal on an undefined one.
  [[nodiscard]] const std::vector<ProcessId>& group_members(GroupId group) const;

  /// Marks an attached process up/down.  Down processes neither send nor
  /// receive; a packet in flight to a process that goes down is dropped on
  /// arrival.  Fatal for a process not attached here.
  void set_process_up(ProcessId process, bool up);
  /// True when `process` is attached here and up.
  [[nodiscard]] bool process_up(ProcessId process) const;

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Records kMsgSent/kMsgDropped/kMsgDuplicated/kMsgUnroutable on the
  /// sender's ring and kMsgDelivered/kMsgDropped on the receiver's, each
  /// with the peer and protocol id.  nullptr (default) disables recording.
  void set_tracer(obs::Tracer* tracer) { obs_ = tracer; }

  /// The fabric's clock: virtual time in the simulator, real time over UDP.
  [[nodiscard]] virtual sim::Time now() const = 0;

 protected:
  /// `exec` runs the delivery fibers; it may be a member of the derived
  /// class not yet constructed (only its address is taken here).
  explicit Fabric(sim::Scheduler& exec);
  virtual ~Fabric() = default;

  /// Attaching an attached process is fatal; attach after detach starts a
  /// fresh Endpoint (empty demux table, up).
  Endpoint& add_endpoint(ProcessId process, DomainId domain);
  void remove_endpoint(ProcessId process) { endpoints_.erase(process); }
  [[nodiscard]] bool attached(ProcessId process) const { return endpoints_.contains(process); }

  /// Whether the wire can reach `to` at all.
  [[nodiscard]] virtual bool routable(ProcessId to) const = 0;
  /// Moves one copy of a send toward `to` (routable; `from` is up).
  /// `trace` is the sender's ring (nullptr when tracing is off) and
  /// `parent` the sending fiber's context, which parents the send span.
  virtual void transmit(const Endpoint& from, ProcessId to, ProtocolId proto,
                        const Buffer& payload, obs::SiteTrace* trace, obs::SpanCtx parent) = 0;

  /// A packet off the wire: demux to the destination's handler in a fresh
  /// fiber, or drop it (counted and recorded) when the destination is
  /// detached, down or has no handler for the protocol.
  void deliver(Packet packet);

  [[nodiscard]] obs::Tracer* tracer() const { return obs_; }

  Stats stats_;

 private:
  friend class Endpoint;

  void send(const Endpoint& from, ProcessId to, ProtocolId proto, const Buffer& payload);
  void multicast(const Endpoint& from, GroupId group, ProtocolId proto, const Buffer& payload);
  void unroutable(ProcessId from, std::uint64_t target, ProtocolId proto, bool group);
  void drop(const Packet& packet);

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
  fabric_.send(*this, dst, proto, payload);
}

inline void Endpoint::multicast(GroupId group, ProtocolId proto, Buffer payload) {
  fabric_.multicast(*this, group, proto, payload);
}

}  // namespace ugrpc::net
