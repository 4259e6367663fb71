#include "net/udp_transport.h"

#include <arpa/inet.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/assert.h"
#include "common/log.h"
#include "net/wire.h"

namespace ugrpc::net {

namespace {

/// Rate-limiter keys: one space for (src, dst) links, one for (src, group).
constexpr std::uint64_t link_key(ProcessId from, ProcessId to) {
  return (static_cast<std::uint64_t>(from.value()) << 32) | to.value();
}
constexpr std::uint64_t group_key(ProcessId from, GroupId group) {
  return (std::uint64_t{1} << 63) | (static_cast<std::uint64_t>(from.value()) << 16) |
         group.value();
}

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const int rc = ::inet_pton(AF_INET, host.c_str(), &addr.sin_addr);
  UGRPC_ASSERT(rc == 1 && "bind_host/peer host must be a numeric IPv4 address");
  return addr;
}

}  // namespace

UdpTransport::UdpTransport() : UdpTransport(Options{}) {}

UdpTransport::UdpTransport(Options options)
    : options_(std::move(options)), exec_(options_.seed), wheel_(options_.wheel_granularity),
      start_(std::chrono::steady_clock::now()) {}

UdpTransport::~UdpTransport() {
  for (auto& [process, att] : attachments_) {
    if (att.fd >= 0) ::close(att.fd);
  }
}

sim::Time UdpTransport::now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(std::chrono::steady_clock::now() -
                                                               start_)
      .count();
}

Endpoint& UdpTransport::attach(ProcessId process, DomainId domain) {
  UGRPC_ASSERT(!attachments_.contains(process) && "process already attached");
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  UGRPC_ASSERT(fd >= 0 && "socket() failed");
  // Ephemeral port: parallel runs on one host cannot collide, and the
  // example/CI publish the chosen port out of band.
  sockaddr_in addr = make_addr(options_.bind_host, 0);
  int rc = ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  UGRPC_ASSERT(rc == 0 && "bind() failed");
  socklen_t len = sizeof(addr);
  rc = ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  UGRPC_ASSERT(rc == 0 && "getsockname() failed");

  Attachment att;
  att.endpoint = std::make_unique<UdpEndpoint>(*this, process, domain);
  att.fd = fd;
  att.port = ntohs(addr.sin_port);
  att.incarnation = ++attach_counts_[process];
  auto [it, inserted] = attachments_.emplace(process, std::move(att));
  peers_[process] = addr;  // local processes are reachable like any peer
  UGRPC_LOG(kDebug, "udp: attach %u on %s:%u (incarnation %u)", process.value(),
            options_.bind_host.c_str(), it->second.port, it->second.incarnation);
  return *it->second.endpoint;
}

void UdpTransport::detach(ProcessId process) {
  auto it = attachments_.find(process);
  if (it == attachments_.end()) return;
  ::close(it->second.fd);
  peers_.erase(process);
  attachments_.erase(it);
}

void UdpTransport::define_group(GroupId group, std::vector<ProcessId> members) {
  groups_[group] = std::move(members);
}

const std::vector<ProcessId>& UdpTransport::group_members(GroupId group) const {
  auto it = groups_.find(group);
  UGRPC_ASSERT(it != groups_.end() && "unknown group");
  return it->second;
}

bool UdpTransport::has_group(GroupId group) const { return groups_.contains(group); }

void UdpTransport::set_process_up(ProcessId process, bool up) {
  auto it = attachments_.find(process);
  UGRPC_ASSERT(it != attachments_.end() &&
               "UDP crash modelling reaches only locally attached processes");
  it->second.up = up;
}

bool UdpTransport::process_up(ProcessId process) const {
  auto it = attachments_.find(process);
  // Remote peers cannot be introspected; assume up (the membership service
  // is the authority on remote liveness).
  return it == attachments_.end() ? true : it->second.up;
}

TimerId UdpTransport::schedule_after(sim::Duration delay, std::function<void()> fn,
                                     DomainId domain) {
  // Capture the arming fiber's trace context so the wheel can parent the
  // fire's span to the activity that armed the timer.
  obs::SpanCtx ctx;
  if (obs_ != nullptr && domain != sim::kGlobalDomain) {
    ctx = obs_->site(ProcessId{domain.value()}).current(exec_.current_fiber().value());
  }
  return wheel_.add(now() + std::max<sim::Duration>(delay, 0), std::move(fn), domain, ctx);
}

void UdpTransport::cancel_timer(TimerId id) { wheel_.cancel(id); }

FiberId UdpTransport::spawn(sim::Task<> task, DomainId domain) {
  return exec_.spawn(std::move(task), domain);
}

void UdpTransport::kill_domain(DomainId domain) {
  exec_.kill_domain(domain);
  wheel_.cancel_domain(domain);
}

void UdpTransport::add_peer(ProcessId peer, const std::string& host, std::uint16_t port) {
  peers_[peer] = make_addr(host, port);
}

std::uint16_t UdpTransport::local_port(ProcessId process) const {
  auto it = attachments_.find(process);
  UGRPC_ASSERT(it != attachments_.end() && "process not attached");
  return it->second.port;
}

void UdpTransport::send_from(ProcessId src, ProcessId dst, ProtocolId proto, Buffer payload) {
  auto src_it = attachments_.find(src);
  UGRPC_ASSERT(src_it != attachments_.end() && "sender must be locally attached");
  auto dst_it = peers_.find(dst);
  if (dst_it == peers_.end()) {
    ++stats_.unroutable;
    if (obs_) obs_->site(src).record(now(), obs::Kind::kMsgUnroutable, 0, dst.value(), proto.value());
    if (const std::uint64_t n = unroutable_log_.occurrences_to_log(link_key(src, dst), now());
        n == 1) {
      UGRPC_LOG(kWarn, "udp: unroutable %u->%u proto=%u (no address-book entry)", src.value(),
                dst.value(), proto.value());
    } else if (n > 1) {
      UGRPC_LOG(kWarn, "udp: unroutable %u->%u: %llu more since last report (latest proto=%u)",
                src.value(), dst.value(), static_cast<unsigned long long>(n), proto.value());
    }
    return;
  }
  ++stats_.sent;
  stats_.bytes_sent += payload.size();
  // kMsgSent opens the send span; its id travels in the frame (wire v2) and
  // parents the receiving process's delivery span -- the cross-process tree
  // edge.  A send that fails below is flagged at the close.
  obs::SiteTrace* st = nullptr;
  obs::SpanCtx out_ctx;
  if (obs_) {
    st = &obs_->site(src);
    out_ctx = st->open(now(), obs::Kind::kMsgSent, st->current(exec_.current_fiber().value()), 0,
                       dst.value(), proto.value());
  }
  const auto close_send = [&](bool faulted) {
    if (st != nullptr) st->close(now(), out_ctx.parent, obs::Kind::kSpanEnd, 0, 0, 0, faulted);
  };
  if (!src_it->second.up) {
    ++stats_.dropped;
    close_send(true);
    return;  // crashed senders produce nothing
  }
  if (send_fault_ && send_fault_(src, dst, proto)) {
    // Deterministic loss injected by a test/example (real UDP on loopback
    // almost never drops, so forcing a retransmission needs a hook).
    ++stats_.dropped;
    if (st != nullptr) st->record(now(), obs::Kind::kMsgDropped, 0, dst.value(), proto.value());
    close_send(true);
    return;
  }
  WireFrame frame{src,     dst,           proto, src_it->second.incarnation,
                  out_ctx.trace, out_ctx.parent, std::move(payload)};
  const Buffer wire = frame.encode();
  if (wire.size() > kMaxDatagram) {
    ++stats_.dropped;
    UGRPC_LOG(kWarn, "udp: frame %u->%u proto=%u exceeds %zu bytes, dropped", src.value(),
              dst.value(), proto.value(), kMaxDatagram);
    close_send(true);
    return;
  }
  const auto bytes = wire.bytes();
  const ssize_t n =
      ::sendto(src_it->second.fd, bytes.data(), bytes.size(), 0,
               reinterpret_cast<const sockaddr*>(&dst_it->second), sizeof(dst_it->second));
  if (n < 0) {
    // A full socket buffer or a vanished peer (ECONNREFUSED from a previous
    // ICMP) is datagram loss; the reliable-communication layer retransmits.
    ++stats_.dropped;
    UGRPC_LOG(kDebug, "udp: sendto %u->%u failed: %s", src.value(), dst.value(),
              std::strerror(errno));
  }
  close_send(n < 0);
}

void UdpTransport::multicast_from(ProcessId src, GroupId group, ProtocolId proto, Buffer payload) {
  auto it = groups_.find(group);
  if (it == groups_.end()) {
    ++stats_.unroutable;
    if (const std::uint64_t n = unroutable_log_.occurrences_to_log(group_key(src, group), now());
        n == 1) {
      UGRPC_LOG(kWarn, "udp: unroutable multicast from %u to undefined group %u proto=%u",
                src.value(), group.value(), proto.value());
    } else if (n > 1) {
      UGRPC_LOG(kWarn, "udp: unroutable multicast from %u to group %u: %llu more since last report",
                src.value(), group.value(), static_cast<unsigned long long>(n));
    }
    return;
  }
  for (ProcessId member : it->second) {
    send_from(src, member, proto, payload);  // Buffer copies are O(1) (COW)
  }
}

void UdpTransport::dispatch_datagram(Attachment& att, std::span<const std::byte> datagram) {
  std::optional<WireFrame> frame = WireFrame::decode(datagram);
  if (!frame.has_value()) {
    ++stats_.dropped;
    UGRPC_LOG(kDebug, "udp: dropping malformed %zu-byte datagram", datagram.size());
    return;
  }
  if (frame->dst != att.endpoint->process() || !att.up) {
    ++stats_.dropped;
    return;  // misdirected, or the local destination is "crashed"
  }
  // Drop frames from an older incarnation of the sender: they were queued
  // before the sender restarted and must not leak into its new life.
  std::uint32_t& newest = seen_incarnations_[frame->src];
  if (frame->incarnation < newest) {
    ++stats_.dropped;
    UGRPC_LOG(kDebug, "udp: stale incarnation %u (< %u) from %u, dropped", frame->incarnation,
              newest, frame->src.value());
    return;
  }
  newest = frame->incarnation;
  const std::shared_ptr<PacketHandler> handler = att.endpoint->handler(frame->proto);
  if (handler == nullptr) {
    ++stats_.dropped;
    UGRPC_LOG(kDebug, "udp: no handler for proto=%u at %u", frame->proto.value(),
              frame->dst.value());
    return;
  }
  ++stats_.delivered;
  stats_.bytes_delivered += frame->payload.size();
  // kMsgDelivered opens the delivery span, parented to the sender's send
  // span (carried in the frame); it stays open for the handler fiber, whose
  // ambient context it becomes -- same contract as the simulated fabric.
  const obs::SpanCtx wire_ctx{frame->trace, frame->span};
  obs::SpanCtx deliver_ctx;
  if (obs_) {
    deliver_ctx = obs_->site(frame->dst).open(now(), obs::Kind::kMsgDelivered, wire_ctx, 0,
                                              frame->src.value(), frame->proto.value());
  }
  // x-kernel demux: each delivery runs in a fresh fiber in the destination's
  // domain; the wrapper keeps the handler alive for the fiber's lifetime.
  static constexpr auto invoke = [](UdpTransport* tp, std::shared_ptr<PacketHandler> h, Packet p,
                                    obs::SpanCtx ctx) -> sim::Task<> {
    const ProcessId dst = p.dst;
    obs::SiteTrace* st = tp->obs_ != nullptr ? &tp->obs_->site(dst) : nullptr;
    const std::uint64_t fiber = tp->exec_.current_fiber().value();
    if (st != nullptr) st->set_current(fiber, ctx);
    co_await (*h)(std::move(p));
    if (st != nullptr) {
      st->clear_current(fiber);
      st->close(tp->now(), ctx.parent);
    }
  };
  Packet packet{frame->src, frame->dst, frame->proto, std::move(frame->payload), wire_ctx};
  exec_.spawn(invoke(this, std::move(handler), std::move(packet), deliver_ctx),
              att.endpoint->domain());
}

void UdpTransport::sync_executor() {
  const sim::Time t = now();
  wheel_.advance(t);
  // Slave the executor's virtual clock to real time: due sleep_for timers
  // fire, ready fibers drain, and the clock lands exactly at t.
  exec_.run_until(t);
}

sim::Duration UdpTransport::poll_wait(sim::Duration max_wait) {
  if (exec_.has_ready()) return 0;
  const sim::Time t = now();
  sim::Time deadline = t + std::max<sim::Duration>(max_wait, 0);
  if (const auto d = wheel_.next_deadline()) deadline = std::min(deadline, *d);
  if (const auto d = exec_.next_timer_deadline()) deadline = std::min(deadline, *d);
  return std::max<sim::Duration>(deadline - t, 0);
}

void UdpTransport::poll_once(sim::Duration max_wait) {
  sync_executor();

  std::vector<pollfd> fds;
  std::vector<ProcessId> owners;
  fds.reserve(attachments_.size());
  for (auto& [process, att] : attachments_) {
    fds.push_back(pollfd{att.fd, POLLIN, 0});
    owners.push_back(process);
  }
  const sim::Duration wait = poll_wait(max_wait);
  const int timeout_ms = static_cast<int>(std::min<sim::Duration>((wait + 999) / 1000, 1000));
  const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
  if (ready > 0) {
    std::byte buf[kMaxDatagram + 1];
    for (std::size_t i = 0; i < owners.size(); ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      auto att_it = attachments_.find(owners[i]);
      if (att_it == attachments_.end()) continue;  // detached by a callback
      for (;;) {
        const ssize_t n = ::recv(fds[i].fd, buf, sizeof(buf), 0);
        if (n < 0) break;  // EWOULDBLOCK: socket drained
        dispatch_datagram(att_it->second, std::span<const std::byte>(buf, static_cast<std::size_t>(n)));
      }
    }
  }

  sync_executor();
}

void UdpTransport::run_for(sim::Duration d) {
  const sim::Time stop_at = now() + d;
  while (now() < stop_at) poll_once(std::min(options_.max_poll_wait, stop_at - now()));
}

bool UdpTransport::run_until_fiber_done(FiberId fiber, sim::Duration timeout) {
  const sim::Time stop_at = now() + timeout;
  while (exec_.fiber_alive(fiber) && now() < stop_at) {
    poll_once(std::min(options_.max_poll_wait, stop_at - now()));
  }
  return !exec_.fiber_alive(fiber);
}

}  // namespace ugrpc::net
