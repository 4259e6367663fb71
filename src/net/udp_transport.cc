#include "net/udp_transport.h"

#include <arpa/inet.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
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

/// Poll timeout cap of run_for/run_until_fiber_done: an idle loop wakes at
/// least this often.
constexpr sim::Duration kMaxPollWait = sim::msec(10);
/// Cap of any one ppoll wait, whatever poll_once is asked for.
constexpr sim::Duration kMaxPpollWait = sim::seconds(1);

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
    : Transport(exec_), options_(std::move(options)), exec_(options_.seed),
      start_(std::chrono::steady_clock::now()) {}

UdpTransport::~UdpTransport() {
  for (auto& [process, socket] : sockets_) ::close(socket.fd);
}

sim::Time UdpTransport::now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(std::chrono::steady_clock::now() -
                                                               start_)
      .count();
}

Endpoint& UdpTransport::attach(ProcessId process, DomainId domain) {
  Endpoint& endpoint = Transport::attach(process, domain);
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

  const Socket& socket = sockets_[process] =
      Socket{fd, ntohs(addr.sin_port), ++attach_counts_[process]};
  peers_[process] = addr;  // local processes are reachable like any peer
  rebuild_poll_set();
  UGRPC_LOG(kDebug, "udp: attach %u on %s:%u (incarnation %u)", process.value(),
            options_.bind_host.c_str(), socket.port, socket.incarnation);
  return endpoint;
}

void UdpTransport::detach(ProcessId process) {
  auto it = sockets_.find(process);
  if (it == sockets_.end()) return;
  ::close(it->second.fd);
  peers_.erase(process);
  sockets_.erase(it);
  rebuild_poll_set();
  Transport::detach(process);
}

void UdpTransport::rebuild_poll_set() {
  pollfds_.clear();
  poll_owners_.clear();
  for (const auto& [process, socket] : sockets_) {
    pollfds_.push_back(pollfd{socket.fd, POLLIN, 0});
    poll_owners_.push_back(process);
  }
}

void UdpTransport::add_peer(ProcessId peer, const std::string& host, std::uint16_t port) {
  peers_[peer] = make_addr(host, port);
}

std::uint16_t UdpTransport::local_port(ProcessId process) const {
  auto it = sockets_.find(process);
  UGRPC_ASSERT(it != sockets_.end() && "process not attached");
  return it->second.port;
}

void UdpTransport::transmit(const Endpoint& from, ProcessId to, ProtocolId proto,
                            const Buffer& payload, obs::SpanCtx parent) {
  // kMsgSent opens the send span; its id travels in the frame (wire v2) and
  // parents the receiving process's delivery span -- the cross-process tree
  // edge.  A send that fails below is counted as dropped and flagged at the
  // close.
  obs::SiteTrace* trace = from.trace();
  obs::SpanCtx ctx;
  if (trace != nullptr) {
    ctx = trace->open(now(), obs::Kind::kMsgSent, parent, 0, to.value(), proto.value());
  }
  const auto close_send = [&](bool failed) {
    if (failed) ++stats_.dropped;
    if (trace != nullptr) trace->close(now(), ctx.parent, obs::Kind::kSpanEnd, 0, 0, 0, failed);
  };
  if (send_fault_ && send_fault_(from.process(), to, proto)) {
    // Deterministic loss injected by a test/example (real UDP on loopback
    // almost never drops, so forcing a retransmission needs a hook).
    if (trace != nullptr) {
      trace->record(now(), obs::Kind::kMsgDropped, 0, to.value(), proto.value());
    }
    close_send(true);
    return;
  }
  const Socket& socket = sockets_.at(from.process());
  const WireFrame frame{from.process(), to, proto, socket.incarnation,
                        ctx.trace, ctx.parent, payload};
  // The datagram is frame.encode()'s bytes, gathered from the stack (the
  // header) and the payload's own storage: no framing copy of the payload.
  const WireFrame::Head head = frame.head();
  if (head.size() + payload.size() > kMaxDatagram) {
    UGRPC_LOG(kWarn, "udp: frame %u->%u proto=%u exceeds %zu bytes, dropped",
              from.process().value(), to.value(), proto.value(), kMaxDatagram);
    close_send(true);
    return;
  }
  sockaddr_in addr = peers_.at(to);
  iovec iov[2] = {
      {const_cast<std::byte*>(head.data()), head.size()},
      {const_cast<std::byte*>(payload.bytes().data()), payload.size()},
  };
  msghdr msg{};
  msg.msg_name = &addr;
  msg.msg_namelen = sizeof(addr);
  msg.msg_iov = iov;
  msg.msg_iovlen = payload.empty() ? 1 : 2;
  const ssize_t n = ::sendmsg(socket.fd, &msg, 0);
  if (n < 0) {
    // A full socket buffer or a vanished peer (ECONNREFUSED from a previous
    // ICMP) is datagram loss; the reliable-communication layer retransmits.
    UGRPC_LOG(kDebug, "udp: sendmsg %u->%u failed: %s", from.process().value(), to.value(),
              std::strerror(errno));
  }
  close_send(n < 0);
}

void UdpTransport::dispatch_datagram(ProcessId owner, std::span<const std::byte> datagram) {
  std::optional<WireFrame> frame = WireFrame::decode(datagram);
  if (!frame.has_value()) {
    ++stats_.dropped;
    UGRPC_LOG(kDebug, "udp: dropping malformed %zu-byte datagram", datagram.size());
    return;
  }
  if (frame->dst != owner) {
    ++stats_.dropped;
    return;  // misdirected
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
  deliver(Packet{frame->src, frame->dst, frame->proto, std::move(frame->payload),
                 obs::SpanCtx{frame->trace, frame->span}});
}

sim::Duration UdpTransport::poll_wait(sim::Duration max_wait) {
  if (exec_.has_ready()) return 0;
  const sim::Time t = now();
  sim::Time deadline = t + std::max<sim::Duration>(max_wait, 0);
  if (const auto d = exec_.next_timer_deadline()) deadline = std::min(deadline, *d);
  return std::max<sim::Duration>(deadline - t, 0);
}

void UdpTransport::poll_once(sim::Duration max_wait) {
  sync_executor();

  const sim::Duration wait = std::min(poll_wait(max_wait), kMaxPpollWait);
  const timespec timeout{static_cast<time_t>(wait / 1'000'000),
                         static_cast<long>(wait % 1'000'000 * 1000)};
  if (::ppoll(pollfds_.data(), pollfds_.size(), &timeout, nullptr) > 0) {
    std::byte buf[kMaxDatagram + 1];
    for (std::size_t i = 0; i < pollfds_.size(); ++i) {
      if ((pollfds_[i].revents & POLLIN) == 0) continue;
      if (!sockets_.contains(poll_owners_[i])) continue;  // detached by a callback
      for (;;) {
        const ssize_t n = ::recv(pollfds_[i].fd, buf, sizeof(buf), 0);
        if (n < 0) break;  // EWOULDBLOCK: socket drained
        dispatch_datagram(poll_owners_[i],
                          std::span<const std::byte>(buf, static_cast<std::size_t>(n)));
      }
    }
  }

  sync_executor();
}

void UdpTransport::run_for(sim::Duration d) {
  const sim::Time stop_at = now() + d;
  while (now() < stop_at) poll_once(std::min(kMaxPollWait, stop_at - now()));
}

bool UdpTransport::run_until_fiber_done(FiberId fiber, sim::Duration timeout) {
  const sim::Time stop_at = now() + timeout;
  while (exec_.fiber_alive(fiber) && now() < stop_at) {
    poll_once(std::min(kMaxPollWait, stop_at - now()));
  }
  return !exec_.fiber_alive(fiber);
}

}  // namespace ugrpc::net
