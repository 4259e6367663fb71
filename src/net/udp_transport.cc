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
/// Receive buffer each socket asks for; the kernel caps it at rmem_max.
constexpr int kRecvBufferBytes = 2 << 20;
/// Most datagrams one sendmmsg() takes (the kernel's UIO_MAXIOV); it sends
/// no more than that whatever it is offered.
constexpr std::size_t kMaxSendBatch = 1024;
/// recvmmsg() slot size: one byte past the largest frame.
constexpr std::size_t kRecvSlot = kMaxDatagram + 1;

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
      start_(std::chrono::steady_clock::now()),
      recv_slots_(std::make_unique_for_overwrite<std::byte[]>(kRecvBatch * kRecvSlot)) {
  for (std::size_t i = 0; i < kRecvBatch; ++i) {
    recv_iovs_[i] = iovec{recv_slots_.get() + i * kRecvSlot, kRecvSlot};
    recv_msgs_[i].msg_hdr.msg_iov = &recv_iovs_[i];
    recv_msgs_[i].msg_hdr.msg_iovlen = 1;
  }
}

UdpTransport::~UdpTransport() {
  flush_sends();
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
  // Room for a burst: a peer's batched sends arrive back to back.
  int rcvbuf = kRecvBufferBytes;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  socklen_t rcvbuf_len = sizeof(rcvbuf);
  ::getsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, &rcvbuf_len);
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
  UGRPC_LOG(kDebug, "udp: attach %u on %s:%u (incarnation %u, receive buffer %d bytes)",
            process.value(), options_.bind_host.c_str(), socket.port, socket.incarnation, rcvbuf);
  return endpoint;
}

void UdpTransport::detach(ProcessId process) {
  auto it = sockets_.find(process);
  if (it == sockets_.end()) return;
  flush_sends();  // nothing queued may leave on a closed, or reused, fd
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
  // edge.  The span stays open until the datagram leaves; a send that fails
  // is counted as dropped and flagged at the close.
  obs::SiteTrace* trace = from.trace();
  obs::SpanCtx ctx;
  if (trace != nullptr) {
    ctx = trace->open(now(), obs::Kind::kMsgSent, parent, 0, to.value(), proto.value());
  }
  if (send_fault_ && send_fault_(from.process(), to, proto)) {
    // Deterministic loss injected by a test/example (real UDP on loopback
    // almost never drops, so forcing a retransmission needs a hook).
    if (trace != nullptr) {
      trace->record(now(), obs::Kind::kMsgDropped, 0, to.value(), proto.value());
    }
    close_send(trace, ctx.parent, /*failed=*/true);
    return;
  }
  const Socket& socket = sockets_.at(from.process());
  const WireFrame frame{from.process(), to, proto, socket.incarnation,
                        ctx.trace, ctx.parent, payload};
  // The datagram is frame.encode()'s bytes, gathered from the queued header
  // and the payload's own storage: no framing copy of the payload.
  const WireFrame::Head head = frame.head();
  if (head.size() + payload.size() > kMaxDatagram) {
    UGRPC_LOG(kWarn, "udp: frame %u->%u proto=%u exceeds %zu bytes, dropped",
              from.process().value(), to.value(), proto.value(), kMaxDatagram);
    close_send(trace, ctx.parent, /*failed=*/true);
    return;
  }
  outbox_.push_back(
      Outgoing{socket.fd, peers_.at(to), head, payload, from.process(), to, trace, ctx.parent});
  if (!draining_) flush_sends();
}

void UdpTransport::close_send(obs::SiteTrace* trace, std::uint64_t span, bool failed) {
  if (failed) ++stats_.dropped;
  if (trace != nullptr) trace->close(now(), span, obs::Kind::kSpanEnd, 0, 0, 0, failed);
}

void UdpTransport::flush_sends() {
  const std::size_t n = outbox_.size();
  if (n == 0) return;
  send_msgs_.resize(n);
  send_iovs_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    Outgoing& out = outbox_[i];
    send_iovs_[i] = {iovec{out.head.data(), out.head.size()},
                     iovec{const_cast<std::byte*>(out.payload.bytes().data()), out.payload.size()}};
    msghdr& msg = send_msgs_[i].msg_hdr;
    msg = msghdr{};
    msg.msg_name = &out.addr;
    msg.msg_namelen = sizeof(out.addr);
    msg.msg_iov = send_iovs_[i].data();
    msg.msg_iovlen = out.payload.empty() ? 1 : 2;
  }
  // sendmmsg() stops at the first datagram the kernel refuses and reports
  // how many went before it (an error only when none did).  That datagram
  // is lost, as a failed sendmsg() would lose it -- a full socket buffer or
  // a vanished peer is loss the reliable-communication layer repairs -- and
  // the rest of the run goes in a further call.
  for (std::size_t i = 0; i < n;) {
    const int fd = outbox_[i].fd;
    std::size_t end = i + 1;
    while (end < n && outbox_[end].fd == fd && end - i < kMaxSendBatch) ++end;
    while (i < end) {
      const int rc = ::sendmmsg(fd, &send_msgs_[i], static_cast<unsigned>(end - i), 0);
      const std::size_t sent = rc > 0 ? static_cast<std::size_t>(rc) : 0;
      for (const std::size_t stop = i + sent; i < stop; ++i) {
        close_send(outbox_[i].trace, outbox_[i].span, /*failed=*/false);
      }
      if (i == end) break;
      UGRPC_LOG(kDebug, "udp: sendmmsg %u->%u failed: %s", outbox_[i].from.value(),
                outbox_[i].to.value(), rc < 0 ? std::strerror(errno) : "after a partial batch");
      close_send(outbox_[i].trace, outbox_[i].span, /*failed=*/true);
      ++i;
    }
  }
  outbox_.clear();
}

void UdpTransport::sync_executor() {
  // Sends made while the executor runs queue up and leave together when it
  // stops, also when a fiber's exception ends the drain.
  struct Flush {
    UdpTransport& t;
    ~Flush() {
      t.draining_ = false;
      t.flush_sends();
    }
  };
  draining_ = true;
  const Flush flush{*this};
  exec_.run_until(now());
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

void UdpTransport::receive(int fd, ProcessId owner) {
  // A call that fills fewer than every slot has drained the socket, so no
  // call is spent on learning that it is empty.
  for (;;) {
    const int n = ::recvmmsg(fd, recv_msgs_.data(), kRecvBatch, MSG_DONTWAIT, nullptr);
    for (int i = 0; i < n; ++i) {
      const std::size_t len = recv_msgs_[i].msg_len;
      if (len > kMaxDatagram) {
        // It filled its slot's spare byte: longer than any frame (and
        // truncated to the slot when longer still).
        ++stats_.dropped;
        UGRPC_LOG(kDebug, "udp: dropping datagram of more than %zu bytes", kMaxDatagram);
        continue;
      }
      dispatch_datagram(owner, std::span<const std::byte>(recv_slots_.get() + i * kRecvSlot, len));
    }
    if (n < static_cast<int>(kRecvBatch)) return;
  }
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
    for (std::size_t i = 0; i < pollfds_.size(); ++i) {
      if ((pollfds_[i].revents & POLLIN) == 0) continue;
      if (!sockets_.contains(poll_owners_[i])) continue;  // detached by a callback
      receive(pollfds_[i].fd, poll_owners_[i]);
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
