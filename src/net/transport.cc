#include "net/transport.h"

#include <utility>

#include "common/assert.h"
#include "common/log.h"

namespace ugrpc::net {

Transport::Transport(sim::Scheduler& exec) : exec_(exec), unroutable_log_(sim::seconds(1)) {}

Endpoint& Transport::attach(ProcessId process, DomainId domain) {
  // In-place construction: the Endpoint's address escapes to the layers
  // above, so it is neither copied nor moved while attached.
  auto [it, inserted] = endpoints_.try_emplace(process, *this, process, domain);
  UGRPC_ASSERT(inserted && "process already attached");
  it->second.trace_ = obs_ != nullptr ? &obs_->site(process) : nullptr;
  return it->second;
}

void Transport::set_tracer(obs::Tracer* tracer) {
  obs_ = tracer;
  for (auto& [process, ep] : endpoints_) {
    ep.trace_ = tracer != nullptr ? &tracer->site(process) : nullptr;
  }
}

void Transport::define_group(GroupId group, std::vector<ProcessId> members) {
  groups_[group] = std::move(members);
}

const std::vector<ProcessId>& Transport::group_members(GroupId group) const {
  const std::vector<ProcessId>* members = find_group(group);
  UGRPC_ASSERT(members != nullptr && "unknown group");
  return *members;
}

const std::vector<ProcessId>* Transport::find_group(GroupId group) const {
  auto it = groups_.find(group);
  return it != groups_.end() ? &it->second : nullptr;
}

void Transport::set_process_up(ProcessId process, bool up) {
  auto it = endpoints_.find(process);
  UGRPC_ASSERT(it != endpoints_.end() && "only an attached process can go up or down");
  it->second.up_ = up;
}

bool Transport::process_up(ProcessId process) const {
  auto it = endpoints_.find(process);
  return it != endpoints_.end() && it->second.up_;
}

void Transport::send(const Endpoint& from, ProcessId to, ProtocolId proto, const Buffer& payload) {
  if (!routable(to)) {
    unroutable(from, to.value(), proto, /*group=*/false);
    return;
  }
  ++stats_.sent;
  stats_.bytes_sent += payload.size();
  if (!from.up_) {
    ++stats_.dropped;
    return;  // crashed senders produce nothing
  }
  // The send span parents to whatever the sending fiber is doing (its
  // ambient context; none outside a fiber); the wire carries its id to the
  // destination, where it becomes the delivery span's parent.
  transmit(from, to, proto, payload, from.trace_ != nullptr ? exec_.ambient() : obs::SpanCtx{});
}

void Transport::multicast(const Endpoint& from, GroupId group, ProtocolId proto,
                       const Buffer& payload) {
  const std::vector<ProcessId>* members = find_group(group);
  if (members == nullptr) {
    unroutable(from, group.value(), proto, /*group=*/true);
    return;
  }
  for (ProcessId member : *members) send(from, member, proto, payload);
}

void Transport::unroutable(const Endpoint& sender, std::uint64_t target, ProtocolId proto,
                           bool group) {
  ++stats_.unroutable;
  if (sender.trace_ != nullptr) {
    sender.trace_->record(now(), obs::Kind::kMsgUnroutable, 0, target, proto.value());
  }
  const ProcessId from = sender.process_;
  // Rate-limiter keys: one space for links, one for (sender, group).
  const std::uint64_t key =
      group ? (std::uint64_t{1} << 63) | (static_cast<std::uint64_t>(from.value()) << 16) | target
            : (static_cast<std::uint64_t>(from.value()) << 32) | target;
  const char* kind = group ? "group " : "";
  const auto id = static_cast<unsigned long long>(target);
  if (const std::uint64_t n = unroutable_log_.occurrences_to_log(key, now()); n == 1) {
    UGRPC_LOG(kWarn, "net: unroutable %u->%s%llu proto=%u (%s)", from.value(), kind, id,
              proto.value(),
              group ? "undefined group" : "destination not attached, no peer address");
  } else if (n > 1) {
    UGRPC_LOG(kWarn, "net: unroutable %u->%s%llu: %llu more since last report (latest proto=%u)",
              from.value(), kind, id, static_cast<unsigned long long>(n), proto.value());
  }
}

void Transport::drop(const Packet& packet, obs::SiteTrace* trace) {
  ++stats_.dropped;
  if (trace != nullptr) {
    trace->record(now(), obs::Kind::kMsgDropped, 0, packet.src.value(), packet.proto.value());
  }
}

void Transport::deliver(Packet packet) {
  auto it = endpoints_.find(packet.dst);
  if (it == endpoints_.end() || !it->second.up_) {
    // The destination crashed or detached (no ring left) while in flight.
    drop(packet, it != endpoints_.end() ? it->second.trace_ : nullptr);
    return;
  }
  const Endpoint& ep = it->second;
  obs::SiteTrace* trace = ep.trace_;
  std::shared_ptr<PacketHandler> handler = ep.handler(packet.proto);
  if (handler == nullptr) {
    UGRPC_LOG(kDebug, "net: no handler for proto=%u at %u", packet.proto.value(),
              packet.dst.value());
    drop(packet, trace);
    return;
  }
  ++stats_.delivered;
  stats_.bytes_delivered += packet.payload.size();
  // kMsgDelivered opens the delivery span, parented to the *send* span
  // carried on the packet, stitching the sender's tree to the receiver's.
  // It stays open for the whole handler fiber and is the fiber's ambient
  // context, so everything the handler does (nested sends, handler spans)
  // hangs beneath it.
  obs::SpanCtx ctx;
  if (trace != nullptr) {
    ctx = trace->open(now(), obs::Kind::kMsgDelivered, packet.ctx, 0, packet.src.value(),
                      packet.proto.value(), 0, packet.duplicate);
  }
  // Each delivery runs in its own fiber in the destination's domain, so a
  // site crash kills in-progress message processing.  The wrapper keeps
  // the handler object alive for the fiber's lifetime (the coroutine frame
  // references the closure it was created from).
  static constexpr auto invoke = [](Transport* t, std::shared_ptr<PacketHandler> h, Packet p,
                                    obs::SiteTrace* trace, obs::SpanCtx ctx) -> sim::Task<> {
    if (trace != nullptr) t->exec_.set_ambient(ctx);
    co_await (*h)(std::move(p));
    if (trace != nullptr) trace->close(t->now(), ctx.parent);
  };
  exec_.spawn(invoke(this, std::move(handler), std::move(packet), trace, ctx), ep.domain());
}

}  // namespace ugrpc::net
