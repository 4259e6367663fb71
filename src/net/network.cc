#include "net/network.h"

#include <utility>

#include "common/assert.h"
#include "common/log.h"

namespace ugrpc::net {

namespace {

/// Minimum virtual-time gap between unroutable warnings for one key.
constexpr sim::Duration kUnroutableLogPeriod = sim::seconds(1);

/// Rate-limiter keys: one space for links, one for (sender, group).
constexpr std::uint64_t link_key(ProcessId from, ProcessId to) {
  return (static_cast<std::uint64_t>(from.value()) << 32) | to.value();
}
constexpr std::uint64_t group_key(ProcessId from, GroupId group) {
  return (std::uint64_t{1} << 63) | (static_cast<std::uint64_t>(from.value()) << 16) |
         group.value();
}

}  // namespace

Network::Network(sim::Scheduler& sched)
    : sched_(sched), rng_(sched.rng().fork()), unroutable_log_(kUnroutableLogPeriod) {}

Endpoint& Network::attach(ProcessId process, DomainId domain) {
  // In-place construction: Endpoint is pinned (handler table address escapes
  // into delivery closures), so it is neither copyable nor movable.
  auto [it, inserted] = endpoints_.try_emplace(process, *this, process, domain);
  UGRPC_ASSERT(inserted && "process already attached");
  up_[process] = true;
  return it->second;
}

void Network::detach(ProcessId process) {
  endpoints_.erase(process);
  up_.erase(process);
}

FaultSpec& Network::link(ProcessId from, ProcessId to) {
  auto [it, inserted] = link_faults_.try_emplace({from, to}, default_faults_);
  return it->second;
}

const FaultSpec& Network::faults_for(ProcessId from, ProcessId to) const {
  auto it = link_faults_.find({from, to});
  return it != link_faults_.end() ? it->second : default_faults_;
}

void Network::set_process_up(ProcessId process, bool up) { up_[process] = up; }

bool Network::process_up(ProcessId process) const {
  auto it = up_.find(process);
  return it != up_.end() && it->second;
}

void Network::define_group(GroupId group, std::vector<ProcessId> members) {
  groups_[group] = std::move(members);
}

const std::vector<ProcessId>& Network::group_members(GroupId group) const {
  auto it = groups_.find(group);
  UGRPC_ASSERT(it != groups_.end() && "unknown group");
  return it->second;
}

Network::LinkStats Network::link_stats(ProcessId from, ProcessId to) const {
  auto it = link_stats_.find({from, to});
  return it != link_stats_.end() ? it->second : LinkStats{};
}

void Network::transmit(ProcessId from, ProcessId to, ProtocolId proto, const Buffer& payload) {
  if (!endpoints_.contains(to)) {
    // No attachment now and none possible by delivery time from this send:
    // the packet has no route.  Count it instead of letting it vanish.
    ++stats_.unroutable;
    if (obs_) {
      obs_->site(from).record(sched_.now(), obs::Kind::kMsgUnroutable, 0, to.value(),
                              proto.value());
    }
    if (const std::uint64_t n = unroutable_log_.occurrences_to_log(link_key(from, to), sched_.now());
        n == 1) {
      UGRPC_LOG(kWarn, "net: unroutable %u->%u proto=%u (destination not attached)", from.value(),
                to.value(), proto.value());
    } else if (n > 1) {
      UGRPC_LOG(kWarn,
                "net: unroutable %u->%u: %llu more since last report (latest proto=%u)",
                from.value(), to.value(), static_cast<unsigned long long>(n), proto.value());
    }
    return;
  }
  LinkStats& link = link_stats_[{from, to}];
  ++stats_.sent;
  ++link.sent;
  stats_.bytes_sent += payload.size();
  link.bytes_sent += payload.size();
  // The send span parents to whatever the sending fiber is doing (the
  // ambient per-fiber context); its id travels on the packet and becomes the
  // delivery span's parent at the destination.  kMsgSent opens it, or
  // kMsgDropped (flagged) when the link loses the packet.
  obs::SiteTrace* st = nullptr;
  obs::SpanCtx ambient;
  if (obs_) {
    st = &obs_->site(from);
    ambient = st->current(sched_.current_fiber().value());
  }
  if (!process_up(from)) {
    ++stats_.dropped;
    ++link.dropped;
    return;  // crashed senders produce nothing
  }
  const FaultSpec& spec = faults_for(from, to);
  if (spec.partitioned || rng_.bernoulli(spec.drop_prob)) {
    ++stats_.dropped;
    ++link.dropped;
    if (st != nullptr) {
      const obs::SpanCtx dropped = st->open(sched_.now(), obs::Kind::kMsgDropped, ambient, 0,
                                            to.value(), proto.value(), 0, /*flagged=*/true);
      st->close(sched_.now(), dropped.parent);
    }
    UGRPC_LOG(kTrace, "net: drop %u->%u proto=%u", from.value(), to.value(), proto.value());
    return;
  }
  const auto draw_delay = [&] {
    return spec.min_delay >= spec.max_delay
               ? spec.min_delay
               : sim::Duration{rng_.uniform_int(spec.min_delay, spec.max_delay)};
  };
  obs::SpanCtx out_ctx;
  if (st != nullptr) {
    out_ctx = st->open(sched_.now(), obs::Kind::kMsgSent, ambient, 0, to.value(), proto.value());
  }
  schedule_delivery(Packet{from, to, proto, payload, out_ctx, false}, draw_delay());
  if (rng_.bernoulli(spec.dup_prob)) {
    ++stats_.duplicated;
    ++link.duplicated;
    if (st != nullptr) {
      st->record(sched_.now(), obs::Kind::kMsgDuplicated, 0, to.value(), proto.value());
    }
    // The manufactured copy stays on the original trace but is marked, so
    // the span tree shows the duplicate delivery for what it is.
    schedule_delivery(Packet{from, to, proto, payload, out_ctx, /*duplicate=*/true},
                      draw_delay());
  }
  if (st != nullptr) st->close(sched_.now(), out_ctx.parent);
}

void Network::multicast_from(ProcessId from, GroupId group, ProtocolId proto,
                             const Buffer& payload) {
  auto it = groups_.find(group);
  if (it == groups_.end()) {
    ++stats_.unroutable;
    if (obs_) {
      obs_->site(from).record(sched_.now(), obs::Kind::kMsgUnroutable, 0, group.value(),
                              proto.value());
    }
    if (const std::uint64_t n =
            unroutable_log_.occurrences_to_log(group_key(from, group), sched_.now());
        n == 1) {
      UGRPC_LOG(kWarn, "net: unroutable multicast from %u to undefined group %u proto=%u",
                from.value(), group.value(), proto.value());
    } else if (n > 1) {
      UGRPC_LOG(kWarn,
                "net: unroutable multicast from %u to group %u: %llu more since last report",
                from.value(), group.value(), static_cast<unsigned long long>(n));
    }
    return;
  }
  for (ProcessId member : it->second) {
    transmit(from, member, proto, payload);
  }
}

void Network::schedule_delivery(Packet packet, sim::Duration delay) {
  sched_.schedule_after(delay, [this, packet = std::move(packet)]() mutable {
    auto it = endpoints_.find(packet.dst);
    if (it == endpoints_.end() || !process_up(packet.dst)) {
      ++stats_.dropped;
      ++link_stats_[{packet.src, packet.dst}].dropped;
      if (obs_) {
        obs_->site(packet.dst).record(sched_.now(), obs::Kind::kMsgDropped, 0,
                                      packet.src.value(), packet.proto.value());
      }
      return;  // destination crashed or detached while the packet was in flight
    }
    SimEndpoint& ep = it->second;
    std::shared_ptr<PacketHandler> handler = ep.handler(packet.proto);
    if (handler == nullptr) {
      ++stats_.dropped;
      ++link_stats_[{packet.src, packet.dst}].dropped;
      if (obs_) {
        obs_->site(packet.dst).record(sched_.now(), obs::Kind::kMsgDropped, 0,
                                      packet.src.value(), packet.proto.value());
      }
      UGRPC_LOG(kDebug, "net: no handler for proto=%u at %u", packet.proto.value(),
                packet.dst.value());
      return;
    }
    ++stats_.delivered;
    LinkStats& link = link_stats_[{packet.src, packet.dst}];
    ++link.delivered;
    stats_.bytes_delivered += packet.payload.size();
    link.bytes_delivered += packet.payload.size();
    // kMsgDelivered opens the delivery span, parented to the *send* span
    // carried on the packet, stitching the sender's tree to the receiver's.
    // It stays open for the whole handler fiber and is the fiber's ambient
    // context, so everything the handler does (nested sends, handler spans)
    // hangs beneath it.
    obs::SpanCtx deliver_ctx;
    if (obs_) {
      deliver_ctx = obs_->site(packet.dst).open(sched_.now(), obs::Kind::kMsgDelivered, packet.ctx,
                                                0, packet.src.value(), packet.proto.value(), 0,
                                                packet.duplicate);
    }
    // Each delivery runs in its own fiber in the destination's domain, so a
    // site crash kills in-progress message processing.  The wrapper keeps
    // the handler object alive for the fiber's lifetime (the coroutine frame
    // references the closure it was created from).
    static constexpr auto invoke = [](Network* net, std::shared_ptr<PacketHandler> h, Packet p,
                                      obs::SpanCtx ctx) -> sim::Task<> {
      const ProcessId dst = p.dst;
      obs::SiteTrace* st = net->obs_ != nullptr ? &net->obs_->site(dst) : nullptr;
      const std::uint64_t fiber = net->sched_.current_fiber().value();
      if (st != nullptr) st->set_current(fiber, ctx);
      co_await (*h)(std::move(p));
      if (st != nullptr) {
        st->clear_current(fiber);
        st->close(net->sched_.now(), ctx.parent);
      }
    };
    sched_.spawn(invoke(this, std::move(handler), std::move(packet), deliver_ctx), ep.domain());
  });
}

}  // namespace ugrpc::net
