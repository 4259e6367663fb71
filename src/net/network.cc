#include "net/network.h"

#include <utility>

#include "common/log.h"

namespace ugrpc::net {

Network::Network(sim::Scheduler& sched) : Transport(sched), rng_(sched.rng().fork()) {}

FaultSpec& Network::link(ProcessId from, ProcessId to) {
  auto [it, inserted] = link_faults_.try_emplace({from, to}, default_faults_);
  return it->second;
}

const FaultSpec& Network::faults_for(ProcessId from, ProcessId to) const {
  auto it = link_faults_.find({from, to});
  return it != link_faults_.end() ? it->second : default_faults_;
}

void Network::transmit(const Endpoint& from, ProcessId to, ProtocolId proto,
                       const Buffer& payload, obs::SpanCtx parent) {
  obs::SiteTrace* trace = from.trace();
  const FaultSpec& spec = faults_for(from.process(), to);
  if (spec.partitioned || rng_.bernoulli(spec.drop_prob)) {
    ++stats_.dropped;
    if (trace != nullptr) {
      const obs::SpanCtx dropped = trace->open(now(), obs::Kind::kMsgDropped, parent, 0,
                                               to.value(), proto.value(), 0, /*flagged=*/true);
      trace->close(now(), dropped.parent);
    }
    UGRPC_LOG(kTrace, "net: drop %u->%u proto=%u", from.process().value(), to.value(),
              proto.value());
    return;
  }
  const auto draw_delay = [&] {
    return spec.min_delay >= spec.max_delay
               ? spec.min_delay
               : sim::Duration{rng_.uniform_int(spec.min_delay, spec.max_delay)};
  };
  obs::SpanCtx ctx;
  if (trace != nullptr) {
    ctx = trace->open(now(), obs::Kind::kMsgSent, parent, 0, to.value(), proto.value());
  }
  schedule_delivery(Packet{from.process(), to, proto, payload, ctx, false}, draw_delay());
  if (rng_.bernoulli(spec.dup_prob)) {
    ++stats_.duplicated;
    if (trace != nullptr) {
      trace->record(now(), obs::Kind::kMsgDuplicated, 0, to.value(), proto.value());
    }
    // The manufactured copy stays on the original trace but is marked, so
    // the span tree shows the duplicate delivery for what it is.
    schedule_delivery(Packet{from.process(), to, proto, payload, ctx, /*duplicate=*/true},
                      draw_delay());
  }
  if (trace != nullptr) trace->close(now(), ctx.parent);
}

void Network::schedule_delivery(Packet packet, sim::Duration delay) {
  const auto [id, slot] = in_flight_.insert();
  slot = std::move(packet);
  executor().schedule_after(delay, [this, id] {
    Packet arrived = std::move(*in_flight_.find(id));
    in_flight_.erase(id);
    deliver(std::move(arrived));
  });
}

}  // namespace ugrpc::net
