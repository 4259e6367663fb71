#include "membership/membership.h"

#include "common/assert.h"
#include "common/log.h"

namespace ugrpc::membership {

namespace {

Buffer encode_heartbeat(ProcessId sender) {
  Buffer b;
  Writer w(b);
  w.u32(sender.value());
  return b;
}

ProcessId decode_heartbeat(const Buffer& b) { return ProcessId{Reader(b).u32()}; }

DomainId domain_of(ProcessId p) { return DomainId{p.value()}; }

}  // namespace

MembershipMonitor::MembershipMonitor(net::Transport& transport, net::Endpoint& endpoint,
                                     std::vector<ProcessId> watch, Params params)
    : transport_(transport), endpoint_(endpoint), watch_(std::move(watch)), params_(params) {
  UGRPC_ASSERT(params_.failure_timeout > params_.heartbeat_interval);
}

MembershipMonitor::~MembershipMonitor() { transport_.cancel_timer(timer_); }

void MembershipMonitor::start() {
  UGRPC_ASSERT(!started_);
  started_ = true;
  const sim::Time now = transport_.now();
  for (ProcessId p : watch_) {
    if (p == endpoint_.process()) continue;  // never monitor oneself
    peers_.emplace(p, PeerState{now, true});
  }
  endpoint_.set_handler(kMembershipProto, [this](net::Packet pkt) -> sim::Task<> {
    const ProcessId who = decode_heartbeat(pkt.payload);
    auto it = peers_.find(who);
    if (it == peers_.end()) co_return;  // not watched
    it->second.last_heard = transport_.now();
    if (!it->second.alive) {
      it->second.alive = true;
      UGRPC_LOG(kDebug, "membership@%u: RECOVERY of %u", endpoint_.process().value(),
                who.value());
      if (listener_) listener_(who, Change::kRecovery);
    }
    co_return;
  });
  send_heartbeat();
  arm_timer();
}

void MembershipMonitor::send_heartbeat() {
  // Heartbeats go to every watched peer; peers that also watch us use them.
  for (ProcessId p : watch_) {
    if (p == endpoint_.process()) continue;
    endpoint_.send(p, kMembershipProto, encode_heartbeat(endpoint_.process()));
  }
}

void MembershipMonitor::arm_timer() {
  timer_ = transport_.schedule_after(
      params_.heartbeat_interval,
      [this] {
        send_heartbeat();
        check_failures();
        arm_timer();
      },
      domain_of(endpoint_.process()));
}

void MembershipMonitor::check_failures() {
  const sim::Time now = transport_.now();
  for (auto& [who, state] : peers_) {
    if (state.alive && now - state.last_heard > params_.failure_timeout) {
      state.alive = false;
      UGRPC_LOG(kDebug, "membership@%u: FAILURE of %u", endpoint_.process().value(), who.value());
      if (listener_) listener_(who, Change::kFailure);
    }
  }
}

std::set<ProcessId> MembershipMonitor::live_members() const {
  std::set<ProcessId> live;
  for (ProcessId p : watch_) {
    if (is_live(p)) live.insert(p);
  }
  return live;
}

bool MembershipMonitor::is_live(ProcessId p) const {
  if (p == endpoint_.process()) return true;
  auto it = peers_.find(p);
  return it != peers_.end() && it->second.alive;
}

}  // namespace ugrpc::membership
