#include "core/composite.h"

#include "common/assert.h"
#include "core/micro/acceptance.h"
#include "core/micro/atomic_execution.h"
#include "core/micro/bounded_termination.h"
#include "core/micro/call_semantics.h"
#include "core/micro/collation.h"
#include "core/micro/fifo_order.h"
#include "core/micro/interference_avoidance.h"
#include "core/micro/reliable_communication.h"
#include "core/micro/rpc_main.h"
#include "core/micro/serial_execution.h"
#include "core/micro/terminate_orphan.h"
#include "core/micro/total_order.h"
#include "core/micro/unique_execution.h"

namespace ugrpc::core {

namespace {

DomainId domain_of(ProcessId p) { return DomainId{p.value()}; }

}  // namespace

GrpcComposite::GrpcComposite(net::Transport& transport, net::Endpoint& endpoint, ProcessId my_id,
                             storage::StableStore& stable, UserProtocol& user,
                             const Config& config, std::set<ProcessId> known)
    : runtime::CompositeProtocol(transport, domain_of(my_id), endpoint.trace()), config_(config),
      state_(transport, endpoint, my_id), endpoint_(endpoint), stable_(stable) {
  UGRPC_ASSERT((config_.unsafe_skip_validation || is_valid(config_)) &&
               "configuration violates the dependency graph");
  state_.user = &user;
  state_.members = std::move(known);
  define_grpc_events(framework());
  assemble();
  start();
  // UPI "demux from below": decode and run the chain of the message's kind.
  // The network spawns one fiber per delivered packet in this site's domain.
  endpoint_.set_handler(kGrpcProto, [this](net::Packet pkt) -> sim::Task<> {
    net::NetMessage msg;
    try {
      msg = net::NetMessage::decode(pkt.payload);
    } catch (const CodecError& e) {
      state_.drop_malformed(pkt.src, e);
      co_return;
    }
    // A Call is for the members of the group it names.  One delivered to
    // any other site is misaddressed: no micro-protocol sees it.
    if (msg.type == net::MsgType::kCall && !state_.member_of(msg.server)) {
      state_.drop_malformed(pkt.src, CodecError("Call names a group this site is not in"));
      co_return;
    }
    co_await framework().trigger(network_event(msg.type), runtime::EventArg::ref(msg));
  });
}

void GrpcComposite::assemble() {
  // Priorities (priorities.h), not this order, decide the order of every chain.
  emplace<RpcMain>(state_);
  switch (config_.call) {
    case CallSemantics::kSynchronous: emplace<SynchronousCall>(state_); break;
    case CallSemantics::kAsynchronous: emplace<AsynchronousCall>(state_); break;
  }
  if (config_.reliable_communication) {
    reliable_ = &emplace<ReliableCommunication>(state_, config_.retrans_timeout);
  }
  if (config_.termination_bound.has_value()) {
    bounded_ = &emplace<BoundedTermination>(state_, *config_.termination_bound);
  }
  CollationFn fold = config_.collation ? config_.collation : last_reply_collation();
  emplace<Collation>(state_, std::move(fold), config_.collation_init);
  if (config_.unique_execution) {
    unique_ = &emplace<UniqueExecution>(state_, config_.retrans_timeout);
  }
  switch (config_.orphan) {
    case OrphanHandling::kIgnore: break;
    case OrphanHandling::kInterferenceAvoidance:
      interference_ = &emplace<InterferenceAvoidance>(state_);
      break;
    case OrphanHandling::kTerminateOrphans:
      terminator_ = &emplace<TerminateOrphan>(state_);
      break;
  }
  if (config_.execution != ExecutionMode::kPlain) {
    emplace<SerialExecution>(state_);
  }
  if (config_.execution == ExecutionMode::kSerialAtomic) {
    atomic_ = &emplace<AtomicExecution>(state_, stable_);
  }
  emplace<Acceptance>(state_, config_.acceptance_limit);
  switch (config_.ordering) {
    case Ordering::kNone: break;
    case Ordering::kFifo: fifo_ = &emplace<FifoOrder>(state_); break;
    case Ordering::kTotal:
      total_ = &emplace<TotalOrder>(state_, config_.group);
      break;
  }
}

sim::Task<> GrpcComposite::call(UserMessage& umsg) {
  co_await framework().trigger(kCallFromUser, runtime::EventArg::ref(umsg));
}

sim::Task<> GrpcComposite::collect(UserMessage& umsg) {
  co_await framework().trigger(kRequestFromUser, runtime::EventArg::ref(umsg));
}

sim::Task<> GrpcComposite::signal_recovery(Incarnation inc) {
  RecoveryEvent ev{inc};
  co_await framework().trigger(kRecovery, runtime::EventArg::ref(ev));
}

sim::Task<> GrpcComposite::notify_membership(ProcessId who, membership::Change change) {
  if (change == membership::Change::kFailure) {
    state_.members.erase(who);
  } else {
    state_.members.insert(who);
  }
  MembershipEvent ev{who, change};
  co_await framework().trigger(kMembershipChange, runtime::EventArg::ref(ev));
}

}  // namespace ugrpc::core
