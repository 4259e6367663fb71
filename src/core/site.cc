#include "core/site.h"

#include "common/assert.h"
#include "common/log.h"

namespace ugrpc::core {

Site::Site(net::Transport& transport, ProcessId id, Config config, std::set<ProcessId> known,
           std::vector<ProcessId> watch)
    : transport_(transport), id_(id), config_(std::move(config)), known_(std::move(known)),
      watch_(std::move(watch)), stable_(transport.executor()) {
  endpoint_ = &transport_.attach(id_, domain());
}

Site::~Site() {
  if (up_) teardown_stack();
}

void Site::boot() {
  UGRPC_ASSERT(!up_ && inc_ == 0 && "boot() is called exactly once");
  inc_ = 1;
  build_stack();
}

void Site::build_stack() {
  transport_.set_process_up(id_, true);
  up_ = true;
  user_ = std::make_unique<UserProtocol>();
  if (app_setup_) app_setup_(*user_, *this);
  grpc_ = std::make_unique<GrpcComposite>(transport_, *endpoint_, id_, stable_, *user_, config_,
                                          known_);
  grpc_->state().inc_number = inc_;
  grpc_->state().next_seq = first_seq_of_incarnation(inc_);
  if (config_.use_membership && !watch_.empty()) {
    monitor_ = std::make_unique<membership::MembershipMonitor>(
        transport_, *endpoint_, watch_, config_.membership_params);
    monitor_->set_listener([this](ProcessId who, membership::Change change) {
      // Run the MEMBERSHIP_CHANGE chain in its own fiber: handlers may block.
      transport_.spawn(grpc_->notify_membership(who, change), domain());
    });
    monitor_->start();
  }
}

void Site::teardown_stack() {
  executions_before_crashes_ += user_ != nullptr ? user_->executions() : 0;
  transport_.set_process_up(id_, false);  // first: drop all in-flight deliveries
  up_ = false;
  transport_.kill_domain(domain());       // kill every thread of control
  monitor_.reset();
  grpc_.reset();                          // framework destructor cancels timers
  user_.reset();
  endpoint_->clear_all_handlers();
}

void Site::crash() {
  UGRPC_ASSERT(up_ && "only a running site can crash");
  UGRPC_LOG(kDebug, "site %u: crash (incarnation %u)", id_.value(), inc_);
  if (obs::SiteTrace* trace = endpoint_->trace()) {
    trace->record(transport_.now(), obs::Kind::kSiteCrashed, 0, inc_);
  }
  teardown_stack();
}

void Site::recover() {
  UGRPC_ASSERT(!up_ && inc_ > 0 && "recover() follows crash()");
  ++inc_;
  UGRPC_LOG(kDebug, "site %u: recovering as incarnation %u", id_.value(), inc_);
  if (obs::SiteTrace* trace = endpoint_->trace()) {
    trace->record(transport_.now(), obs::Kind::kSiteRecovered, 0, inc_);
  }
  build_stack();
  transport_.spawn(grpc_->signal_recovery(inc_), domain());
}

GrpcComposite& Site::grpc() {
  UGRPC_ASSERT(grpc_ != nullptr);
  return *grpc_;
}

UserProtocol& Site::user() {
  UGRPC_ASSERT(user_ != nullptr);
  return *user_;
}

std::uint64_t Site::total_executions() const {
  return executions_before_crashes_ + (user_ != nullptr ? user_->executions() : 0);
}

}  // namespace ugrpc::core
