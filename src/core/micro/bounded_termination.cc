#include "core/micro/bounded_termination.h"

#include "core/priorities.h"

namespace ugrpc::core {

void BoundedTermination::start(runtime::Framework& fw) {
  fw_ = &fw;
  fw.register_handler(kNewRpcCall, "BoundedTerm.handle_new_call", kPrioNewBounded,
                      [this](runtime::EventContext& ctx) -> sim::Task<> {
                        const CallId id = ctx.arg_as<CallEvent>().id;
                        deadlines_.emplace_back(state_.sched.now() + timebound_, id);
                        arm_timer();
                        co_return;
                      });
}

void BoundedTermination::arm_timer() {
  // One timer for the whole queue, armed for the front deadline.  New calls
  // always append strictly-later deadlines, so the armed timer never needs
  // to be shortened.
  if (armed_ || deadlines_.empty()) return;
  armed_ = true;
  const sim::Duration delay = deadlines_.front().first - state_.sched.now();
  fw_->register_timeout("BoundedTerm.handle_timeout", delay > 0 ? delay : 0,
                        [this]() -> sim::Task<> {
                          armed_ = false;
                          drain_expired();
                          arm_timer();
                          co_return;
                        });
}

void BoundedTermination::drain_expired() {
  const sim::Time now = state_.sched.now();
  while (!deadlines_.empty() && deadlines_.front().first <= now) {
    const CallId id = deadlines_.front().second;
    deadlines_.pop_front();
    auto rec = state_.find_client(id);
    if (rec != nullptr && rec->status == Status::kWaiting) {
      rec->status = Status::kTimeout;
      ++timeouts_fired_;
      state_.note(obs::Kind::kDeadlineExpired, id.value());
      // The root span closes on timeout, too.
      state_.note(obs::Kind::kCallCompleted, id.value(),
                  static_cast<std::uint64_t>(Status::kTimeout), 0, rec->span);
      rec->sem.release();
    }
  }
}

}  // namespace ugrpc::core
