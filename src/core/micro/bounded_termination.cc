#include "core/micro/bounded_termination.h"

#include "core/priorities.h"

namespace ugrpc::core {

void BoundedTermination::start(runtime::Framework& fw) {
  fw_ = &fw;
  fw.register_handler(kNewRpcCall, "BoundedTerm.handle_new_call", kPrioNewBounded,
                      [this](runtime::EventContext& ctx) {
                        deadlines_.emplace_back(state_.transport.now() + timebound_,
                                                ctx.arg_as<ClientRecord>().id);
                        arm_timer();
                      });
}

void BoundedTermination::arm_timer() {
  // One timer for the whole queue, armed for the front deadline.  New calls
  // always append strictly-later deadlines, so the armed timer never needs
  // to be shortened.
  if (armed_ || deadlines_.empty()) return;
  armed_ = true;
  const sim::Duration delay = deadlines_.front().first - state_.transport.now();
  fw_->register_timeout("BoundedTerm.handle_timeout", delay > 0 ? delay : 0,
                        [this]() -> sim::Task<> {
                          armed_ = false;
                          drain_expired();
                          arm_timer();
                          co_return;
                        });
}

void BoundedTermination::drain_expired() {
  const sim::Time now = state_.transport.now();
  while (!deadlines_.empty() && deadlines_.front().first <= now) {
    const CallId id = deadlines_.front().second;
    deadlines_.pop_front();
    ClientRecord* rec = state_.find_client(id);
    if (rec != nullptr && rec->status == Status::kWaiting) {
      // Recorded right before the call's kCallCompleted, which telemetry's
      // calls.completed relies on.
      state_.note(obs::Kind::kDeadlineExpired, id.value());
      state_.complete(*rec, Status::kTimeout);
    }
  }
}

}  // namespace ugrpc::core
