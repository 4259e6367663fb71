#include "core/micro/bounded_termination.h"

#include "core/priorities.h"

namespace ugrpc::core {

void BoundedTermination::start(runtime::Framework& fw) {
  fw_ = &fw;
  fw.register_handler(kNewRpcCall, "BoundedTerm.handle_new_call", kPrioNewBounded,
                      [this](runtime::EventContext& ctx) {
                        // An armed timer waits for an older call's deadline,
                        // which comes no later than this one's.
                        if (!armed_) arm_timer(ctx.arg_as<ClientRecord>());
                      });
}

void BoundedTermination::arm_timer(const ClientRecord& rec) {
  armed_ = true;
  const sim::Duration delay = rec.issued_at + timebound_ - state_.transport.now();
  fw_->register_timeout("BoundedTerm.handle_timeout", delay > 0 ? delay : 0,
                        [this]() -> sim::Task<> {
                          armed_ = false;
                          expire_and_rearm();
                          co_return;
                        });
}

void BoundedTermination::expire_and_rearm() {
  const sim::Time now = state_.transport.now();
  for (auto& [id, rec] : state_.pRPC) {
    if (rec.status != Status::kWaiting) continue;
    if (rec.issued_at + timebound_ > now) {
      arm_timer(rec);
      return;
    }
    // Recorded right before the call's kCallCompleted, which telemetry's
    // calls.completed relies on.
    state_.note(obs::Kind::kDeadlineExpired, id.value());
    state_.complete(rec, Status::kTimeout);
  }
}

}  // namespace ugrpc::core
