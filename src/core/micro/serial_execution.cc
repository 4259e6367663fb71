#include "core/micro/serial_execution.h"

#include "core/priorities.h"

namespace ugrpc::core {

void SerialExecution::start(runtime::Framework& fw) {
  fw.register_handler(kExecuteCall, "SerialExec.execute_call", kPrioExecSerial,
                      [this](runtime::EventContext& ctx) -> sim::Task<> {
                        co_await state_.serial.acquire();
                        state_.serial_holder = state_.sched.current_fiber();
                        state_.note(obs::Kind::kSerialAcquired,
                                    ctx.arg_as<ServerRecord>().id.value());
                      });
  fw.register_handler(kReplyFromServer, "SerialExec.handle_reply", kPrioReplySerial,
                      [this](runtime::EventContext& ctx) {
                        state_.serial_holder.reset();
                        state_.serial.release();
                        state_.note(obs::Kind::kSerialReleased,
                                    ctx.arg_as<ServerRecord>().id.value());
                      });
}

}  // namespace ugrpc::core
