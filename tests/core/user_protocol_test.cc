// Unit tests for the UserProtocol upcall target.
#include "core/user_protocol.h"

#include <gtest/gtest.h>

#include "sim/scheduler.h"

namespace ugrpc::core {
namespace {

sim::Task<> drive_pop(UserProtocol& user, OpId op, Buffer& args) { co_await user.pop(op, args); }

TEST(UserProtocol, PopWithoutProcedureIsANoOpButCounts) {
  sim::Scheduler sched;
  UserProtocol user;
  Buffer args;
  Writer(args).u32(1);
  const Buffer before = args;
  sched.spawn(drive_pop(user, OpId{1}, args));
  sched.run();
  EXPECT_EQ(args, before);
  EXPECT_EQ(user.executions(), 1u);
}

TEST(UserProtocol, ProcedureMutatesArgsInPlace) {
  sim::Scheduler sched;
  UserProtocol user;
  user.set_procedure([](OpId op, Buffer& args) -> sim::Task<> {
    Buffer out;
    Writer(out).u32(op.value() * 2);
    args = out;
    co_return;
  });
  Buffer args;
  sched.spawn(drive_pop(user, OpId{21}, args));
  sched.run();
  EXPECT_EQ(Reader(args).u32(), 42u);
  EXPECT_EQ(user.executions(), 1u);
}

TEST(UserProtocol, ExecutionsCountEveryInvocation) {
  sim::Scheduler sched;
  UserProtocol user;
  Buffer args;
  for (int i = 0; i < 5; ++i) {
    sched.spawn(drive_pop(user, OpId{1}, args));
  }
  sched.run();
  EXPECT_EQ(user.executions(), 5u);
}

TEST(UserProtocol, StateHooksDefaultToEmpty) {
  UserProtocol user;
  EXPECT_TRUE(user.snapshot_state().empty());
  user.restore_state(Buffer{});  // no hook: must be a safe no-op
}

TEST(UserProtocol, StateHooksRoundTrip) {
  UserProtocol user;
  std::uint64_t state = 7;
  user.set_state_hooks(
      [&state] {
        Buffer b;
        Writer(b).u64(state);
        return b;
      },
      [&state](const Buffer& b) { state = Reader(b).u64(); });
  const Buffer snap = user.snapshot_state();
  state = 99;
  user.restore_state(snap);
  EXPECT_EQ(state, 7u);
}

}  // namespace
}  // namespace ugrpc::core
