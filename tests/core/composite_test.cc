// Tests of GrpcComposite assembly: which micro-protocols each configuration
// instantiates, typed accessors, shared-state wiring, and the
// invalid-configuration guard.
#include "core/composite.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/micro/acceptance.h"
#include "core/scenario.h"

namespace ugrpc::core {
namespace {

bool has_mp(GrpcComposite& comp, const std::string& name) {
  const auto names = comp.micro_protocol_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

TEST(Composite, MinimalConfigHasBaselineMicroProtocols) {
  ScenarioParams p;
  Scenario s(std::move(p));
  GrpcComposite& comp = s.server(0).grpc();
  EXPECT_TRUE(has_mp(comp, "RPC Main"));
  EXPECT_TRUE(has_mp(comp, "Synchronous Call"));
  EXPECT_TRUE(has_mp(comp, "Collation"));
  EXPECT_TRUE(has_mp(comp, "Acceptance"));
  EXPECT_FALSE(has_mp(comp, "Reliable Communication"));
  EXPECT_FALSE(has_mp(comp, "Unique Execution"));
  EXPECT_EQ(comp.reliable(), nullptr);
  EXPECT_EQ(comp.unique(), nullptr);
  EXPECT_EQ(comp.fifo(), nullptr);
  EXPECT_EQ(comp.total(), nullptr);
  EXPECT_EQ(comp.atomic(), nullptr);
  EXPECT_EQ(comp.bounded(), nullptr);
  EXPECT_EQ(comp.interference(), nullptr);
  EXPECT_EQ(comp.terminator(), nullptr);
}

TEST(Composite, EveryConfigurationOrdersEachEventByPriorityAlone) {
  // The handler table freezes in (priority, registration) order.  Strictly
  // increasing priorities per event mean the order of every chain is the
  // one priorities.h encodes, never an accident of assembly order.
  const auto configs = enumerate_valid_configs();
  ASSERT_EQ(configs.size(), 198u);
  for (const Config& c : configs) {
    ScenarioParams p;
    p.num_servers = 1;
    p.config = c;
    Scenario s(std::move(p));
    const auto regs = s.server(0).grpc().framework().registrations();
    for (std::size_t i = 1; i < regs.size(); ++i) {
      if (regs[i].event != regs[i - 1].event) continue;
      EXPECT_LT(regs[i - 1].priority, regs[i].priority)
          << c.describe() << ": " << regs[i].event << " runs " << regs[i - 1].handler
          << " and " << regs[i].handler << " at the same priority";
    }
  }
}

// Each message kind raises an event of its own, and a configuration runs
// only the handlers bound to it: an Order, OrderQuery or OrderInfo at a
// stack without Total Order, an ACK without Unique Execution or a Reply at a
// server runs an empty chain.  Every kind, with a call id nobody issued, goes
// to a server site and a client site of every configuration: neither
// aborts, nothing but the Call runs a procedure, and only at the server (the
// client site is not a member of the group the Call names, so it drops the
// Call), and an ordinary call completes afterwards.
TEST(Composite, EveryConfigurationTakesEveryMessageKind) {
  const auto configs = enumerate_valid_configs();
  ASSERT_EQ(configs.size(), 198u);
  for (const Config& c : configs) {
    ScenarioParams p;
    p.num_servers = 1;
    p.num_clients = 2;  // client 1 sends the messages; client 0 calls after
    p.config = c;
    Scenario s(std::move(p));
    const ProcessId stranger = s.client_id(1);
    const CallId unknown = make_call_id(stranger, first_seq_of_incarnation(1) + 1000);
    const auto deliver = [&](net::MsgType type) {
      net::NetMessage msg;
      msg.type = type;
      msg.id = unknown;
      msg.server = s.group();
      msg.sender = stranger;
      msg.inc = 1;
      if (type == net::MsgType::kAck) msg.ackid = unknown.value();  // W names its sender
      if (type == net::MsgType::kOrder) {  // the first order, no predecessor
        msg.ackid = 1;
        msg.args = Buffer(std::vector<std::byte>(16, std::byte{0}));
      }
      if (type == net::MsgType::kOrderInfo) Writer(msg.args).u32(0);  // no assignments
      for (ProcessId to : {Scenario::server_id(0), s.client_id(0)}) {
        s.client_site(1).grpc().state().endpoint.send(to, kGrpcProto, msg.encode());
      }
    };
    for (net::MsgType type : {net::MsgType::kReply, net::MsgType::kAck, net::MsgType::kOrder,
                              net::MsgType::kOrderQuery, net::MsgType::kOrderInfo}) {
      deliver(type);
    }
    s.run_for(sim::msec(100));
    EXPECT_EQ(s.server(0).total_executions(), 0u) << c.describe();
    EXPECT_EQ(s.client_site(0).total_executions(), 0u) << c.describe();
    deliver(net::MsgType::kCall);
    s.run_for(sim::msec(100));
    EXPECT_LE(s.server(0).total_executions(), 1u) << c.describe();
    EXPECT_EQ(s.client_site(0).total_executions(), 0u) << c.describe();

    CallResult result;
    s.run_client(0, [&](Client& client) -> sim::Task<> {
      if (c.call == CallSemantics::kSynchronous) {
        result = co_await client.call(s.group(), OpId{1}, Buffer{});
      } else {
        CallHandle h = co_await client.call_async(s.group(), OpId{1}, Buffer{});
        result = co_await h.get();
      }
    }, sim::seconds(10));
    EXPECT_EQ(result.status, Status::kOk) << c.describe();
  }
}

TEST(Composite, FullyLoadedConfigInstantiatesEverything) {
  ScenarioParams p;
  p.config.call = CallSemantics::kAsynchronous;
  p.config.orphan = OrphanHandling::kTerminateOrphans;
  p.config.execution = ExecutionMode::kSerialAtomic;
  p.config.unique_execution = true;
  p.config.reliable_communication = true;
  p.config.ordering = Ordering::kTotal;
  Scenario s(std::move(p));
  GrpcComposite& comp = s.server(0).grpc();
  EXPECT_TRUE(has_mp(comp, "Asynchronous Call"));
  EXPECT_TRUE(has_mp(comp, "Reliable Communication"));
  EXPECT_TRUE(has_mp(comp, "Unique Execution"));
  EXPECT_TRUE(has_mp(comp, "Terminate Orphan"));
  EXPECT_TRUE(has_mp(comp, "Serial Execution"));
  EXPECT_TRUE(has_mp(comp, "Atomic Execution"));
  EXPECT_TRUE(has_mp(comp, "Total Order"));
  EXPECT_NE(comp.reliable(), nullptr);
  EXPECT_NE(comp.unique(), nullptr);
  EXPECT_NE(comp.total(), nullptr);
  EXPECT_NE(comp.atomic(), nullptr);
  EXPECT_NE(comp.terminator(), nullptr);
}

TEST(Composite, HoldArrayReflectsOrderingChoice) {
  {
    ScenarioParams p;
    Scenario s(std::move(p));
    const HoldArray& hold = s.server(0).grpc().state().HOLD;
    EXPECT_TRUE(hold[kHoldMain]);
    EXPECT_FALSE(hold[kHoldFifo]);
    EXPECT_FALSE(hold[kHoldTotal]);
  }
  {
    ScenarioParams p;
    p.config.reliable_communication = true;
    p.config.ordering = Ordering::kFifo;
    Scenario s(std::move(p));
    EXPECT_TRUE(s.server(0).grpc().state().HOLD[kHoldFifo]);
  }
}

TEST(Composite, InvalidConfigurationIsRejected) {
  Config bad;
  bad.ordering = Ordering::kTotal;  // missing reliable + unique
  ScenarioParams p;
  p.config = bad;
  EXPECT_DEATH({ Scenario s(std::move(p)); }, "dependency graph");
}

TEST(Composite, UnsafeSkipValidationBuildsInvalidConfigs) {
  // Experiment-only escape hatch used by the Figure 2 harness to
  // demonstrate broken dependency edges empirically.
  Config bad;
  bad.ordering = Ordering::kFifo;  // missing Reliable Communication
  ASSERT_FALSE(is_valid(bad));
  bad.unsafe_skip_validation = true;
  ScenarioParams p;
  p.config = bad;
  Scenario s(std::move(p));  // must not abort
  EXPECT_TRUE(s.server(0).up());
}

TEST(Composite, NotifyMembershipUpdatesSharedMemberSet) {
  ScenarioParams p;
  p.num_servers = 2;
  Scenario s(std::move(p));
  GrpcComposite& comp = s.client_site(0).grpc();
  const ProcessId victim = Scenario::server_id(1);
  EXPECT_TRUE(comp.state().members.contains(victim));
  s.scheduler().spawn(comp.notify_membership(victim, membership::Change::kFailure));
  s.scheduler().run();
  EXPECT_FALSE(comp.state().members.contains(victim));
  s.scheduler().spawn(comp.notify_membership(victim, membership::Change::kRecovery));
  s.scheduler().run();
  EXPECT_TRUE(comp.state().members.contains(victim));
}

TEST(Composite, CheckpointParticipantsFollowConfiguration) {
  {
    ScenarioParams p;
    Scenario s(std::move(p));
    EXPECT_TRUE(s.server(0).grpc().state().checkpoint_participants.empty());
  }
  {
    ScenarioParams p;
    p.config.reliable_communication = true;
    p.config.unique_execution = true;
    p.config.ordering = Ordering::kTotal;
    Scenario s(std::move(p));
    // Unique Execution + Total Order both participate.
    EXPECT_EQ(s.server(0).grpc().state().checkpoint_participants.size(), 2u);
  }
}

TEST(Composite, ConfigAccessorReturnsConfiguredValues) {
  ScenarioParams p;
  p.config.acceptance_limit = 2;
  p.config.reliable_communication = true;
  p.config.retrans_timeout = sim::msec(123);
  Scenario s(std::move(p));
  const Config& c = s.server(0).grpc().config();
  EXPECT_EQ(c.acceptance_limit, 2);
  EXPECT_EQ(c.retrans_timeout, sim::msec(123));
}

}  // namespace
}  // namespace ugrpc::core
