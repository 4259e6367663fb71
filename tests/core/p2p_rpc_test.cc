// Tests for the compact point-to-point RPC fast path.
#include "core/p2p_rpc.h"

#include <gtest/gtest.h>

#include "net/network.h"

namespace ugrpc::core {
namespace {

constexpr OpId kEcho{1};

Buffer num_buf(std::uint64_t v) {
  Buffer b;
  Writer(b).u64(v);
  return b;
}

struct P2pFixture {
  sim::Scheduler sched{3};
  net::Network net{sched};
  net::Endpoint& client_ep{net.attach(ProcessId{1}, DomainId{1})};
  net::Endpoint& server_ep{net.attach(ProcessId{2}, DomainId{2})};
  UserProtocol client_user;
  UserProtocol server_user;
  std::unique_ptr<P2pRpc> client;
  std::unique_ptr<P2pRpc> server;

  explicit P2pFixture(P2pRpc::Options options = {}) {
    server_user.set_procedure([](OpId, Buffer&) -> sim::Task<> { co_return; });
    client = std::make_unique<P2pRpc>(net, client_ep, ProcessId{1}, client_user, options);
    server = std::make_unique<P2pRpc>(net, server_ep, ProcessId{2}, server_user, options);
  }

  CallResult run_one_call(std::uint64_t arg) {
    CallResult result;
    sched.spawn([](P2pRpc& c, CallResult& out, std::uint64_t v) -> sim::Task<> {
      out = co_await c.call(ProcessId{2}, kEcho, num_buf(v));
    }(*client, result, arg), DomainId{1});
    sched.run_for(sim::seconds(10));
    return result;
  }
};

TEST(P2pRpc, EchoRoundTrip) {
  P2pFixture f;
  const CallResult r = f.run_one_call(42);
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_EQ(Reader(r.result).u64(), 42u);
  EXPECT_EQ(f.server_user.executions(), 1u);
}

TEST(P2pRpc, MalformedPacketIsDroppedAndCounted) {
  P2pFixture f;
  Buffer junk;
  for (int v : {9, 1, 2}) junk.push_back(static_cast<std::byte>(v));
  f.client_ep.send(ProcessId{2}, kP2pProto, junk);
  f.sched.run_for(sim::msec(10));
  EXPECT_EQ(f.server->malformed_dropped(), 1u);
  const CallResult r = f.run_one_call(42);
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_EQ(Reader(r.result).u64(), 42u);
}

TEST(P2pRpc, SurvivesLossWithRetransmission) {
  P2pRpc::Options opt;
  opt.retrans_timeout = sim::msec(20);
  P2pFixture f(opt);
  net::FaultSpec lossy;
  lossy.drop_prob = 0.4;
  f.net.set_default_faults(lossy);
  int ok = 0;
  f.sched.spawn([](P2pFixture& fx, int& ok_count) -> sim::Task<> {
    for (std::uint64_t i = 0; i < 20; ++i) {
      const CallResult r = co_await fx.client->call(ProcessId{2}, kEcho, num_buf(i));
      if (r.ok()) ++ok_count;
    }
  }(f, ok), DomainId{1});
  f.sched.run_for(sim::seconds(60));
  EXPECT_EQ(ok, 20);
  EXPECT_GT(f.client->retransmissions(), 0u);
}

TEST(P2pRpc, UniqueExecutionSuppressesDuplicates) {
  P2pRpc::Options opt;
  opt.retrans_timeout = sim::msec(20);
  P2pFixture f(opt);
  net::FaultSpec dupey;
  dupey.dup_prob = 1.0;
  f.net.set_default_faults(dupey);
  const CallResult r = f.run_one_call(7);
  f.sched.run_for(sim::seconds(1));
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_EQ(f.server_user.executions(), 1u);
}

TEST(P2pRpc, WithoutUniqueDuplicatesReExecute) {
  P2pRpc::Options opt;
  opt.unique_execution = false;
  P2pFixture f(opt);
  net::FaultSpec dupey;
  dupey.dup_prob = 1.0;
  f.net.set_default_faults(dupey);
  (void)f.run_one_call(7);
  f.sched.run_for(sim::seconds(1));
  EXPECT_GT(f.server_user.executions(), 1u);
}

TEST(P2pRpc, BoundedTerminationTimesOut) {
  P2pRpc::Options opt;
  opt.reliable = false;
  opt.termination_bound = sim::msec(100);
  P2pFixture f(opt);
  net::FaultSpec dead;
  dead.drop_prob = 1.0;
  f.net.set_default_faults(dead);
  CallResult r;
  sim::Time completed_at = -1;
  f.sched.spawn([](P2pFixture& fx, CallResult& out, sim::Time& at) -> sim::Task<> {
    out = co_await fx.client->call(ProcessId{2}, kEcho, num_buf(1));
    at = fx.sched.now();
  }(f, r, completed_at), DomainId{1});
  f.sched.run_for(sim::seconds(10));
  EXPECT_EQ(r.status, Status::kTimeout);
  EXPECT_EQ(completed_at, sim::msec(100)) << "the call must return exactly at the bound";
}

TEST(P2pRpc, AckFreesStoredResults) {
  P2pFixture f;
  (void)f.run_one_call(1);
  (void)f.run_one_call(2);
  f.sched.run_for(sim::seconds(1));
  // stored_results_ is private; observable effect: repeated calls stay
  // correct and executions count matches (no stale answers).
  EXPECT_EQ(f.server_user.executions(), 2u);
}

}  // namespace
}  // namespace ugrpc::core
