// Reliable Communication's adaptive retransmission: a copy of a call is
// resent only once it is older than the peer's RTT-derived timeout (RFC 6298
// with Karn's rule), the timeout doubles per retry, and `retrans_timeout` is
// the initial value and the ceiling.
#include <gtest/gtest.h>

#include <cmath>

#include "core/micro/acceptance.h"
#include "core/micro/reliable_communication.h"
#include "core/scenario.h"

namespace ugrpc::core {
namespace {

constexpr OpId kEcho{1};

Buffer num_buf(std::uint64_t v) {
  Buffer b;
  Writer(b).u64(v);
  return b;
}

ReliableCommunication& reliable(Scenario& s) {
  ReliableCommunication* rc = s.client_site(0).grpc().reliable();
  EXPECT_NE(rc, nullptr);
  return *rc;
}

/// Asynchronous calls, so a test can change a link's faults right after
/// the Call is sent.
ConfigBuilder async_reliable(sim::Duration retrans_timeout) {
  return ConfigBuilder().reliable_communication(retrans_timeout).asynchronous();
}

/// Runs `n` calls from client 0, one at a time; returns how many succeeded.
int run_calls(Scenario& s, int n) {
  int ok = 0;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    for (int i = 0; i < n; ++i) {
      CallHandle h = co_await c.call_async(s.group(), kEcho, num_buf(static_cast<unsigned>(i)));
      if ((co_await h.get()).ok()) ++ok;
    }
  });
  return ok;
}

TEST(AdaptiveRetransmission, NoLossMeansNoRetransmissionAndNoReexecution) {
  // read_optimized has no Unique Execution, so every retransmitted Call is
  // executed again.  A young call must never be resent.
  ScenarioParams p;
  p.config = ConfigBuilder::read_optimized().build();
  Scenario s(std::move(p));
  int ok = 0;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    for (int i = 0; i < 1000; ++i) {
      if ((co_await c.call(s.group(), kEcho, num_buf(static_cast<unsigned>(i)))).ok()) ++ok;
    }
  });
  EXPECT_EQ(ok, 1000);
  s.run_for(sim::msec(100));  // let the slower servers' copies land
  EXPECT_EQ(reliable(s).retransmissions(), 0u);
  EXPECT_EQ(s.total_server_executions(), 3u * 1000u);
  EXPECT_TRUE(reliable(s).rtt(Scenario::server_id(0)).has_value());
}

TEST(AdaptiveRetransmission, LostCallRecoversWithinFewRoundTrips) {
  ScenarioParams p;
  p.config = async_reliable(sim::msec(50)).acceptance_limit(kAll).build();
  Scenario s(std::move(p));
  ASSERT_EQ(run_calls(s, 20), 20);  // RTT samples for every server
  const ProcessId victim = Scenario::server_id(1);
  EXPECT_LT(reliable(s).rto(victim), sim::msec(5));
  const std::uint64_t before = reliable(s).retransmissions();

  net::FaultSpec& link = s.network().link(s.client_id(0), victim);
  sim::Duration recovery = 0;
  bool ok = false;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    link.drop_prob = 1.0;  // lose exactly the first copy to `victim`
    CallHandle h = co_await c.call_async(s.group(), kEcho, num_buf(99));
    link.drop_prob = 0.0;
    const sim::Time sent = s.transport().now();
    ok = (co_await h.get()).ok();
    recovery = s.transport().now() - sent;
  });
  EXPECT_TRUE(ok);
  EXPECT_EQ(reliable(s).retransmissions(), before + 1);
  EXPECT_LT(recovery, sim::msec(10)) << "recovery must not wait for the 50 ms ceiling";
}

TEST(AdaptiveRetransmission, ReplyToRetransmittedCallIsNotSampled) {
  ScenarioParams p;
  p.num_servers = 1;
  p.config = async_reliable(sim::msec(50)).build();
  Scenario s(std::move(p));
  ASSERT_EQ(run_calls(s, 10), 10);
  const ProcessId server = Scenario::server_id(0);
  const auto before = reliable(s).rtt(server);
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(before->samples, 10u);

  net::FaultSpec& link = s.network().link(s.client_id(0), server);
  bool ok = false;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    link.drop_prob = 1.0;
    CallHandle h = co_await c.call_async(s.group(), kEcho, num_buf(7));
    link.drop_prob = 0.0;
    ok = (co_await h.get()).ok();
  });
  EXPECT_TRUE(ok);
  EXPECT_EQ(reliable(s).retransmissions(), 1u);
  const auto after = reliable(s).rtt(server);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->samples, before->samples) << "Karn: an ambiguous reply is no sample";
  EXPECT_EQ(after->srtt, before->srtt);
  EXPECT_EQ(after->rttvar, before->rttvar);
}

TEST(AdaptiveRetransmission, DeadServerIsProbedAtTheCeilingRate) {
  // Backoff doubles the timeout from the (millisecond) RTO up to the
  // ceiling, then probes once per ceiling: at most 1 s / ceiling +
  // log2(ceiling / 1 ms) + 1 probes in a second.
  constexpr sim::Duration kCeiling = sim::msec(50);
  ScenarioParams p;
  p.config = async_reliable(kCeiling).acceptance_limit(kAll).build();
  Scenario s(std::move(p));
  ASSERT_EQ(run_calls(s, 20), 20);
  const ProcessId dead = Scenario::server_id(0);
  ASSERT_LT(reliable(s).rto(dead), sim::msec(5));
  s.server(0).crash();

  const std::uint64_t before = reliable(s).retransmissions();
  bool returned = false;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    CallHandle h = co_await c.call_async(s.group(), kEcho, num_buf(1));
    (void)co_await h.get();
    returned = true;
  }, sim::seconds(1));
  EXPECT_FALSE(returned) << "acceptance ALL without membership waits for the dead server";
  const std::uint64_t probes = reliable(s).retransmissions() - before;
  const double bound = 1e6 / static_cast<double>(kCeiling) +
                       std::log2(static_cast<double>(kCeiling) / 1e3) + 1;
  EXPECT_LE(static_cast<double>(probes), bound);
  EXPECT_GE(probes, 1'000'000u / static_cast<std::uint64_t>(kCeiling) - 1)
      << "the dead server is still probed once per ceiling";
}

}  // namespace
}  // namespace ugrpc::core
