// Determinism: two runs with the same seed must produce bit-for-bit
// identical behaviour -- the property that makes every failure in this
// repository reproducible.  We compare full event traces (every handler
// invocation with its virtual timestamp) and, from the obs trace, every
// packet's source, destination and fate across runs.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/micro/acceptance.h"
#include "core/scenario.h"
#include "obs/trace.h"

namespace ugrpc::core {
namespace {

constexpr OpId kOp{1};

std::string run_traced(std::uint64_t seed) {
  std::ostringstream trace;
  ScenarioParams p;
  p.num_servers = 3;
  p.num_clients = 2;
  p.config.acceptance_limit = kAll;
  p.config.reliable_communication = true;
  p.config.unique_execution = true;
  p.config.retrans_timeout = sim::msec(25);
  p.faults.drop_prob = 0.2;
  p.faults.dup_prob = 0.1;
  p.seed = seed;
  obs::Tracer tracer;
  p.tracer = &tracer;
  Scenario s(std::move(p));
  for (int i = 0; i < 3; ++i) {
    s.server(i).grpc().framework().set_trace_observer(
        [&trace, i](sim::Time t, const std::string& event, const std::string& handler) {
          trace << "s" << i << " " << t << " " << event << "/" << handler << "\n";
        });
  }
  s.scheduler().schedule_after(sim::msec(120), [&] { s.server(1).crash(); });
  s.scheduler().schedule_after(sim::msec(240), [&] { s.server(1).recover(); });
  auto burst = [&s](Client& c) -> sim::Task<> {
    for (std::uint64_t i = 0; i < 8; ++i) {
      Buffer b;
      Writer(b).u64(i);
      (void)co_await c.call(s.group(), kOp, std::move(b));
    }
  };
  s.scheduler().spawn(burst(s.client(0)), s.client_site(0).domain());
  s.scheduler().spawn(burst(s.client(1)), s.client_site(1).domain());
  s.run_for(sim::seconds(10));
  EXPECT_EQ(tracer.total_dropped(), 0u);
  // Packet fates, in the sequence the fabric decided them: the sender's
  // sent/dropped/duplicated and the receiver's delivered/dropped records.
  for (const obs::Event& e : tracer.merged()) {
    switch (e.kind) {
      case obs::Kind::kMsgSent:
      case obs::Kind::kMsgDropped:
      case obs::Kind::kMsgDuplicated:
      case obs::Kind::kMsgDelivered:
        trace << "pkt " << e.time << " site " << e.site << " peer " << e.a << " "
              << obs::kind_name(e.kind) << "\n";
        break;
      default: break;
    }
  }
  return trace.str();
}

TEST(Determinism, IdenticalSeedsProduceIdenticalTraces) {
  const std::string a = run_traced(97);
  const std::string b = run_traced(97);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "a seeded run must be exactly reproducible";
}

TEST(Determinism, DifferentSeedsDiverge) {
  const std::string a = run_traced(97);
  const std::string b = run_traced(98);
  EXPECT_NE(a, b) << "different fault schedules must differ";
}

}  // namespace
}  // namespace ugrpc::core
