// Both transports put the same net::Fabric above their wire, so the same
// facts leave the same counters and the same trace records on either one:
// a send with no route, a multicast to an undefined group, a packet for a
// process without a handler, a packet for a down process, and one that is
// delivered.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <vector>

#include "net/network.h"
#include "net/sim_transport.h"
#include "net/udp_transport.h"
#include "obs/trace.h"

namespace ugrpc::net {
namespace {

constexpr ProtocolId kProto{7};
constexpr ProcessId kSender{1};
constexpr ProcessId kNoHandler{2};
constexpr ProcessId kDown{3};
constexpr ProcessId kReceiver{4};

/// kMsgDropped records on `site`'s ring.
std::vector<obs::Event> drops_at(obs::Tracer& tracer, ProcessId site) {
  std::vector<obs::Event> out;
  for (const obs::Event& e : tracer.site(site).events()) {
    if (e.kind == obs::Kind::kMsgDropped) out.push_back(e);
  }
  return out;
}

/// Sends one packet of each kind through `t` and checks the counters
/// against the trace.  `drive` runs the backend until `done` holds.
void check_every_fact_once(Transport& t, obs::Tracer& tracer,
                           const std::function<void(const std::function<bool()>&)>& drive) {
  Endpoint& sender = t.attach(kSender, DomainId{1});
  t.attach(kNoHandler, DomainId{2});
  Endpoint& down = t.attach(kDown, DomainId{3});
  Endpoint& receiver = t.attach(kReceiver, DomainId{4});
  int delivered = 0;
  const PacketHandler count = [&delivered](Packet) -> sim::Task<> {
    ++delivered;
    co_return;
  };
  down.set_handler(kProto, count);
  receiver.set_handler(kProto, count);
  t.set_process_up(kDown, false);

  sender.send(ProcessId{99}, kProto, Buffer{});      // no route
  sender.multicast(GroupId{9}, kProto, Buffer{});    // undefined group
  sender.send(kNoHandler, kProto, Buffer{});         // dies on arrival
  sender.send(kDown, kProto, Buffer{});              // dies on arrival
  sender.send(kReceiver, kProto, Buffer{});          // delivered
  drive([&] { return delivered == 1 && t.stats().dropped == 2; });

  const Stats& stats = t.stats();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(stats.sent, 3u);
  EXPECT_EQ(stats.unroutable, 2u);
  EXPECT_EQ(stats.unroutable, tracer.count(obs::Kind::kMsgUnroutable));
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_EQ(stats.delivered, tracer.count(obs::Kind::kMsgDelivered));
  EXPECT_EQ(stats.dropped, 2u);
  for (ProcessId site : {kNoHandler, kDown}) {
    const std::vector<obs::Event> drops = drops_at(tracer, site);
    ASSERT_EQ(drops.size(), 1u) << "receiver " << site.value();
    EXPECT_EQ(drops[0].a, kSender.value()) << "receiver " << site.value();
    EXPECT_EQ(drops[0].b, kProto.value());
  }
  EXPECT_TRUE(drops_at(tracer, kSender).empty()) << "no loss on the sender's side";
}

TEST(PacketPath, SimulatorRecordsEveryFactOnce) {
  obs::Tracer tracer;
  sim::Scheduler sched{42};
  Network net{sched};
  net.set_tracer(&tracer);
  SimTransport t(net);
  check_every_fact_once(t, tracer, [&](const std::function<bool()>&) { sched.run(); });
}

TEST(PacketPath, UdpRecordsEveryFactOnce) {
  obs::Tracer tracer;
  UdpTransport t;
  t.set_tracer(&tracer);
  check_every_fact_once(t, tracer, [&](const std::function<bool()>& done) {
    // Loopback does not lose datagrams; the bound keeps a failure from
    // hanging the test.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (!done() && std::chrono::steady_clock::now() < deadline) t.poll_once(sim::usec(500));
  });
}

}  // namespace
}  // namespace ugrpc::net
