// Both backends derive from the one net::Transport, which owns everything
// above the wire, so the same facts leave the same counters and the same
// trace records on either one: a send with no route, a multicast to an
// undefined group, a packet for a process without a handler, a packet for a
// down process, and one that is delivered.  A framework timeout leaves the
// same spans on either one too.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <vector>

#include "net/network.h"
#include "net/udp_transport.h"
#include "obs/trace.h"
#include "runtime/framework.h"

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
  check_every_fact_once(net, tracer, [&](const std::function<bool()>&) { sched.run(); });
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

/// Arms a framework timeout from a fiber working under an open span; the
/// timeout's handler sends one packet.  The fire must record one timer span
/// beneath the arming span, with the send beneath it, and nothing else.
void check_one_timer_path(Transport& t, obs::Tracer& tracer,
                          const std::function<void(const std::function<bool()>&)>& drive) {
  Endpoint& sender = t.attach(kSender, DomainId{1});
  Endpoint& receiver = t.attach(kReceiver, DomainId{4});
  int delivered = 0;
  receiver.set_handler(kProto, [&delivered](Packet) -> sim::Task<> {
    ++delivered;
    co_return;
  });
  obs::SiteTrace& st = tracer.site(kSender);
  runtime::Framework fw(t, DomainId{1}, &st);
  static constexpr auto arm = [](Transport* tp, obs::SiteTrace* st, runtime::Framework* fw,
                                 Endpoint* ep, obs::SpanCtx* arming) -> sim::Task<> {
    *arming = st->open(tp->now(), obs::Kind::kCallIssued, obs::SpanCtx{42, 0}, 42);
    tp->executor().set_ambient(*arming);
    fw->register_timeout("test.timeout", sim::msec(2), [tp, ep]() -> sim::Task<> {
      ep->send(kReceiver, kProto, Buffer{});
      co_return;
    });
    st->close(tp->now(), arming->parent);
    co_return;
  };
  obs::SpanCtx arming;
  t.spawn(arm(&t, &st, &fw, &sender, &arming), DomainId{1});
  drive([&] { return delivered == 1; });

  ASSERT_EQ(delivered, 1);
  EXPECT_EQ(tracer.count(obs::Kind::kTimerArmed), 1u);
  const std::vector<obs::Span> spans = tracer.spans();
  std::vector<const obs::Span*> timers;
  std::vector<const obs::Span*> sends;
  for (const obs::Span& span : spans) {
    if (span.parent == arming.parent) timers.push_back(&span);
    if (span.kind == obs::Kind::kMsgSent) sends.push_back(&span);
  }
  ASSERT_EQ(timers.size(), 1u) << "one span beneath the arming span: the timer's";
  EXPECT_EQ(timers[0]->kind, obs::Kind::kTimerFired);
  EXPECT_EQ(timers[0]->trace, 42u);
  ASSERT_EQ(sends.size(), 1u);
  EXPECT_EQ(sends[0]->parent, timers[0]->id) << "the timer fiber's send";
  for (const obs::Span& span : spans) {
    if (span.site != kSender) continue;
    EXPECT_TRUE(span.id == arming.parent || &span == timers[0] || &span == sends[0])
        << "the fire opened a " << obs::span_kind_name(span.kind) << " span";
  }
}

TEST(PacketPath, SimulatorTimerFireRecordsOneTimerSpan) {
  obs::Tracer tracer;
  sim::Scheduler sched{42};
  Network net{sched};
  net.set_tracer(&tracer);
  check_one_timer_path(net, tracer, [&](const std::function<bool()>&) { sched.run(); });
}

TEST(PacketPath, UdpTimerFireRecordsOneTimerSpan) {
  obs::Tracer tracer;
  UdpTransport t;
  t.set_tracer(&tracer);
  check_one_timer_path(t, tracer, [&](const std::function<bool()>& done) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (!done() && std::chrono::steady_clock::now() < deadline) t.poll_once(sim::usec(500));
  });
}

}  // namespace
}  // namespace ugrpc::net
