// UdpTransport unit tests: real loopback sockets, driven synchronously from
// the test via poll_once.  Two transports in one process model two hosts;
// each test bounds its polling with a real-time deadline so a lost datagram
// fails the test instead of hanging it (loopback does not lose datagrams in
// practice, but the bound keeps CI safe).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "core/config_builder.h"
#include "core/micro/acceptance.h"
#include "core/micro/total_order.h"
#include "core/observe.h"
#include "core/service.h"
#include "core/site.h"
#include "net/udp_transport.h"
#include "net/wire.h"
#include "obs/checker.h"
#include "obs/trace.h"

namespace ugrpc::net {
namespace {

constexpr ProtocolId kProto{7};
constexpr ProcessId kA{1};
constexpr ProcessId kB{2};
constexpr ProcessId kC{3};

Buffer make_payload(std::uint32_t tag) {
  Buffer b;
  Writer(b).u32(tag);
  return b;
}

PacketHandler record_into(std::vector<Packet>& sink) {
  return [&sink](Packet p) -> sim::Task<> {
    sink.push_back(std::move(p));
    co_return;
  };
}

/// Polls both transports until `done` or ~2s of real time passes.
template <typename Pred>
bool drive_until(UdpTransport& t1, UdpTransport& t2, Pred done) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    t1.poll_once(sim::usec(500));
    t2.poll_once(0);
  }
  return true;
}

/// Two transports ("hosts") with one attachment each, cross-introduced.
struct Pair {
  UdpTransport ta;
  UdpTransport tb;
  Endpoint& a;
  Endpoint& b;

  Pair() : a(ta.attach(kA, DomainId{1})), b(tb.attach(kB, DomainId{2})) {
    ta.add_peer(kB, "127.0.0.1", tb.local_port(kB));
    tb.add_peer(kA, "127.0.0.1", ta.local_port(kA));
  }
};

TEST(UdpTransport, DeliversAcrossRealSockets) {
  Pair p;
  std::vector<Packet> received;
  p.b.set_handler(kProto, record_into(received));
  p.a.send(kB, kProto, make_payload(99));
  ASSERT_TRUE(drive_until(p.ta, p.tb, [&] { return !received.empty(); }));
  EXPECT_EQ(received[0].src, kA);
  EXPECT_EQ(received[0].dst, kB);
  EXPECT_EQ(received[0].proto, kProto);
  EXPECT_EQ(Reader(received[0].payload).u32(), 99u);
  EXPECT_EQ(p.ta.stats().sent, 1u);
  EXPECT_GE(p.ta.stats().bytes_sent, 4u);
  EXPECT_EQ(p.tb.stats().delivered, 1u);
  EXPECT_EQ(p.tb.stats().bytes_delivered, 4u);
}

TEST(UdpTransport, TwoLocalAttachmentsTalkOverLoopback) {
  // Both processes live on one transport; datagrams still cross the kernel.
  UdpTransport t;
  Endpoint& a = t.attach(kA, DomainId{1});
  Endpoint& b = t.attach(kB, DomainId{2});
  std::vector<Packet> received;
  b.set_handler(kProto, record_into(received));
  a.send(kB, kProto, make_payload(7));
  ASSERT_TRUE(drive_until(t, t, [&] { return !received.empty(); }));
  EXPECT_EQ(Reader(received[0].payload).u32(), 7u);
}

TEST(UdpTransport, MulticastFansOutToEveryGroupMember) {
  UdpTransport sender_t;
  UdpTransport receiver_t;
  Endpoint& a = sender_t.attach(kA, DomainId{1});
  Endpoint& b = receiver_t.attach(kB, DomainId{2});
  Endpoint& c = receiver_t.attach(kC, DomainId{3});
  sender_t.add_peer(kB, "127.0.0.1", receiver_t.local_port(kB));
  sender_t.add_peer(kC, "127.0.0.1", receiver_t.local_port(kC));
  sender_t.define_group(GroupId{1}, {kB, kC});
  std::vector<Packet> at_b;
  std::vector<Packet> at_c;
  b.set_handler(kProto, record_into(at_b));
  c.set_handler(kProto, record_into(at_c));
  a.multicast(GroupId{1}, kProto, make_payload(5));
  ASSERT_TRUE(
      drive_until(sender_t, receiver_t, [&] { return !at_b.empty() && !at_c.empty(); }));
  EXPECT_EQ(sender_t.stats().sent, 2u) << "sender-side fan-out: one datagram per member";
  EXPECT_EQ(Reader(at_b[0].payload).u32(), 5u);
  EXPECT_EQ(Reader(at_c[0].payload).u32(), 5u);
}

TEST(UdpTransport, SendToUnknownPeerCountsUnroutable) {
  UdpTransport t;
  Endpoint& a = t.attach(kA, DomainId{1});
  a.send(ProcessId{77}, kProto, make_payload(1));
  EXPECT_EQ(t.stats().unroutable, 1u);
  EXPECT_EQ(t.stats().sent, 0u);
}

TEST(UdpTransport, MulticastToUndefinedGroupCountsUnroutable) {
  UdpTransport t;
  Endpoint& a = t.attach(kA, DomainId{1});
  a.multicast(GroupId{9}, kProto, make_payload(1));
  EXPECT_EQ(t.stats().unroutable, 1u);
}

TEST(UdpTransport, DownLocalProcessNeitherSendsNorReceives) {
  Pair p;
  std::vector<Packet> received;
  p.b.set_handler(kProto, record_into(received));

  // Down sender: datagram is dropped before the socket.
  p.ta.set_process_up(kA, false);
  p.a.send(kB, kProto, make_payload(1));
  EXPECT_EQ(p.ta.stats().dropped, 1u);

  // Down receiver: the datagram crosses the wire but dies on arrival.
  p.ta.set_process_up(kA, true);
  p.tb.set_process_up(kB, false);
  p.a.send(kB, kProto, make_payload(2));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  while (std::chrono::steady_clock::now() < deadline && p.tb.stats().dropped == 0) {
    p.ta.poll_once(0);
    p.tb.poll_once(sim::usec(500));
  }
  EXPECT_TRUE(received.empty());
  EXPECT_EQ(p.tb.stats().delivered, 0u);

  // Back up: traffic flows again.
  p.tb.set_process_up(kB, true);
  p.a.send(kB, kProto, make_payload(3));
  ASSERT_TRUE(drive_until(p.ta, p.tb, [&] { return !received.empty(); }));
  EXPECT_EQ(Reader(received[0].payload).u32(), 3u);
}

TEST(UdpTransport, TimersFireOnTheExecutor) {
  UdpTransport t;
  int fired = 0;
  t.schedule_after(sim::msec(5), [&] { ++fired; });
  const TimerId cancelled = t.schedule_after(sim::msec(5), [&] { ++fired; });
  t.cancel_timer(cancelled);
  t.run_for(sim::msec(50));
  EXPECT_EQ(fired, 1);
}

// A site crash over UDP: kill_domain cancels the crashed domain's
// timers and kills its fibers; global-domain timers and another domain's
// timers and fibers live on.
TEST(UdpTransport, KillDomainCancelsOnlyThatDomainsTimersAndFibers) {
  constexpr DomainId kCrashed{1};
  constexpr DomainId kOther{2};
  UdpTransport t;
  int crashed_fired = 0;
  int other_fired = 0;
  int global_fired = 0;
  t.schedule_after(sim::msec(40), [&] { ++crashed_fired; }, kCrashed);
  t.schedule_after(sim::msec(40), [&] { ++other_fired; }, kOther);
  t.schedule_after(sim::msec(40), [&] { ++global_fired; });
  const auto park = [](sim::Scheduler& exec, bool& woke) -> sim::Task<> {
    co_await exec.sleep_for(sim::msec(40));
    woke = true;
  };
  bool crashed_woke = false;
  bool other_woke = false;
  const FiberId crashed_fiber = t.spawn(park(t.executor(), crashed_woke), kCrashed);
  const FiberId other_fiber = t.spawn(park(t.executor(), other_woke), kOther);
  t.poll_once(0);  // both fibers start and park on the executor's clock
  ASSERT_TRUE(t.executor().fiber_alive(crashed_fiber));
  ASSERT_TRUE(t.executor().fiber_alive(other_fiber));

  t.kill_domain(kCrashed);
  EXPECT_FALSE(t.executor().fiber_alive(crashed_fiber));
  EXPECT_TRUE(t.executor().fiber_alive(other_fiber));
  t.run_for(sim::msec(150));
  EXPECT_EQ(crashed_fired, 0);
  EXPECT_EQ(other_fired, 1);
  EXPECT_EQ(global_fired, 1);
  EXPECT_FALSE(crashed_woke);
  EXPECT_TRUE(other_woke);
}

TEST(UdpTransport, RunUntilFiberDoneHonoursTimeout) {
  UdpTransport t;
  t.attach(kA, DomainId{1});
  bool ran = false;
  const FiberId fiber = t.spawn([](bool& flag) -> sim::Task<> {
    flag = true;
    co_return;
  }(ran), DomainId{1});
  EXPECT_TRUE(t.run_until_fiber_done(fiber, sim::seconds(2)));
  EXPECT_TRUE(ran);
}

struct BoundedRun {
  Status status = Status::kWaiting;
  std::chrono::steady_clock::duration elapsed{};
};

/// One call, under `config`'s Bounded Termination, to a server whose
/// procedure never returns, driven by poll_once(poll) until the call ends or
/// 2 s pass.  Both sites record into `tracer`.
BoundedRun run_bounded_call(const core::Config& config, sim::Duration poll,
                            obs::Tracer& tracer) {
  constexpr ProcessId kServer{1};
  constexpr ProcessId kClient{2};
  constexpr GroupId kGroup{1};
  UdpTransport t;
  t.set_tracer(&tracer);
  const std::set<ProcessId> known{kServer, kClient};
  core::Site server(t, kServer, config, known);
  core::Site client(t, kClient, config, known);
  t.define_group(kGroup, {kServer});
  server.set_app([](core::UserProtocol& user, core::Site& site) {
    user.set_procedure([&site](OpId, Buffer&) -> sim::Task<> {
      co_await site.scheduler().sleep_for(sim::seconds(1000));  // never returns
    });
  });
  server.boot();
  client.boot();

  core::Client c(client);
  BoundedRun run;
  const FiberId fiber = t.spawn(
      [](core::Client& c, Status& status) -> sim::Task<> {
        status = (co_await c.call(kGroup, OpId{1}, Buffer{})).status;
      }(c, run.status),
      client.domain());
  const auto start = std::chrono::steady_clock::now();
  const auto give_up = start + std::chrono::seconds(2);
  while (t.executor().fiber_alive(fiber) && std::chrono::steady_clock::now() < give_up) {
    t.poll_once(poll);
  }
  run.elapsed = std::chrono::steady_clock::now() - start;
  return run;
}

// Bounded Termination over UDP: the deadline is taken from the transport's
// clock, the one its timer is armed on.  A fiber runs before the executor's
// clock catches up with real time, so a deadline read from the executor
// would come early by that lag.
TEST(UdpTransport, BoundedTerminationTimesOutOnTheTransportClock) {
  obs::Tracer tracer;
  const BoundedRun run = run_bounded_call(
      core::ConfigBuilder().termination_bound(sim::msec(100)).unreliable().build(),
      sim::msec(200), tracer);
  EXPECT_EQ(run.status, Status::kTimeout);
  EXPECT_LT(run.elapsed, std::chrono::milliseconds(150));
  EXPECT_EQ(tracer.count(obs::Kind::kTimerFired), 1u)
      << "the deadline timer fires once";
}

// How late the framework timeout in `trace` fired after its deadline
// (kTimerArmed's time plus its delay), in transport-clock microseconds.
sim::Duration timer_fire_lateness(const std::vector<obs::Event>& trace) {
  const auto armed = std::find_if(trace.begin(), trace.end(), [](const obs::Event& e) {
    return e.kind == obs::Kind::kTimerArmed;
  });
  const auto fired = std::find_if(trace.begin(), trace.end(), [](const obs::Event& e) {
    return e.kind == obs::Kind::kTimerFired;
  });
  if (armed == trace.end() || fired == trace.end()) return 0;
  return fired->time - (armed->time + static_cast<sim::Duration>(armed->b));
}

// The checker's verdict on the same scenario, driven by 10 ms polls as
// run_for drives it: the poll wakes at the deadline to the microsecond, so a
// run ends within the bound plus obs::kTerminationSlack (1 ms) whenever
// the host wakes the loop on time.  A shared host sometimes wakes a timed
// wait milliseconds late whatever the wait asked for; a run whose deadline
// timer fired more than half the slack late is such a run, says nothing
// about the transport, and is replaced (PollWakesForATimerToTheMicrosecond
// pins the wait itself).
TEST(UdpTransport, BoundedTerminationPassesTheCheckerOnEveryRun) {
  constexpr sim::Duration kBound = sim::msec(20);
  const core::Config config =
      core::ConfigBuilder().termination_bound(kBound).unreliable().build();
  const obs::Expect expect = core::expectations_from(config);
  ASSERT_EQ(expect.termination_bound, kBound);
  int checked = 0;
  int host_late = 0;
  while (checked < 20) {
    obs::Tracer tracer;
    ASSERT_EQ(run_bounded_call(config, sim::msec(10), tracer).status, Status::kTimeout);
    const std::vector<obs::Event> trace = tracer.merged();
    if (timer_fire_lateness(trace) > obs::kTerminationSlack / 2) {
      ASSERT_LT(++host_late, 20) << "the host woke the poll loop late on 20 runs";
      continue;
    }
    const obs::Report report = obs::check(trace, expect);
    EXPECT_EQ(report.summary.calls_timeout, 1u) << "run " << checked;
    EXPECT_TRUE(report.ok()) << "run " << checked << ": " << report.brief() << "; "
                             << report.violations.front().detail;
    ++checked;
  }
}

// poll_once sleeps exactly until the earliest timer: a wait rounded up to
// whole milliseconds would wake a 300 us timer at least 700 us late.  The
// median of several wakes keeps a host's occasional late wake-up out of it.
TEST(UdpTransport, PollWakesForATimerToTheMicrosecond) {
  constexpr sim::Duration kDelay = sim::usec(300);
  UdpTransport t;
  std::vector<sim::Duration> late;
  for (int i = 0; i < 9; ++i) {
    bool fired = false;
    const sim::Time start = t.now();
    t.schedule_after(kDelay, [&] { fired = true; });
    while (!fired && t.now() < start + sim::seconds(2)) t.poll_once(sim::msec(10));
    ASSERT_TRUE(fired);
    late.push_back(t.now() - start - kDelay);
  }
  std::sort(late.begin(), late.end());
  EXPECT_LT(late[late.size() / 2], sim::usec(500));
}

/// Sends a raw pre-encoded frame at the given port from a throwaway socket
/// (models a stale datagram still sitting in kernel buffers after its
/// sender restarted).
void send_raw(std::uint16_t port, const WireFrame& frame) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const Buffer encoded = frame.encode();
  const auto sent = ::sendto(fd, encoded.bytes().data(), encoded.size(), 0,
                             reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  ::close(fd);
  ASSERT_EQ(static_cast<std::size_t>(sent), encoded.size());
}

// A transport timer is armed at the transport clock's absolute deadline.
// The executor's clock lags real time by the wait of the poll that received
// a datagram (its delivery fiber runs at the value from before the poll),
// so a timer taken relative to the executor would fire early by that lag.
TEST(UdpTransport, TimerArmedByADeliveryFiberWaitsItsFullDelay) {
  using Clock = std::chrono::steady_clock;
  constexpr sim::Duration kDelay = sim::msec(20);
  UdpTransport t;
  Endpoint& b = t.attach(kB, DomainId{2});
  sim::Duration lag = -1;
  Clock::time_point armed_at{};
  Clock::time_point fired_at{};
  b.set_handler(kProto, [&](Packet) -> sim::Task<> {
    lag = t.now() - t.executor().now();
    armed_at = Clock::now();
    t.schedule_after(kDelay, [&] { fired_at = Clock::now(); });
    co_return;
  });

  WireFrame frame;
  frame.src = kA;
  frame.dst = kB;
  frame.proto = kProto;
  frame.incarnation = 1;
  frame.payload = make_payload(1);
  const std::uint16_t port = t.local_port(kB);
  {
    const std::jthread sender([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      send_raw(port, frame);
    });
    t.poll_once(sim::msec(500));  // waits in ppoll until the datagram arrives
  }
  ASSERT_GE(lag, sim::msec(1)) << "the delivery fiber must run on a lagging executor clock";

  const auto give_up = Clock::now() + std::chrono::seconds(2);
  while (fired_at == Clock::time_point{} && Clock::now() < give_up) t.poll_once(sim::msec(10));
  ASSERT_NE(fired_at, Clock::time_point{});
  // now() truncates to whole microseconds, hence the 1 us.
  EXPECT_GE(fired_at - armed_at, std::chrono::microseconds(kDelay - 1))
      << "executor clock lag at arming: " << lag << " us";
}

// A Total Order leader's Order carries the Call it orders only when both fit
// in one datagram.  A Call that fills a datagram alone goes out as usual and
// its Orders without it; an Order carrying it would be dropped as oversized
// at every send, and the followers would never learn the call's order.
TEST(UdpTransport, TotalOrderCallThatFillsADatagramIsOrderedWithoutIt) {
  constexpr ProcessId kClient{4};
  constexpr GroupId kGroup{1};
  const core::Config config =
      core::ConfigBuilder::at_most_once().total_order().acceptance_limit(core::kAll).build();
  UdpTransport t;
  const std::set<ProcessId> known{kA, kB, kC, kClient};
  std::vector<std::unique_ptr<core::Site>> servers;
  for (ProcessId p : {kA, kB, kC}) {
    servers.push_back(std::make_unique<core::Site>(t, p, config, known));
  }
  core::Site client(t, kClient, config, known);
  t.define_group(kGroup, {kA, kB, kC});
  for (auto& server : servers) server->boot();
  client.boot();
  // A call that reaches the leader during its boot reconciliation is
  // announced by the round's close, without its Call.
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(3);
  while (servers.back()->grpc().total()->reconciling() &&
         std::chrono::steady_clock::now() < give_up) {
    t.poll_once(sim::msec(10));
  }
  ASSERT_FALSE(servers.back()->grpc().total()->reconciling());

  // The Call's datagram is the frame head, the message's fixed fields and
  // length prefix, and the args: 8 bytes short of the cap.
  constexpr std::size_t kArgs =
      kMaxDatagram - sizeof(WireFrame::Head) - NetMessage::kFixedBytes - 8;
  const Buffer args = Buffer::copy_of(std::vector<std::byte>(kArgs, std::byte{0x5a}));
  core::Client c(client);
  core::CallResult result;
  const FiberId fiber = t.spawn(
      [](core::Client& c, const Buffer& args, core::CallResult& result) -> sim::Task<> {
        result = co_await c.call(kGroup, OpId{1}, args);
      }(c, args, result),
      client.domain());
  while (t.executor().fiber_alive(fiber) && std::chrono::steady_clock::now() < give_up) {
    t.poll_once(sim::msec(10));
  }
  EXPECT_EQ(result.status, Status::kOk) << "the group wedged on an oversized Order";
  EXPECT_EQ(result.result, args);
  EXPECT_EQ(t.stats().dropped, 0u) << "an Order was too large to send";
  for (auto& server : servers) EXPECT_EQ(server->total_executions(), 1u);
}

TEST(UdpTransport, StaleIncarnationFramesAreDropped) {
  // A restarted sender re-attaches with a bumped incarnation; once the
  // receiver has heard the newer incarnation, frames tagged with an older
  // one (pre-restart datagrams lingering in kernel buffers) must die.
  UdpTransport sender_t;
  UdpTransport receiver_t;
  sender_t.attach(kA, DomainId{1});
  sender_t.detach(kA);
  Endpoint& a2 = sender_t.attach(kA, DomainId{1});  // incarnation 2
  Endpoint& b = receiver_t.attach(kB, DomainId{2});
  sender_t.add_peer(kB, "127.0.0.1", receiver_t.local_port(kB));
  std::vector<Packet> received;
  b.set_handler(kProto, record_into(received));

  a2.send(kB, kProto, make_payload(2));
  ASSERT_TRUE(drive_until(sender_t, receiver_t, [&] { return !received.empty(); }));

  const auto delivered_before = receiver_t.stats().delivered;
  WireFrame stale;
  stale.src = kA;
  stale.dst = kB;
  stale.proto = kProto;
  stale.incarnation = 1;  // superseded
  stale.payload = make_payload(1);
  send_raw(receiver_t.local_port(kB), stale);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  while (std::chrono::steady_clock::now() < deadline) {
    receiver_t.poll_once(sim::usec(500));
  }
  EXPECT_EQ(receiver_t.stats().delivered, delivered_before)
      << "frame from a superseded incarnation must not be delivered";
  EXPECT_EQ(received.size(), 1u);
}

/// A plain loopback UDP socket standing in for a peer, so a test sees the
/// exact datagrams a transport sends.
struct RawPeer {
  int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  std::uint16_t port = 0;

  RawPeer() {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (fd >= 0 && ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0 &&
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
      port = ntohs(addr.sin_port);
    }
  }
  ~RawPeer() {
    if (fd >= 0) ::close(fd);
  }
  RawPeer(const RawPeer&) = delete;
  RawPeer& operator=(const RawPeer&) = delete;

  /// The next datagram, or nullopt if none arrives within ~2 s.  `from`,
  /// when given, receives the port it was sent from.
  std::optional<std::vector<std::byte>> receive(std::uint16_t* from = nullptr) const {
    std::vector<std::byte> buf(kMaxDatagram + 1);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (std::chrono::steady_clock::now() < deadline) {
      sockaddr_in src{};
      socklen_t len = sizeof(src);
      const ssize_t n =
          ::recvfrom(fd, buf.data(), buf.size(), 0, reinterpret_cast<sockaddr*>(&src), &len);
      if (n >= 0) {
        buf.resize(static_cast<std::size_t>(n));
        if (from != nullptr) *from = ntohs(src.sin_port);
        return buf;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return std::nullopt;
  }
  /// True when no datagram is waiting.
  bool idle() const {
    std::byte b{};
    return ::recv(fd, &b, 1, 0) < 0;
  }
};

std::vector<std::byte> bytes_of(const Buffer& b) { return {b.bytes().begin(), b.bytes().end()}; }

TEST(UdpTransport, SentDatagramIsTheEncodedFrame) {
  // transmit() gathers the header and the payload into one datagram instead
  // of encoding a frame buffer; the bytes on the wire must be encode()'s.
  const RawPeer peer;
  ASSERT_NE(peer.port, 0);
  UdpTransport t;
  Endpoint& a = t.attach(kA, DomainId{1});
  t.add_peer(kC, "127.0.0.1", peer.port);

  Buffer big;
  for (int i = 0; i < 8192; ++i) big.push_back(static_cast<std::byte>(i * 7));
  for (const Buffer& payload : {make_payload(0xabcdef01), Buffer{}, big}) {
    a.send(kC, kProto, payload);
    const auto got = peer.receive();
    ASSERT_TRUE(got.has_value());
    const WireFrame expected{kA, kC, kProto, /*incarnation=*/1, /*trace=*/0, /*span=*/0, payload};
    EXPECT_EQ(*got, bytes_of(expected.encode())) << payload.size() << "-byte payload";
  }

  // Traced, the frame carries the send span's id.
  obs::Tracer tracer;
  t.set_tracer(&tracer);
  a.send(kC, kProto, make_payload(5));
  const auto got = peer.receive();
  ASSERT_TRUE(got.has_value());
  const auto frame = WireFrame::decode(*got);
  ASSERT_TRUE(frame.has_value());
  EXPECT_NE(frame->span, 0u);
  EXPECT_EQ(frame->payload, make_payload(5));
  EXPECT_EQ(*got, bytes_of(frame->encode()));
  EXPECT_EQ(t.stats().dropped, 0u);
}

TEST(UdpTransport, OversizedFrameIsDroppedUnsent) {
  const RawPeer peer;
  ASSERT_NE(peer.port, 0);
  UdpTransport t;
  Endpoint& a = t.attach(kA, DomainId{1});
  t.add_peer(kC, "127.0.0.1", peer.port);
  // The largest payload that fits, and one byte more.
  const std::size_t fits = kMaxDatagram - kWireHeaderSize - 4;
  Buffer payload = Buffer::copy_of(std::vector<std::byte>(fits, std::byte{0x33}));
  a.send(kC, kProto, payload);
  const auto got = peer.receive();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->size(), kMaxDatagram);
  payload.push_back(std::byte{0x33});
  a.send(kC, kProto, payload);
  EXPECT_EQ(t.stats().dropped, 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(peer.idle()) << "an oversized frame must not be sent";
}

/// Runs `body` in a fiber on `t`'s executor: it starts, and its sends
/// leave, on `t`'s next poll.
void in_one_drain(UdpTransport& t, std::function<void()> body) {
  t.spawn([](std::function<void()> f) -> sim::Task<> {
    f();
    co_return;
  }(std::move(body)));
}

/// The tag make_payload() put in a datagram `got` carries.
std::uint32_t tag_of(const std::vector<std::byte>& got) {
  const auto frame = WireFrame::decode(got);
  return frame.has_value() ? Reader(frame->payload).u32() : ~0u;
}

// A drain's sends leave together, more than one receive batch of them, and
// in the order they were made.
TEST(UdpTransport, SendsQueuedInOneDrainArriveInOrder) {
  constexpr std::uint32_t kSends = 40;
  const RawPeer peer;
  ASSERT_NE(peer.port, 0);
  UdpTransport t;
  Endpoint& a = t.attach(kA, DomainId{1});
  t.add_peer(kC, "127.0.0.1", peer.port);
  in_one_drain(t, [&] {
    for (std::uint32_t i = 0; i < kSends; ++i) a.send(kC, kProto, make_payload(i));
  });
  t.poll_once(0);
  for (std::uint32_t i = 0; i < kSends; ++i) {
    const auto got = peer.receive();
    ASSERT_TRUE(got.has_value()) << "datagram " << i;
    EXPECT_EQ(tag_of(*got), i);
  }
  EXPECT_TRUE(peer.idle());
  EXPECT_EQ(t.stats().sent, kSends);
  EXPECT_EQ(t.stats().dropped, 0u);
}

// The kernel refuses a datagram in the middle of a batch (a peer at port 0:
// EINVAL).  It alone is lost: one drop, its send span flagged, and the
// datagrams after it in the batch still leave.
TEST(UdpTransport, ARefusedDatagramInABatchIsTheOnlyOneLost) {
  constexpr ProcessId kNowhere{4};
  const RawPeer peer;
  ASSERT_NE(peer.port, 0);
  obs::Tracer tracer;
  UdpTransport t;
  t.set_tracer(&tracer);
  Endpoint& a = t.attach(kA, DomainId{1});
  t.add_peer(kC, "127.0.0.1", peer.port);
  t.add_peer(kNowhere, "127.0.0.1", 0);
  in_one_drain(t, [&] {
    a.send(kC, kProto, make_payload(1));
    a.send(kC, kProto, make_payload(2));
    a.send(kNowhere, kProto, make_payload(3));
    a.send(kC, kProto, make_payload(4));
    a.send(kC, kProto, make_payload(5));
  });
  t.poll_once(0);
  for (std::uint32_t tag : {1u, 2u, 4u, 5u}) {
    const auto got = peer.receive();
    ASSERT_TRUE(got.has_value()) << "datagram " << tag;
    EXPECT_EQ(tag_of(*got), tag);
  }
  EXPECT_TRUE(peer.idle());
  EXPECT_EQ(t.stats().sent, 5u);
  EXPECT_EQ(t.stats().dropped, 1u);

  std::vector<obs::Span> sends;
  for (const obs::Span& span : tracer.spans()) {
    if (span.kind == obs::Kind::kMsgSent) sends.push_back(span);
  }
  ASSERT_EQ(sends.size(), 5u);
  for (const obs::Span& span : sends) {
    EXPECT_FALSE(span.open()) << "every send span ends when its datagram leaves";
    EXPECT_EQ(span.flagged, span.a == kNowhere.value()) << "send to " << span.a;
  }
}

// A process detached in the drain that queued its send: the datagram leaves
// once, from the process's own socket, before the socket closes -- not on
// the closed fd, nor on the fd number a process attached next reuses.
TEST(UdpTransport, DetachSendsWhatItsProcessQueuedFirst) {
  const RawPeer peer;
  ASSERT_NE(peer.port, 0);
  UdpTransport t;
  Endpoint& a = t.attach(kA, DomainId{1});
  const std::uint16_t a_port = t.local_port(kA);
  t.add_peer(kC, "127.0.0.1", peer.port);
  in_one_drain(t, [&] {
    a.send(kC, kProto, make_payload(42));
    t.detach(kA);
    t.attach(kB, DomainId{2});
    t.add_peer(kC, "127.0.0.1", peer.port);
  });
  t.poll_once(0);
  std::uint16_t from = 0;
  const auto got = peer.receive(&from);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(tag_of(*got), 42u);
  EXPECT_EQ(from, a_port) << "the datagram left from another socket";
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(peer.idle()) << "the datagram left twice";
  EXPECT_EQ(t.stats().dropped, 0u);
}

/// net.core.rmem_max, or 0 when it cannot be read.
long rmem_max() {
  long v = 0;
  std::ifstream("/proc/sys/net/core/rmem_max") >> v;
  return v;
}

// A drain that sends 64 datagrams of 8 KiB to one peer puts them in its
// socket's queue back to back, about 1 MiB of kernel memory before the peer
// reads any.  A default-sized receive buffer (rmem_default, often 208 KiB)
// overflows and the kernel drops the rest unseen; the transport's 2 MiB
// request holds the burst.
TEST(UdpTransport, ABurstOfLargeDatagramsIsNotDroppedByTheKernel) {
  constexpr std::uint32_t kSends = 64;
  // The kernel grants twice min(request, rmem_max).
  if (rmem_max() < (1 << 20)) GTEST_SKIP() << "net.core.rmem_max below 1 MiB: " << rmem_max();
  Pair p;
  std::vector<Packet> received;
  p.b.set_handler(kProto, record_into(received));
  Buffer payload = Buffer::copy_of(std::vector<std::byte>(8192, std::byte{0x5a}));
  in_one_drain(p.ta, [&] {
    for (std::uint32_t i = 0; i < kSends; ++i) {
      Buffer b = payload;
      Writer(b).u32(i);
      p.a.send(kB, kProto, b);
    }
  });
  p.ta.poll_once(0);
  EXPECT_EQ(p.ta.stats().dropped, 0u);
  // Loopback has queued the whole burst once the sends return; wait briefly
  // anyway, then read what the kernel kept.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  while (received.size() < kSends && std::chrono::steady_clock::now() < deadline) {
    p.tb.poll_once(sim::msec(10));
  }
  EXPECT_EQ(received.size(), kSends) << "the kernel dropped part of the burst";
  EXPECT_EQ(p.tb.stats().dropped, 0u);
}

// A socket holding more datagrams than one recvmmsg() call takes is read
// again until a call comes back short, all in one poll.
TEST(UdpTransport, OnePollDrainsMoreThanOneReceiveBatch) {
  constexpr std::uint32_t kSends = 40;
  UdpTransport t;
  Endpoint& b = t.attach(kB, DomainId{2});
  std::vector<Packet> received;
  b.set_handler(kProto, record_into(received));
  for (std::uint32_t i = 0; i < kSends; ++i) {
    send_raw(t.local_port(kB), WireFrame{kA, kB, kProto, 1, 0, 0, make_payload(i)});
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // all queued

  t.poll_once(sim::msec(200));
  ASSERT_EQ(received.size(), kSends);
  for (std::uint32_t i = 0; i < kSends; ++i) EXPECT_EQ(Reader(received[i].payload).u32(), i);
  EXPECT_EQ(t.stats().dropped, 0u);
}

// One poll drains a socket holding a stray datagram, one longer than
// kMaxDatagram and a valid frame: the two bad ones are dropped and counted,
// and the frame behind them is delivered.  The long one is told by its
// length reaching the receive slot's spare byte (kMaxDatagram + 1), not by
// MSG_TRUNC, which a datagram of exactly that length does not raise.
TEST(UdpTransport, OneReceiveBatchDropsBadDatagramsAndDeliversTheRest) {
  UdpTransport t;
  Endpoint& b = t.attach(kB, DomainId{2});
  std::vector<Packet> received;
  b.set_handler(kProto, record_into(received));
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(t.local_port(kB));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const auto send_bytes = [&](std::span<const std::byte> bytes) {
    return ::sendto(fd, bytes.data(), bytes.size(), 0, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == static_cast<ssize_t>(bytes.size());
  };
  const char junk[] = "not a uGRP frame";
  EXPECT_TRUE(send_bytes(std::as_bytes(std::span(junk))));
  // A well-formed frame one byte longer than the cap: it fits its receive
  // slot whole, so only its length gives it away.
  const std::size_t too_long = kMaxDatagram + 1 - sizeof(WireFrame::Head);
  const WireFrame oversized{kA, kB, kProto, 1, 0, 0,
                            Buffer::copy_of(std::vector<std::byte>(too_long, std::byte{1}))};
  ASSERT_EQ(oversized.encode().size(), kMaxDatagram + 1);
  EXPECT_TRUE(send_bytes(oversized.encode().bytes()));
  const WireFrame valid{kA, kB, kProto, 1, 0, 0, make_payload(9)};
  EXPECT_TRUE(send_bytes(valid.encode().bytes()));
  ::close(fd);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // all three queued

  t.poll_once(sim::msec(200));
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(Reader(received[0].payload).u32(), 9u);
  EXPECT_EQ(t.stats().delivered, 1u);
  EXPECT_EQ(t.stats().dropped, 2u);
}

TEST(UdpTransport, StrayDatagramsAreRejected) {
  // Non-uGRP traffic arriving on the socket must be dropped, not crash the
  // decoder or reach a handler.
  UdpTransport t;
  Endpoint& b = t.attach(kB, DomainId{2});
  std::vector<Packet> received;
  b.set_handler(kProto, record_into(received));
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(t.local_port(kB));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const char junk[] = "not a uGRP frame";
  ::sendto(fd, junk, sizeof(junk), 0, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  ::close(fd);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  while (std::chrono::steady_clock::now() < deadline && t.stats().dropped == 0) {
    t.poll_once(sim::usec(500));
  }
  EXPECT_TRUE(received.empty());
  EXPECT_EQ(t.stats().dropped, 1u);
  EXPECT_EQ(t.stats().delivered, 0u);
}

}  // namespace
}  // namespace ugrpc::net
