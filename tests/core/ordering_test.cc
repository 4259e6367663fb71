// Tests of the ordering micro-protocols (paper section 4.4.6).
//
// FIFO Order: calls of one client execute in issue order at every server
// (each server's execution sequence is a subsequence of the issue order).
// Total Order: calls of all clients execute in one total order at all
// servers (execution logs are prefixes of each other / identical).
//
// The server application appends each executed call's (client, seq) tag to a
// per-server log; the network uses a wide random delay range so arrival
// order is thoroughly scrambled.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "core/events.h"
#include "core/micro/acceptance.h"
#include "core/micro/reliable_communication.h"
#include "core/micro/total_order.h"
#include "core/scenario.h"
#include "obs/trace.h"

namespace ugrpc::core {
namespace {

constexpr OpId kTagged{1};

struct Tag {
  std::uint32_t client;
  std::uint32_t seq;
  friend bool operator==(const Tag&, const Tag&) = default;
};

Buffer tag_buf(Tag t) {
  Buffer b;
  Writer w(b);
  w.u32(t.client);
  w.u32(t.seq);
  return b;
}

Tag tag_of(const Buffer& b) {
  Reader r(b);
  Tag t;
  t.client = r.u32();
  t.seq = r.u32();
  return t;
}

using Logs = std::map<std::uint32_t, std::vector<Tag>>;  // server id -> executed tags

Site::AppSetup logging_app(Logs& logs) {
  return [&logs](UserProtocol& user, Site& site) {
    user.set_procedure([&logs, &site](OpId, Buffer& args) -> sim::Task<> {
      logs[site.id().value()].push_back(tag_of(args));
      co_return;
    });
  };
}

net::FaultSpec scrambling_network() {
  net::FaultSpec f;
  f.min_delay = sim::usec(50);
  f.max_delay = sim::msec(40);  // heavy reordering
  return f;
}

/// True if `sub` is a subsequence of 0..n-1 in increasing seq order for each
/// client stream.
bool per_client_order_preserved(const std::vector<Tag>& log) {
  std::map<std::uint32_t, std::int64_t> last_seq;
  for (const Tag& t : log) {
    auto [it, inserted] = last_seq.try_emplace(t.client, -1);
    if (static_cast<std::int64_t>(t.seq) <= it->second) return false;
    it->second = t.seq;
  }
  return true;
}

TEST(NoOrder, ScrambledNetworkProducesOutOfOrderExecution) {
  Logs logs;
  ScenarioParams p;
  p.num_servers = 2;
  p.config.acceptance_limit = kAll;
  p.config.call = CallSemantics::kAsynchronous;  // keep many calls in flight
  p.faults = scrambling_network();
  p.server_app = logging_app(logs);
  p.seed = 23;
  Scenario s(std::move(p));
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    for (std::uint32_t i = 0; i < 40; ++i) {
      (void)co_await c.call_async(s.group(), kTagged, tag_buf({0, i}));
    }
  });
  s.run_for(sim::seconds(2));
  bool any_out_of_order = false;
  for (const auto& [server, log] : logs) {
    ASSERT_EQ(log.size(), 40u);
    if (!per_client_order_preserved(log)) any_out_of_order = true;
  }
  EXPECT_TRUE(any_out_of_order)
      << "without an ordering micro-protocol, heavy reordering must show up";
}

TEST(FifoOrder, PerClientOrderAtEveryServer) {
  Logs logs;
  ScenarioParams p;
  p.num_servers = 3;
  p.config.acceptance_limit = kAll;
  p.config.call = CallSemantics::kAsynchronous;
  p.config.reliable_communication = true;
  p.config.retrans_timeout = sim::msec(60);
  p.config.ordering = Ordering::kFifo;
  p.faults = scrambling_network();
  p.server_app = logging_app(logs);
  p.seed = 31;
  Scenario s(std::move(p));
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    for (std::uint32_t i = 0; i < 40; ++i) {
      (void)co_await c.call_async(s.group(), kTagged, tag_buf({0, i}));
    }
  });
  s.run_for(sim::seconds(5));
  for (const auto& [server, log] : logs) {
    EXPECT_TRUE(per_client_order_preserved(log)) << "server " << server;
    // FIFO Order starts a client's stream at the low watermark of the first
    // Call a server sees.  No call is collected here, so every Call carries
    // the first call's id: each server executes the whole issue stream,
    // strictly consecutively.
    ASSERT_FALSE(log.empty());
    EXPECT_EQ(log.front().seq, 0u) << "server " << server << " must start at the first call";
    for (std::size_t i = 1; i < log.size(); ++i) {
      EXPECT_EQ(log[i].seq, log[i - 1].seq + 1)
          << "server " << server << " must execute a contiguous run";
    }
    EXPECT_EQ(log.back().seq, 39u) << "the stream must catch up to the last call";
  }
}

// The first Call to one server is lost, and the later Calls reach it before
// that Call's retransmission does.  Without Unique Execution nothing answers
// a Call below a server's stream position, so a stream started at the
// first id the server sees would leave the first call stale forever; the
// stream starts at the watermark those Calls carry instead.
TEST(FifoOrder, StreamStartsAtTheWatermarkWhenTheFirstCallIsLost) {
  Logs logs;
  ScenarioParams p;
  p.num_servers = 2;
  p.config = ConfigBuilder()
                 .asynchronous()
                 .reliable_communication(sim::msec(30))
                 .fifo_order()
                 .acceptance_limit(kAll)
                 .build();
  p.server_app = logging_app(logs);
  Scenario s(std::move(p));
  const ProcessId lossy = Scenario::server_id(1);
  constexpr std::uint32_t kCalls = 10;
  std::vector<CallResult> results;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    std::vector<CallHandle> handles;
    s.network().link(s.client_id(0), lossy).partitioned = true;
    handles.push_back(co_await c.call_async(s.group(), kTagged, tag_buf({0, 0})));
    s.network().link(s.client_id(0), lossy).partitioned = false;
    for (std::uint32_t i = 1; i < kCalls; ++i) {
      handles.push_back(co_await c.call_async(s.group(), kTagged, tag_buf({0, i})));
    }
    for (CallHandle& h : handles) results.push_back(co_await h.get());
  }, sim::seconds(10));
  ASSERT_EQ(results.size(), kCalls) << "every call must end";
  for (const CallResult& r : results) EXPECT_EQ(r.status, Status::kOk);
  for (int k = 0; k < s.num_servers(); ++k) {
    const std::vector<Tag>& log = logs[Scenario::server_id(k).value()];
    ASSERT_EQ(log.size(), kCalls) << "server " << k << " must execute every call";
    for (std::uint32_t i = 0; i < kCalls; ++i) EXPECT_EQ(log[i], (Tag{0, i})) << "server " << k;
  }
}

TEST(FifoOrder, TwoClientStreamsEachStayOrdered) {
  Logs logs;
  ScenarioParams p;
  p.num_servers = 3;
  p.num_clients = 2;
  p.config.acceptance_limit = kAll;
  p.config.call = CallSemantics::kAsynchronous;
  p.config.reliable_communication = true;
  p.config.retrans_timeout = sim::msec(60);
  p.config.ordering = Ordering::kFifo;
  p.faults = scrambling_network();
  p.server_app = logging_app(logs);
  p.seed = 37;
  Scenario s(std::move(p));
  auto burst = [&](Client& c, std::uint32_t who) -> sim::Task<> {
    for (std::uint32_t i = 0; i < 25; ++i) {
      (void)co_await c.call_async(s.group(), kTagged, tag_buf({who, i}));
    }
  };
  s.scheduler().spawn(burst(s.client(0), 0), s.client_site(0).domain());
  s.scheduler().spawn(burst(s.client(1), 1), s.client_site(1).domain());
  s.run_for(sim::seconds(5));
  for (const auto& [server, log] : logs) {
    EXPECT_TRUE(per_client_order_preserved(log)) << "server " << server;
  }
}

TEST(TotalOrder, AllServersExecuteIdenticalSequence) {
  Logs logs;
  ScenarioParams p;
  p.num_servers = 3;
  p.num_clients = 3;
  p.config.acceptance_limit = kAll;
  p.config.call = CallSemantics::kAsynchronous;
  p.config.reliable_communication = true;
  p.config.unique_execution = true;
  p.config.retrans_timeout = sim::msec(60);
  p.config.ordering = Ordering::kTotal;
  p.faults = scrambling_network();
  p.server_app = logging_app(logs);
  p.seed = 41;
  Scenario s(std::move(p));
  auto burst = [&](Client& c, std::uint32_t who) -> sim::Task<> {
    for (std::uint32_t i = 0; i < 20; ++i) {
      (void)co_await c.call_async(s.group(), kTagged, tag_buf({who, i}));
    }
  };
  for (int i = 0; i < 3; ++i) {
    s.scheduler().spawn(burst(s.client(i), static_cast<std::uint32_t>(i)),
                        s.client_site(i).domain());
  }
  s.run_for(sim::seconds(10));
  ASSERT_EQ(logs.size(), 3u);
  const std::vector<Tag>& reference = logs.begin()->second;
  EXPECT_EQ(reference.size(), 60u) << "all 60 calls must execute";
  for (const auto& [server, log] : logs) {
    EXPECT_EQ(log, reference) << "server " << server << " diverges from the total order";
  }
}

// Note: total order does NOT imply per-client FIFO -- the leader numbers
// calls in its own arrival order, which a reordering network permutes.  The
// paper treats FIFO and Total as alternatives, not a hierarchy.  What total
// order does guarantee is identical execution sequences everywhere.
TEST(TotalOrder, ConsistentAcrossServersUnderReordering) {
  Logs logs;
  ScenarioParams p;
  p.num_servers = 2;
  p.num_clients = 2;
  p.config.acceptance_limit = kAll;
  p.config.call = CallSemantics::kAsynchronous;
  p.config.reliable_communication = true;
  p.config.unique_execution = true;
  p.config.ordering = Ordering::kTotal;
  p.faults = scrambling_network();
  p.server_app = logging_app(logs);
  p.seed = 43;
  Scenario s(std::move(p));
  auto burst = [&](Client& c, std::uint32_t who) -> sim::Task<> {
    for (std::uint32_t i = 0; i < 15; ++i) {
      (void)co_await c.call_async(s.group(), kTagged, tag_buf({who, i}));
    }
  };
  s.scheduler().spawn(burst(s.client(0), 0), s.client_site(0).domain());
  s.scheduler().spawn(burst(s.client(1), 1), s.client_site(1).domain());
  s.run_for(sim::seconds(10));
  ASSERT_EQ(logs.size(), 2u);
  const std::vector<Tag>& reference = logs.begin()->second;
  EXPECT_EQ(reference.size(), 30u);
  for (const auto& [server, log] : logs) {
    EXPECT_EQ(log, reference) << "server " << server;
  }
}

TEST(TotalOrder, LeaderIsLargestLiveMember) {
  ScenarioParams p;
  p.num_servers = 3;
  p.config.acceptance_limit = kAll;
  p.config.reliable_communication = true;
  p.config.unique_execution = true;
  p.config.ordering = Ordering::kTotal;
  Scenario s(std::move(p));
  TotalOrder* to = s.server(0).grpc().total();
  ASSERT_NE(to, nullptr);
  EXPECT_EQ(to->leader(), Scenario::server_id(2)) << "largest id leads";
}

TEST(TotalOrder, SurvivesLossyNetwork) {
  Logs logs;
  ScenarioParams p;
  p.num_servers = 3;
  p.num_clients = 2;
  p.config.acceptance_limit = kAll;
  p.config.call = CallSemantics::kAsynchronous;
  p.config.reliable_communication = true;
  p.config.unique_execution = true;
  p.config.retrans_timeout = sim::msec(40);
  p.config.ordering = Ordering::kTotal;
  p.faults = scrambling_network();
  p.faults.drop_prob = 0.15;
  p.server_app = logging_app(logs);
  p.seed = 47;
  Scenario s(std::move(p));
  auto burst = [&](Client& c, std::uint32_t who) -> sim::Task<> {
    for (std::uint32_t i = 0; i < 15; ++i) {
      (void)co_await c.call_async(s.group(), kTagged, tag_buf({who, i}));
    }
  };
  s.scheduler().spawn(burst(s.client(0), 0), s.client_site(0).domain());
  s.scheduler().spawn(burst(s.client(1), 1), s.client_site(1).domain());
  s.run_for(sim::seconds(20));
  ASSERT_EQ(logs.size(), 3u);
  const std::vector<Tag>& reference = logs.begin()->second;
  EXPECT_EQ(reference.size(), 30u);
  for (const auto& [server, log] : logs) {
    EXPECT_EQ(log, reference) << "server " << server;
  }
}

// ---- a released call runs in a fiber of its own ----
//
// One server, fixed 100 us links and a 10 ms procedure.  The first call
// runs from 0.1 to 10.1 ms and its Reply reaches the client at 10.2 ms.
// The call held behind it is released when it ends; if that call ran inside
// the first one's reply chain, the first Reply would leave only after it,
// at 20.1 ms.

constexpr sim::Duration kProcedure = sim::msec(10);
constexpr sim::Duration kFirstReplyBound = sim::msec(12);

ScenarioParams held_call_params(Config config, int clients) {
  ScenarioParams p;
  p.num_servers = 1;
  p.num_clients = clients;
  p.config = std::move(config);
  p.faults.min_delay = sim::usec(100);
  p.faults.max_delay = sim::usec(100);
  p.server_app = [](UserProtocol& user, Site& site) {
    user.set_procedure([&site](OpId, Buffer&) -> sim::Task<> {
      co_await site.scheduler().sleep_for(kProcedure);
    });
  };
  return p;
}

/// Client 0 calls at 0 ms and client 1 at 1 ms; returns when each call
/// completed (0 if it did not).
std::pair<sim::Time, sim::Time> two_clients_one_after_the_other(Scenario& s) {
  sim::Time done[2] = {0, 0};
  auto call_at = [&](int i, sim::Duration at) -> sim::Task<> {
    co_await s.scheduler().sleep_for(at);
    const CallResult r = co_await s.client(i).call(
        s.group(), kTagged, tag_buf({static_cast<std::uint32_t>(i), 0}));
    if (r.status == Status::kOk) done[i] = s.scheduler().now();
  };
  s.scheduler().spawn(call_at(0, 0), s.client_site(0).domain());
  s.scheduler().spawn(call_at(1, sim::msec(1)), s.client_site(1).domain());
  s.run_for(sim::seconds(1));
  return {done[0], done[1]};
}

TEST(TotalOrder, ReplyDoesNotWaitForTheCallReleasedBehindIt) {
  Scenario s(held_call_params(
      ConfigBuilder::exactly_once().total_order().acceptance_limit(1).build(), 2));
  const auto [a, b] = two_clients_one_after_the_other(s);
  EXPECT_GT(a, 0);
  EXPECT_LE(a, kFirstReplyBound) << "the first Reply waited for the call released behind it";
  EXPECT_GE(b, 2 * kProcedure) << "the second call runs after the first";
}

TEST(TotalOrder, ReplyDoesNotWaitForTheReleasedCallUnderSerialExecution) {
  Scenario s(held_call_params(ConfigBuilder::exactly_once()
                                  .total_order()
                                  .execution(ExecutionMode::kSerial)
                                  .acceptance_limit(1)
                                  .build(),
                              2));
  const auto [a, b] = two_clients_one_after_the_other(s);
  EXPECT_GT(a, 0);
  EXPECT_LE(a, kFirstReplyBound) << "the first Reply waited for the call released behind it";
  EXPECT_GE(b, 2 * kProcedure) << "the second call runs after the first";
}

TEST(FifoOrder, ReplyDoesNotWaitForTheSuccessorReleasedBehindIt) {
  Scenario s(held_call_params(
      ConfigBuilder().asynchronous().reliable_communication().fifo_order().build(), 1));
  sim::Time done[2] = {0, 0};
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    CallHandle first = co_await c.call_async(s.group(), kTagged, tag_buf({0, 0}));
    CallHandle second = co_await c.call_async(s.group(), kTagged, tag_buf({0, 1}));
    if ((co_await first.get()).status == Status::kOk) done[0] = s.scheduler().now();
    if ((co_await second.get()).status == Status::kOk) done[1] = s.scheduler().now();
  }, sim::seconds(1));
  EXPECT_GT(done[0], 0);
  EXPECT_LE(done[0], kFirstReplyBound) << "the first Reply waited for its successor";
  EXPECT_GE(done[1], 2 * kProcedure);
}

// Client 1's call is released behind client 0's, and client 1 crashes and
// comes back while it runs: Terminate Orphan kills it.  That kill must take
// only the orphan's fiber, not the Reply of the call that released it.
TEST(TotalOrder, KillingTheReleasedCallAsAnOrphanSparesTheReleasingReply) {
  obs::Tracer tracer;
  ScenarioParams p = held_call_params(ConfigBuilder::exactly_once()
                                          .total_order()
                                          .orphan_handling(OrphanHandling::kTerminateOrphans)
                                          .acceptance_limit(1)
                                          .build(),
                                      2);
  p.tracer = &tracer;
  Scenario s(std::move(p));
  Site& orphaned = s.client_site(1);
  s.scheduler().schedule_after(sim::msec(15), [&] {
    orphaned.crash();
    orphaned.recover();
    auto new_incarnation = [](Scenario& sc) -> sim::Task<> {
      (void)co_await sc.client(1).call(sc.group(), kTagged, tag_buf({1, 1}));
    };
    s.scheduler().spawn(new_incarnation(s), orphaned.domain());
  });
  const auto [a, b] = two_clients_one_after_the_other(s);
  EXPECT_EQ(std::ranges::count(tracer.site(s.server(0).id()).events(), obs::Kind::kOrphanKilled,
                               &obs::Event::kind),
            1);
  EXPECT_EQ(b, 0) << "client 1's first call died with its incarnation";
  EXPECT_GT(a, 0);
  EXPECT_LE(a, kFirstReplyBound) << "the orphan kill took the releasing call's Reply with it";
}

// A gate opens at most once per arrival.  Client 1's call holds order 2 and
// is released when client 0's call ends; a duplicated Order for it that is
// delivered before the released fiber starts opens the gate inline.  The
// released fiber must then find the gate open and not run the call again.
TEST(TotalOrder, DuplicatedOrderBehindAPendingReleaseRunsTheCallOnce) {
  std::map<std::uint32_t, int> runs;  // client -> executions of its call
  ScenarioParams p = held_call_params(
      ConfigBuilder::exactly_once().total_order().acceptance_limit(1).build(), 2);
  p.server_app = [&runs](UserProtocol& user, Site& site) {
    user.set_procedure([&runs, &site](OpId, Buffer& args) -> sim::Task<> {
      co_await site.scheduler().sleep_for(kProcedure);
      const std::uint32_t client = tag_of(args).client;
      ++runs[client];
      if (client != 0) co_return;
      // Queued now, this delivery runs before the fiber that the reply
      // chain about to start spawns for client 1's call.
      net::NetMessage order;
      order.type = net::MsgType::kOrder;
      order.id = make_call_id(ProcessId{3}, first_seq_of_incarnation(1));  // client 1's call
      order.server = GroupId{1};
      order.sender = site.id();
      order.inc = 1;
      order.ackid = 2;
      order.args = Buffer(std::vector<std::byte>(16, std::byte{0}));  // no predecessor
      auto deliver = [](Site& at, net::NetMessage msg) -> sim::Task<> {
        co_await at.grpc().framework().trigger(kOrderFromNetwork, runtime::EventArg::ref(msg));
      };
      site.scheduler().spawn(deliver(site, order), site.domain());
    });
  };
  Scenario s(std::move(p));
  ASSERT_EQ(s.client_id(1), ProcessId{3});
  ASSERT_EQ(s.group(), GroupId{1});
  const auto [a, b] = two_clients_one_after_the_other(s);
  EXPECT_GT(a, 0);
  EXPECT_GT(b, 0);
  EXPECT_EQ(runs[0], 1);
  EXPECT_EQ(runs[1], 1) << "one arrival ran twice";
}

// Every gate an ordering protocol opens is recorded: on every site, a call
// held (kCallHeld) that later starts executing (kExecStarted) has a
// kCallReleased in between.  Total Order's Order path used to open held
// gates without one.
TEST(TotalOrder, EveryHeldCallThatExecutesWasReleasedFirst) {
  obs::Tracer tracer(1 << 16);
  ScenarioParams p;
  p.num_servers = 3;
  p.num_clients = 4;
  p.config = ConfigBuilder::at_most_once().total_order().acceptance_limit(kAll).build();
  p.faults.drop_prob = 0.02;
  p.faults.min_delay = sim::usec(100);
  p.faults.max_delay = sim::msec(2);
  p.seed = 3;
  p.tracer = &tracer;
  Scenario s(std::move(p));
  constexpr std::uint32_t kCalls = 200;
  int completed = 0;
  auto burst = [&](Client& c, std::uint32_t who) -> sim::Task<> {
    for (std::uint32_t i = 0; i < kCalls; ++i) {
      if ((co_await c.call(s.group(), kTagged, tag_buf({who, i}))).status == Status::kOk) {
        ++completed;
      }
    }
  };
  for (int i = 0; i < 4; ++i) {
    s.scheduler().spawn(burst(s.client(i), static_cast<std::uint32_t>(i)),
                        s.client_site(i).domain());
  }
  s.run_for(sim::seconds(60));
  ASSERT_EQ(completed, 4 * static_cast<int>(kCalls));
  ASSERT_EQ(tracer.total_dropped(), 0u) << "the rings must hold the whole run";

  std::map<std::pair<ProcessId, std::uint64_t>, bool> held;  // (site, call) -> gate held
  std::size_t holds = 0;
  std::size_t unreleased = 0;
  for (const obs::Event& e : tracer.merged()) {
    const auto key = std::make_pair(e.site, e.call);
    switch (e.kind) {
      case obs::Kind::kCallHeld: held[key] = true; ++holds; break;
      case obs::Kind::kCallReleased: held[key] = false; break;
      case obs::Kind::kExecStarted:
        if (held[key]) {
          ++unreleased;
          held[key] = false;
        }
        break;
      default: break;
    }
  }
  EXPECT_GT(holds, 0u) << "the workload must hold calls";
  EXPECT_EQ(unreleased, 0u) << "executions of held calls without a kCallReleased";
}

// ---- the Order message: a predecessor in args, none to the leader ----
//
// Two servers (the leader is server id 2), fixed 100 us links.  Each call is
// issued when the one before it has completed everywhere, so the leader
// assigns orders 1, 2, 3 in issue order.

struct Execution {
  Tag tag;
  sim::Time at;
};
using TimedLogs = std::map<std::uint32_t, std::vector<Execution>>;  // server id -> executions

ScenarioParams order_repair_params(TimedLogs& logs, int servers = 2, int acceptance = kAll) {
  ScenarioParams p;
  p.num_servers = servers;
  p.num_clients = 2;
  p.config = ConfigBuilder::at_most_once().total_order().acceptance_limit(acceptance).build();
  p.faults.min_delay = sim::usec(100);
  p.faults.max_delay = sim::usec(100);
  p.server_app = [&logs](UserProtocol& user, Site& site) {
    user.set_procedure([&logs, &site](OpId, Buffer& args) -> sim::Task<> {
      logs[site.id().value()].push_back({tag_of(args), site.scheduler().now()});
      co_return;
    });
  };
  return p;
}

TEST(TotalOrder, LostOrderIsRepairedByTheNextOrder) {
  TimedLogs logs;
  Scenario s(order_repair_params(logs));
  const ProcessId leader = Scenario::server_id(1);
  const ProcessId follower = Scenario::server_id(0);
  ASSERT_EQ(s.server(0).grpc().total()->leader(), leader);
  // Client 0 calls at 10 ms (order 1) and 12 ms (order 3), client 1 at
  // 11 ms (order 2).  Only the Order for call 2 is sent while the leader's
  // link to the follower is cut; nothing else crosses that link then.
  constexpr sim::Time kSecond = sim::msec(11);
  constexpr sim::Time kThird = sim::msec(12);
  s.scheduler().schedule_after(sim::usec(10'500),
                               [&] { s.network().link(leader, follower).partitioned = true; });
  s.scheduler().schedule_after(sim::usec(11'500),
                               [&] { s.network().link(leader, follower).partitioned = false; });
  int completed = 0;
  auto call_at = [&](int client, sim::Time at, std::uint32_t seq) -> sim::Task<> {
    co_await s.scheduler().sleep_for(at - s.scheduler().now());
    const CallResult r = co_await s.client(client).call(
        s.group(), kTagged, tag_buf({static_cast<std::uint32_t>(client), seq}));
    if (r.status == Status::kOk) ++completed;
  };
  auto client0 = [&]() -> sim::Task<> {
    co_await call_at(0, sim::msec(10), 0);
    co_await call_at(0, kThird, 1);
  };
  s.scheduler().spawn(client0(), s.client_site(0).domain());
  s.scheduler().spawn(call_at(1, kSecond, 0), s.client_site(1).domain());
  s.run_for(sim::seconds(1));

  ASSERT_EQ(completed, 3);
  const std::vector<Execution>& at_follower = logs[follower.value()];
  ASSERT_EQ(at_follower.size(), 3u);
  EXPECT_EQ(at_follower[1].tag, (Tag{1, 0}));
  // Order 3 leaves the leader when call 3 reaches it (kThird + 100 us) and
  // reaches the follower 100 us later; call 2 executes then, not at a
  // retransmission (the first retransmission timeout is 50 ms).
  EXPECT_EQ(at_follower[1].at, kThird + sim::usec(200))
      << "the follower waited past the Order that carried the lost assignment";
  EXPECT_EQ(at_follower[2].tag, (Tag{0, 1}));
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(s.client_site(i).grpc().reliable()->retransmissions(), 0u) << "client " << i;
  }
  std::vector<Tag> leader_tags;
  std::vector<Tag> follower_tags;
  for (const Execution& e : logs[leader.value()]) leader_tags.push_back(e.tag);
  for (const Execution& e : at_follower) follower_tags.push_back(e.tag);
  EXPECT_EQ(follower_tags, leader_tags);
}

// One call to three servers: three Calls, the leader's Order to each of the
// two followers and three Replies.  An Order to the leader itself would be
// the ninth datagram.
TEST(TotalOrder, LeaderSendsNoOrderToItself) {
  ScenarioParams p;
  p.num_servers = 3;
  p.config = ConfigBuilder::at_most_once().total_order().acceptance_limit(kAll).build();
  Scenario s(std::move(p));
  s.run_for(sim::msec(10));  // the leader's boot reconciliation round
  const std::uint64_t before = s.network().stats().sent;
  std::uint64_t sent = 0;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    const CallResult r = co_await c.call(s.group(), kTagged, tag_buf({0, 0}));
    EXPECT_EQ(r.status, Status::kOk);
    sent = s.network().stats().sent - before;  // before the idle client's ACK
  });
  EXPECT_EQ(sent, 8u);
  EXPECT_EQ(s.network().stats().dropped, 0u);
  EXPECT_EQ(s.total_server_executions(), 3u);
}

/// Cuts client 0's link to `server` from 500 us before `at` to 500 us after,
/// so that only the Call client 0 issues at `at` crosses it meanwhile.
void lose_call_issued_at(Scenario& s, ProcessId server, sim::Time at) {
  s.scheduler().schedule_after(at - sim::usec(500), [&s, server] {
    s.network().link(s.client_id(0), server).partitioned = true;
  });
  s.scheduler().schedule_after(at + sim::usec(500), [&s, server] {
    s.network().link(s.client_id(0), server).partitioned = false;
  });
}

// A follower that lost a Call runs it from the leader's Order, which carries
// it: the Call reaches the leader 100 us after it is issued and the Order the
// follower 100 us later.  Without the embedded Call the follower would wait
// for the client's retransmission (the first retransmission timeout is
// 50 ms).
TEST(TotalOrder, LostCallIsRepairedByItsOrder) {
  TimedLogs logs;
  Scenario s(order_repair_params(logs));
  const ProcessId follower = Scenario::server_id(0);
  ASSERT_EQ(s.server(0).grpc().total()->leader(), Scenario::server_id(1));
  constexpr sim::Time kIssue = sim::msec(10);
  lose_call_issued_at(s, follower, kIssue);
  CallResult result;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    co_await s.scheduler().sleep_for(kIssue - s.scheduler().now());
    result = co_await c.call(s.group(), kTagged, tag_buf({0, 0}));
  });
  s.run_for(sim::seconds(1));

  EXPECT_EQ(result.status, Status::kOk);
  ASSERT_EQ(logs[follower.value()].size(), 1u);
  EXPECT_EQ(logs[follower.value()][0].at, kIssue + sim::usec(200))
      << "the follower waited for a retransmission of the lost Call";
  EXPECT_EQ(s.client_site(0).grpc().reliable()->retransmissions(), 0u);
  EXPECT_EQ(s.total_server_executions(), 2u);
}

// Under acceptance 1 the client stops sending a call once one server has
// answered, so a follower that lost the first Call never gets it from the
// client.  It runs that call from its Order, then the four calls ordered
// after it, in the leader's order.
TEST(TotalOrder, FollowerThatLostACallCatchesUpUnderAcceptanceOne) {
  TimedLogs logs;
  Scenario s(order_repair_params(logs, 3, 1));
  const ProcessId leader = Scenario::server_id(2);
  const ProcessId follower = Scenario::server_id(0);
  ASSERT_EQ(s.server(0).grpc().total()->leader(), leader);
  constexpr sim::Time kFirst = sim::msec(10);
  lose_call_issued_at(s, follower, kFirst);
  int completed = 0;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    for (std::uint32_t seq = 0; seq < 5; ++seq) {
      co_await s.scheduler().sleep_for(kFirst + seq * sim::msec(10) - s.scheduler().now());
      const CallResult r = co_await c.call(s.group(), kTagged, tag_buf({0, seq}));
      if (r.status == Status::kOk) ++completed;
    }
  });
  s.run_for(sim::seconds(1));

  ASSERT_EQ(completed, 5);
  std::vector<Tag> leader_tags;
  std::vector<Tag> follower_tags;
  for (const Execution& e : logs[leader.value()]) leader_tags.push_back(e.tag);
  for (const Execution& e : logs[follower.value()]) follower_tags.push_back(e.tag);
  ASSERT_EQ(leader_tags.size(), 5u);
  EXPECT_EQ(follower_tags, leader_tags) << "the follower ran " << follower_tags.size() << " of 5";
}

/// A Call as the client sends it, for an Order to carry.
net::NetMessage call_message(const Scenario& s, CallId id) {
  net::NetMessage call;
  call.type = net::MsgType::kCall;
  call.id = id;
  call.op = kTagged;
  call.args = tag_buf({0, 0});
  call.server = s.group();
  call.sender = s.client_id(0);
  call.inc = 1;
  call.ackid = id.value();
  return call;
}

/// Order args: the predecessor (none) and `embedded` as one length-prefixed
/// field.
Buffer order_args(const Buffer& embedded) {
  Buffer args;
  Writer w(args);
  w.u64(0);
  w.u64(0);
  w.raw(embedded.bytes());
  return args;
}

// An Order's args are one assignment (16 bytes), or one assignment and a
// length-prefixed Call.  Anything else is dropped and counted as
// malformed, and so is an Order whose Call the follower needs but cannot
// use: bytes that do not decode, a message that is not a Call, or a Call
// with another id or group.  The follower goes on ordering calls.
TEST(TotalOrder, OrderWithMalformedArgsIsDroppedAndCounted) {
  TimedLogs logs;
  Scenario s(order_repair_params(logs));
  const ProcessId follower = Scenario::server_id(0);
  const CallId id = make_call_id(s.client_id(0), first_seq_of_incarnation(1));
  std::vector<Buffer> bad_args;
  for (const std::size_t bytes : std::initializer_list<std::size_t>{0, 7, 17, 32}) {
    bad_args.push_back(Buffer(std::vector<std::byte>(bytes, std::byte{0xff})));
  }
  bad_args.push_back(order_args(Buffer(std::vector<std::byte>(9, std::byte{0xff}))));
  net::NetMessage not_a_call = call_message(s, id);
  not_a_call.type = net::MsgType::kReply;
  bad_args.push_back(order_args(not_a_call.encode()));
  bad_args.push_back(order_args(call_message(s, next_call_id(id)).encode()));
  net::NetMessage other_group = call_message(s, id);
  other_group.server = GroupId{s.group().value() + 1};
  bad_args.push_back(order_args(other_group.encode()));
  for (const Buffer& args : bad_args) {
    net::NetMessage order;
    order.type = net::MsgType::kOrder;
    order.id = id;
    order.server = s.group();
    order.sender = Scenario::server_id(1);
    order.inc = 1;
    order.ackid = 1;
    order.args = args;
    s.client_site(1).grpc().state().endpoint.send(follower, kGrpcProto, order.encode());
  }
  s.run_for(sim::msec(10));
  EXPECT_EQ(s.server(0).grpc().state().malformed.count(), bad_args.size());
  EXPECT_EQ(s.server(0).grpc().total()->old_orders(), 0u) << "a malformed Order taught an order";
  EXPECT_EQ(s.server(0).total_executions(), 0u);

  CallResult result;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    result = co_await c.call(s.group(), kTagged, tag_buf({0, 0}));
  });
  EXPECT_EQ(result.status, Status::kOk);
  EXPECT_EQ(logs[follower.value()].size(), 1u);
}

}  // namespace
}  // namespace ugrpc::core
