// Edge cases of the asynchronous call semantics and the CallHandle facade.
#include <gtest/gtest.h>

#include <utility>

#include "core/micro/acceptance.h"
#include "core/scenario.h"

namespace ugrpc::core {
namespace {

constexpr OpId kOp{1};

Buffer num_buf(std::uint64_t v) {
  Buffer b;
  Writer(b).u64(v);
  return b;
}

ScenarioParams async_params() {
  ScenarioParams p;
  p.config = ConfigBuilder().asynchronous().acceptance_limit(kAll).build();
  return p;
}

TEST(AsyncEdge, SecondGetOnSameHandleReturnsWaiting) {
  Scenario s(async_params());
  CallResult first;
  CallResult second;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    CallHandle h = co_await c.call_async(s.group(), kOp, num_buf(1));
    first = co_await h.get();
    // The record was consumed by the first get (paper: the record is
    // removed when the result is retrieved).
    second = co_await h.get();
  });
  EXPECT_EQ(first.status, Status::kOk);
  EXPECT_EQ(second.status, Status::kWaiting);
}

/// Requests the result of call `id` at `site`, as CallHandle::get() does,
/// and notes when the request returned.
sim::Task<> collect(Site& site, GroupId group, CallId id, Status& status, sim::Time& returned_at) {
  UserMessage umsg;
  umsg.id = id;
  umsg.server = group;
  co_await site.grpc().collect(umsg);
  status = umsg.status;
  returned_at = site.scheduler().now();
}

TEST(AsyncEdge, ConcurrentSecondCollectReturnsWaitingAtOnce) {
  // Two fibers request one slow call's result at the same time: the first
  // waits for it, the second is turned away at once instead of waiting on
  // a call only the first will collect.
  ScenarioParams p = async_params();
  p.num_servers = 1;
  p.server_app = [](UserProtocol& user, Site& site) {
    user.set_procedure([&site](OpId, Buffer&) -> sim::Task<> {
      co_await site.scheduler().sleep_for(sim::msec(100));
    });
  };
  Scenario s(std::move(p));
  CallId id;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    id = (co_await c.call_async(s.group(), kOp, num_buf(1))).id();
  });
  const sim::Time asked_at = s.scheduler().now();
  Site& site = s.client_site(0);
  Status first = Status::kTimeout;
  Status second = Status::kTimeout;
  sim::Time first_at = -1;
  sim::Time second_at = -1;
  s.scheduler().spawn(collect(site, s.group(), id, first, first_at), site.domain());
  s.scheduler().spawn(collect(site, s.group(), id, second, second_at), site.domain());
  s.run_for(sim::seconds(1));
  EXPECT_EQ(second, Status::kWaiting);
  EXPECT_EQ(second_at, asked_at);
  EXPECT_EQ(first, Status::kOk);
  EXPECT_GE(first_at, asked_at + sim::msec(100));
  EXPECT_TRUE(site.grpc().state().pRPC.empty()) << "the first request collected the call";
}

TEST(AsyncEdge, BoundedTerminationAppliesToAsyncCalls) {
  ScenarioParams p = async_params();
  p.config.termination_bound = sim::msec(150);
  p.faults.drop_prob = 1.0;
  Scenario s(std::move(p));
  CallResult r;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    CallHandle h = co_await c.call_async(s.group(), kOp, num_buf(1));
    r = co_await h.get();
  });
  EXPECT_EQ(r.status, Status::kTimeout)
      << "the deadline must release a get() blocked on a dead call";
}

TEST(AsyncEdge, ResultsAreRetrievableInAnyOrder) {
  Scenario s(async_params());
  CallResult r_last;
  CallResult r_first;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    CallHandle a = co_await c.call_async(s.group(), kOp, num_buf(10));
    CallHandle b = co_await c.call_async(s.group(), kOp, num_buf(20));
    r_last = co_await b.get();   // newest first
    r_first = co_await a.get();
  });
  EXPECT_EQ(r_last.status, Status::kOk);
  EXPECT_EQ(Reader(r_last.result).u64(), 20u);
  EXPECT_EQ(r_first.status, Status::kOk);
  EXPECT_EQ(Reader(r_first.result).u64(), 10u);
}

TEST(AsyncEdge, DroppedHandleNeverBlocksAndLeavesPeersIntact) {
  Scenario s(async_params());
  CallResult kept;
  CallId dropped_id;
  bool dropped_pending = false;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    CallHandle keep = co_await c.call_async(s.group(), kOp, num_buf(1));
    {
      CallHandle dropped = co_await c.call_async(s.group(), kOp, num_buf(2));
      dropped_id = dropped.id();
      dropped_pending = dropped.pending();
      // `dropped` goes out of scope without get(): must not block or
      // disturb the sibling call.
    }
    kept = co_await keep.get();
  });
  EXPECT_TRUE(dropped_pending);
  EXPECT_NE(dropped_id.value(), 0u);
  EXPECT_EQ(kept.status, Status::kOk);
  EXPECT_EQ(Reader(kept.result).u64(), 1u);
}

TEST(AsyncEdge, MovedFromHandleReportsWaiting) {
  Scenario s(async_params());
  CallResult from_moved;
  CallResult from_target;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    CallHandle a = co_await c.call_async(s.group(), kOp, num_buf(7));
    CallHandle b = std::move(a);
    EXPECT_FALSE(a.pending());  // NOLINT(bugprone-use-after-move): pinned semantics
    from_moved = co_await a.get();
    from_target = co_await b.get();
  });
  EXPECT_EQ(from_moved.status, Status::kWaiting);
  EXPECT_EQ(from_target.status, Status::kOk);
  EXPECT_EQ(Reader(from_target.result).u64(), 7u);
}

TEST(AsyncEdge, AsyncConfigBlocksNobodyOnIssue) {
  ScenarioParams p = async_params();
  p.num_servers = 1;
  p.server_app = [](UserProtocol& user, Site& site) {
    user.set_procedure([&site](OpId, Buffer&) -> sim::Task<> {
      co_await site.scheduler().sleep_for(sim::seconds(1));  // very slow server
    });
  };
  Scenario s(std::move(p));
  int issued = 0;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    const sim::Time t0 = s.scheduler().now();
    for (int i = 0; i < 5; ++i) {
      (void)co_await c.call_async(s.group(), kOp, num_buf(static_cast<unsigned>(i)));
      ++issued;
    }
    EXPECT_EQ(s.scheduler().now(), t0) << "issuing must consume no virtual time";
  });
  EXPECT_EQ(issued, 5);
}

}  // namespace
}  // namespace ugrpc::core
