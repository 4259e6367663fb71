// Checker unit tests against hand-crafted traces (satellite of ISSUE 3):
// every invariant has at least one violating trace the checker must flag
// and a near-miss positive control it must pass.  The campaigns
// (fault_campaign_test.cc) only prove "no false positives on real runs";
// these traces prove the checker actually detects violations.
#include <gtest/gtest.h>

#include <chrono>
#include <utility>
#include <vector>

#include "obs/checker.h"
#include "obs/trace.h"

namespace ugrpc::obs {
namespace {

constexpr ProcessId kClient{10};
constexpr ProcessId kServer{1};
constexpr ProcessId kServer2{2};

/// Builds a sequence-ordered event vector without a Tracer.
struct TraceBuilder {
  std::vector<Event> events;
  std::uint64_t seq = 1;

  TraceBuilder& add(ProcessId site, sim::Time t, Kind kind, std::uint64_t call = 0,
                    std::uint64_t a = 0, std::uint64_t b = 0) {
    Event e;
    e.seq = seq++;
    e.time = t;
    e.site = site;
    e.kind = kind;
    e.call = call;
    e.a = a;
    e.b = b;
    events.push_back(e);
    return *this;
  }
};

Expect expect_all() {
  Expect x;
  x.unique_execution = true;
  x.atomic_execution = true;
  x.termination_bound = sim::seconds(1);
  x.fifo_order = true;
  x.total_order = true;
  x.terminate_orphans = true;
  return x;
}

TEST(Checker, CleanCallPassesEveryInvariant) {
  TraceBuilder t;
  t.add(kClient, sim::usec(0), Kind::kCallIssued, 1, /*group=*/1, /*client inc=*/1)
      .add(kServer, sim::usec(10), Kind::kExecStarted, 1, kClient.value(), 1)
      .add(kServer, sim::usec(20), Kind::kExecCommitted, 1, kClient.value(), 1)
      .add(kClient, sim::usec(30), Kind::kCallCompleted, 1, /*status=*/0);
  const Report r = check(t.events, expect_all());
  EXPECT_TRUE(r.ok()) << r.brief();
  EXPECT_EQ(r.checked.size(), 6u);
  EXPECT_EQ(r.summary.calls_issued, 1u);
  EXPECT_EQ(r.summary.calls_ok, 1u);
  EXPECT_EQ(r.summary.execs_committed, 1u);
  EXPECT_EQ(r.summary.duplicate_commits, 0u);
  EXPECT_EQ(r.summary.max_call_latency, sim::usec(30));
}

TEST(Checker, DuplicateCommitViolatesUniqueExecution) {
  TraceBuilder t;
  t.add(kClient, 0, Kind::kCallIssued, 1)
      .add(kServer, 10, Kind::kExecStarted, 1, kClient.value(), 1)
      .add(kServer, 20, Kind::kExecCommitted, 1, kClient.value(), 1)
      .add(kServer, 30, Kind::kExecStarted, 1, kClient.value(), 1)
      .add(kServer, 40, Kind::kExecCommitted, 1, kClient.value(), 1)
      .add(kClient, 50, Kind::kCallCompleted, 1, 0);
  Expect x;
  x.unique_execution = true;
  const Report r = check(t.events, x);
  EXPECT_EQ(r.count(Invariant::kUniqueExecution), 1u);
  EXPECT_EQ(r.summary.duplicate_commits, 1u);
  // The same trace is legal for an at-least-once stack.
  EXPECT_TRUE(check(t.events, Expect{}).ok());
}

TEST(Checker, ReExecutionAcrossCrashIsLegalWithoutAtomic) {
  // Exactly-once (unique, non-atomic): duplicate tables are volatile, so a
  // crash+recovery may re-execute a call.  Unique is scoped per server
  // incarnation -- no violation.  At-most-once (atomic) checkpoints the
  // tables, so the same trace violates unique execution.
  TraceBuilder t;
  t.add(kClient, 0, Kind::kCallIssued, 1)
      .add(kServer, 10, Kind::kExecStarted, 1, kClient.value(), 1)
      .add(kServer, 20, Kind::kExecCommitted, 1, kClient.value(), 1)
      .add(kServer, 30, Kind::kSiteCrashed, 0, /*inc=*/1)
      .add(kServer, 40, Kind::kSiteRecovered, 0, /*inc=*/2)
      .add(kServer, 50, Kind::kExecStarted, 1, kClient.value(), 1)
      .add(kServer, 60, Kind::kExecCommitted, 1, kClient.value(), 1)
      .add(kClient, 70, Kind::kCallCompleted, 1, 0);
  Expect exactly_once;
  exactly_once.unique_execution = true;
  EXPECT_TRUE(check(t.events, exactly_once).ok());
  EXPECT_EQ(check(t.events, exactly_once).summary.duplicate_commits, 1u);

  Expect at_most_once = exactly_once;
  at_most_once.atomic_execution = true;
  EXPECT_EQ(check(t.events, at_most_once).count(Invariant::kUniqueExecution), 1u);
}

TEST(Checker, CommitWithoutStartViolatesAtomic) {
  // A commit in incarnation 2 for an execution started in incarnation 1:
  // the partial execution survived the crash instead of being rolled back.
  TraceBuilder t;
  t.add(kClient, 0, Kind::kCallIssued, 1)
      .add(kServer, 10, Kind::kExecStarted, 1, kClient.value(), 1)
      .add(kServer, 20, Kind::kSiteCrashed, 0, 1)
      .add(kServer, 30, Kind::kSiteRecovered, 0, 2)
      .add(kServer, 35, Kind::kStateRestored, 0, 1)
      .add(kServer, 40, Kind::kExecCommitted, 1, kClient.value(), 1);
  Expect x;
  x.atomic_execution = true;
  const Report r = check(t.events, x);
  EXPECT_EQ(r.count(Invariant::kAtomicExecution), 1u);
}

TEST(Checker, CommitBeforeRollbackAfterInterruptedExecutionViolatesAtomic) {
  // Crash interrupts call 1 mid-execution; the recovered incarnation must
  // restore state before committing anything else.
  TraceBuilder bad;
  bad.add(kClient, 0, Kind::kCallIssued, 1)
      .add(kClient, 0, Kind::kCallIssued, 2)
      .add(kServer, 10, Kind::kExecStarted, 1, kClient.value(), 1)
      .add(kServer, 20, Kind::kSiteCrashed, 0, 1)
      .add(kServer, 30, Kind::kSiteRecovered, 0, 2)
      .add(kServer, 40, Kind::kExecStarted, 2, kClient.value(), 1)
      .add(kServer, 50, Kind::kExecCommitted, 2, kClient.value(), 1);
  Expect x;
  x.atomic_execution = true;
  EXPECT_EQ(check(bad.events, x).count(Invariant::kAtomicExecution), 1u);

  // Positive control: the same history with a rollback first is clean.
  TraceBuilder good;
  good.add(kClient, 0, Kind::kCallIssued, 1)
      .add(kClient, 0, Kind::kCallIssued, 2)
      .add(kServer, 10, Kind::kExecStarted, 1, kClient.value(), 1)
      .add(kServer, 20, Kind::kSiteCrashed, 0, 1)
      .add(kServer, 30, Kind::kSiteRecovered, 0, 2)
      .add(kServer, 35, Kind::kStateRestored, 0, 1)
      .add(kServer, 40, Kind::kExecStarted, 2, kClient.value(), 1)
      .add(kServer, 50, Kind::kExecCommitted, 2, kClient.value(), 1);
  EXPECT_TRUE(check(good.events, x).ok());
}

TEST(Checker, OrphanKillIsNotACrashInterruptedExecution) {
  // Terminate Orphans deliberately abandons an execution; a later crash
  // must not demand a rollback for it.
  TraceBuilder t;
  t.add(kClient, 0, Kind::kCallIssued, 1)
      .add(kServer, 10, Kind::kExecStarted, 1, kClient.value(), 1)
      .add(kServer, 20, Kind::kOrphanKilled, 0, kClient.value(), /*fiber=*/7)
      .add(kServer, 30, Kind::kSiteCrashed, 0, 1)
      .add(kServer, 40, Kind::kSiteRecovered, 0, 2)
      .add(kServer, 50, Kind::kExecStarted, 1, kClient.value(), 2)
      .add(kServer, 60, Kind::kExecCommitted, 1, kClient.value(), 2);
  Expect x;
  x.atomic_execution = true;
  EXPECT_TRUE(check(t.events, x).ok());
  EXPECT_EQ(check(t.events, x).summary.orphans_killed, 1u);
}

TEST(Checker, LateCompletionViolatesBoundedTermination) {
  TraceBuilder t;
  t.add(kClient, sim::usec(0), Kind::kCallIssued, 1)
      .add(kClient, sim::msec(500), Kind::kCallCompleted, 1, /*status=*/2);
  Expect x;
  x.termination_bound = sim::msec(100);
  const Report r = check(t.events, x);
  EXPECT_EQ(r.count(Invariant::kBoundedTermination), 1u);
  // Within the bound (plus slack) is fine.
  x.termination_bound = sim::msec(500);
  EXPECT_TRUE(check(t.events, x).ok());
}

TEST(Checker, NeverCompletedCallViolatesBoundedTermination) {
  TraceBuilder t;
  t.add(kClient, sim::usec(0), Kind::kCallIssued, 1)
      .add(kServer, sim::seconds(10), Kind::kMsgDelivered);  // trace extends past the deadline
  Expect x;
  x.termination_bound = sim::msec(100);
  EXPECT_EQ(check(t.events, x).count(Invariant::kBoundedTermination), 1u);
}

TEST(Checker, BoundedTerminationExemptions) {
  Expect x;
  x.termination_bound = sim::msec(100);
  // Exemption 1: the trace ends before the deadline -- no verdict possible.
  TraceBuilder truncated;
  truncated.add(kClient, sim::usec(0), Kind::kCallIssued, 1)
      .add(kClient, sim::msec(50), Kind::kMsgSent);
  EXPECT_TRUE(check(truncated.events, x).ok());
  // Exemption 2: the client crashed after issuing -- nobody is waiting.
  TraceBuilder crashed;
  crashed.add(kClient, sim::usec(0), Kind::kCallIssued, 1)
      .add(kClient, sim::msec(10), Kind::kSiteCrashed, 0, 1)
      .add(kServer, sim::seconds(10), Kind::kMsgDelivered);
  EXPECT_TRUE(check(crashed.events, x).ok());
}

TEST(Checker, OutOfOrderStartViolatesFifo) {
  // Same client incarnation, same server incarnation: call 5 starts before
  // call 3 of the same stream.
  TraceBuilder t;
  t.add(kServer, 10, Kind::kExecStarted, 5, kClient.value(), /*client inc=*/1)
      .add(kServer, 20, Kind::kExecStarted, 3, kClient.value(), 1);
  Expect x;
  x.fifo_order = true;
  EXPECT_EQ(check(t.events, x).count(Invariant::kFifoOrder), 1u);

  // A new client incarnation restarts the stream: not a violation.
  TraceBuilder restart;
  restart.add(kServer, 10, Kind::kExecStarted, 5, kClient.value(), 1)
      .add(kServer, 20, Kind::kExecStarted, 3, kClient.value(), /*client inc=*/2);
  EXPECT_TRUE(check(restart.events, x).ok());
}

TEST(Checker, OppositeExecutionOrdersViolateTotalOrder) {
  TraceBuilder t;
  t.add(kServer, 10, Kind::kExecStarted, 1, kClient.value(), 1)
      .add(kServer, 20, Kind::kExecStarted, 2, kClient.value(), 1)
      .add(kServer2, 30, Kind::kExecStarted, 2, kClient.value(), 1)
      .add(kServer2, 40, Kind::kExecStarted, 1, kClient.value(), 1);
  Expect x;
  x.total_order = true;
  EXPECT_EQ(check(t.events, x).count(Invariant::kTotalOrder), 1u);

  // Same order at both sites: clean (restarts by retransmission dedup'd).
  TraceBuilder same;
  same.add(kServer, 10, Kind::kExecStarted, 1, kClient.value(), 1)
      .add(kServer, 20, Kind::kExecStarted, 2, kClient.value(), 1)
      .add(kServer2, 30, Kind::kExecStarted, 1, kClient.value(), 1)
      .add(kServer2, 35, Kind::kExecStarted, 1, kClient.value(), 1)  // re-delivery
      .add(kServer2, 40, Kind::kExecStarted, 2, kClient.value(), 1);
  EXPECT_TRUE(check(same.events, x).ok());
}

TEST(Checker, TotalOrderCheckIsLinearInTheHistory) {
  // 100k calls started and committed at three sites in one order, except
  // that site 2 swaps one pair and site 3 never runs the pair's first call:
  // exactly one pair of sites disagrees, once.
  constexpr std::uint64_t kCalls = 100'000;
  constexpr std::uint64_t kSwapped = kCalls / 2;
  constexpr ProcessId kServer3{3};
  TraceBuilder t;
  t.events.reserve(6 * kCalls);
  for (const ProcessId site : {kServer, kServer2, kServer3}) {
    for (std::uint64_t i = 1; i <= kCalls; ++i) {
      std::uint64_t call = i;
      if (site == kServer2 && (i == kSwapped || i == kSwapped + 1)) {
        call = i == kSwapped ? kSwapped + 1 : kSwapped;
      }
      if (site == kServer3 && call == kSwapped) continue;
      const auto time = static_cast<sim::Time>(i);
      t.add(site, time, Kind::kExecStarted, call, kClient.value(), 1)
          .add(site, time, Kind::kExecCommitted, call, kClient.value(), 1);
    }
  }
  Expect x;
  x.total_order = true;
  const auto start = std::chrono::steady_clock::now();
  const Report r = check(t.events, x);
  [[maybe_unused]] const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - start;
  EXPECT_EQ(r.count(Invariant::kTotalOrder), 1u) << r.brief();
  EXPECT_EQ(r.summary.execs_started, 3 * kCalls - 1);
#if !defined(__SANITIZE_ADDRESS__)
  // A pass quadratic in the calls per site takes seconds here.
  EXPECT_LT(took.count(), 2.0);
#endif
}

TEST(Checker, SurvivingOrphanCommitViolatesOrphanTermination) {
  // Client incarnation 2 already started executing at the site; a leftover
  // execution of incarnation 1 then commits -- the orphan interfered.
  TraceBuilder t;
  t.add(kServer, 10, Kind::kExecStarted, 1, kClient.value(), /*client inc=*/1)
      .add(kServer, 20, Kind::kExecStarted, 2, kClient.value(), /*client inc=*/2)
      .add(kServer, 30, Kind::kExecCommitted, 2, kClient.value(), 2)
      .add(kServer, 40, Kind::kExecCommitted, 1, kClient.value(), 1);
  Expect x;
  x.terminate_orphans = true;
  EXPECT_EQ(check(t.events, x).count(Invariant::kOrphanTermination), 1u);

  // Committing before the new incarnation appears is fine.
  TraceBuilder good;
  good.add(kServer, 10, Kind::kExecStarted, 1, kClient.value(), 1)
      .add(kServer, 20, Kind::kExecCommitted, 1, kClient.value(), 1)
      .add(kServer, 30, Kind::kExecStarted, 2, kClient.value(), 2)
      .add(kServer, 40, Kind::kExecCommitted, 2, kClient.value(), 2);
  EXPECT_TRUE(check(good.events, x).ok());
}

TEST(Checker, SummaryCountsEvidence) {
  TraceBuilder t;
  t.add(kClient, 0, Kind::kCallIssued, 1)
      .add(kClient, 5, Kind::kRetransmit, 1, kServer.value())
      .add(kServer, 10, Kind::kExecStarted, 1, kClient.value(), 1)
      .add(kServer, 15, Kind::kDupSuppressed, 1)
      .add(kServer, 20, Kind::kExecCommitted, 1, kClient.value(), 1)
      .add(kServer, 25, Kind::kCheckpoint, 0, 3)
      .add(kClient, 30, Kind::kCallCompleted, 1, 0)
      .add(kServer, 40, Kind::kSiteCrashed, 0, 1)
      .add(kServer, 50, Kind::kSiteRecovered, 0, 2);
  const Summary s = summarize(t.events);
  EXPECT_EQ(s.calls_issued, 1u);
  EXPECT_EQ(s.calls_completed, 1u);
  EXPECT_EQ(s.retransmissions, 1u);
  EXPECT_EQ(s.duplicates_suppressed, 1u);
  EXPECT_EQ(s.checkpoints, 1u);
  EXPECT_EQ(s.crashes, 1u);
  EXPECT_EQ(s.recoveries, 1u);
}

TEST(Checker, BriefNamesCheckedInvariants) {
  Expect x;
  x.unique_execution = true;
  const Report r = check({}, x);
  EXPECT_EQ(r.brief(), "0 violations (unique-execution checked)");
  EXPECT_EQ(check({}, Expect{}).brief(), "0 violations (nothing checked)");
}

}  // namespace
}  // namespace ugrpc::obs
