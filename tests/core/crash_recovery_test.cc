// Crash/recovery tests: server crashes with stable state, Atomic Execution
// rollback (at-most-once of paper Figure 1), and client recovery basics.
//
// The server application used here has *stable* state: a register stored in
// the site's StableStore, updated in two steps with simulated work between
// them.  Without Atomic Execution, a crash between the steps leaves the
// register half-updated (non-atomic).  With Atomic Execution, recovery
// rolls back to the last checkpoint, so every call is all-or-nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <vector>

#include "core/micro/acceptance.h"
#include "core/micro/atomic_execution.h"
#include "core/micro/fifo_order.h"
#include "core/micro/total_order.h"
#include "core/micro/unique_execution.h"
#include "core/scenario.h"

namespace ugrpc::core {
namespace {

constexpr OpId kIncrementBoth{1};

Buffer num_buf(std::uint64_t v) {
  Buffer b;
  Writer(b).u64(v);
  return b;
}

std::uint64_t read_var(storage::StableStore& store, const std::string& key) {
  auto v = store.get(key);
  if (!v.has_value()) return 0;
  return Reader(*v).u64();
}

void write_var(storage::StableStore& store, const std::string& key, std::uint64_t value) {
  store.put(key, num_buf(value));
}

/// Invariant the app maintains: a == b after every complete call.  The
/// procedure increments a, "works" for 10ms, then increments b; a crash in
/// the window breaks the invariant unless execution is atomic.
void two_register_app(UserProtocol& user, Site& site) {
  user.set_procedure([&site](OpId, Buffer& args) -> sim::Task<> {
    write_var(site.stable(), "a", read_var(site.stable(), "a") + 1);
    co_await site.scheduler().sleep_for(sim::msec(10));
    write_var(site.stable(), "b", read_var(site.stable(), "b") + 1);
    args = num_buf(read_var(site.stable(), "b"));
  });
  // Atomic Execution checkpoints whatever these hooks cover -- here, the
  // stable registers themselves.
  user.set_state_hooks(
      [&site]() {
        Buffer snap;
        Writer w(snap);
        w.u64(read_var(site.stable(), "a"));
        w.u64(read_var(site.stable(), "b"));
        return snap;
      },
      [&site](const Buffer& snap) {
        Reader r(snap);
        write_var(site.stable(), "a", r.u64());
        write_var(site.stable(), "b", r.u64());
      });
}

ScenarioParams crash_params(ExecutionMode mode) {
  ScenarioParams p;
  p.num_servers = 1;
  p.config.acceptance_limit = 1;
  p.config.reliable_communication = true;
  p.config.unique_execution = true;
  p.config.retrans_timeout = sim::msec(30);
  p.config.execution = mode;
  p.config.termination_bound = sim::seconds(2);
  p.server_app = two_register_app;
  return p;
}

TEST(CrashRecovery, WithoutAtomicExecutionCrashBreaksAtomicity) {
  Scenario s(crash_params(ExecutionMode::kSerial));
  // Crash the server in the middle of the procedure's a/b window.
  s.scheduler().schedule_after(sim::msec(305), [&] { s.server(0).crash(); });
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    co_await s.scheduler().sleep_for(sim::msec(300));
    (void)co_await c.call(s.group(), kIncrementBoth, num_buf(0));
  });
  storage::StableStore& store = s.server(0).stable();
  EXPECT_EQ(read_var(store, "a"), 1u);
  EXPECT_EQ(read_var(store, "b"), 0u)
      << "crash mid-call must leave the partial write visible without Atomic Execution";
}

TEST(CrashRecovery, AtomicExecutionRollsBackPartialCall) {
  Scenario s(crash_params(ExecutionMode::kSerialAtomic));
  s.scheduler().schedule_after(sim::msec(305), [&] { s.server(0).crash(); });
  s.scheduler().schedule_after(sim::msec(400), [&] { s.server(0).recover(); });
  CallResult result;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    co_await s.scheduler().sleep_for(sim::msec(300));
    result = co_await c.call(s.group(), kIncrementBoth, num_buf(0));
  });
  s.run_for(sim::seconds(1));
  storage::StableStore& store = s.server(0).stable();
  // The retransmitted call re-executed after recovery on the rolled-back
  // state: both registers end consistent.
  EXPECT_EQ(read_var(store, "a"), read_var(store, "b"))
      << "atomic execution must erase the partial first write";
  EXPECT_EQ(read_var(store, "b"), 1u);
  EXPECT_EQ(result.status, Status::kOk);
}

TEST(CrashRecovery, AtMostOnceAcrossCrashNoDoubleExecution) {
  // Crash AFTER a call completed (checkpoint taken, reply possibly lost).
  // The client retransmits; Unique Execution's tables were checkpointed, so
  // the recovered server answers from the stored result instead of
  // re-executing: at-most-once holds across the crash.
  Scenario s(crash_params(ExecutionMode::kSerialAtomic));
  const ProcessId server = Scenario::server_id(0);
  const ProcessId client = s.client_id(0);
  s.network().link(server, client).partitioned = true;  // lose replies+acks path
  s.scheduler().schedule_after(sim::msec(330), [&] { s.server(0).crash(); });
  s.scheduler().schedule_after(sim::msec(380), [&] {
    s.server(0).recover();
    s.network().link(server, client).partitioned = false;
  });
  CallResult result;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    co_await s.scheduler().sleep_for(sim::msec(300));
    result = co_await c.call(s.group(), kIncrementBoth, num_buf(0));
  });
  s.run_for(sim::seconds(1));
  storage::StableStore& store = s.server(0).stable();
  EXPECT_EQ(result.status, Status::kOk);
  EXPECT_EQ(read_var(store, "a"), 1u) << "the retransmitted call must not re-execute";
  EXPECT_EQ(read_var(store, "b"), 1u);
}

TEST(CrashRecovery, WithoutAtomicTablesAreLostAndCallReExecutes) {
  // Same crash-after-completion scenario but only Serial (no Atomic):
  // Unique Execution's volatile tables die with the crash, so the
  // retransmitted call re-executes -- visible as a == b == 2.
  Scenario s(crash_params(ExecutionMode::kSerial));
  const ProcessId server = Scenario::server_id(0);
  const ProcessId client = s.client_id(0);
  s.network().link(server, client).partitioned = true;
  s.scheduler().schedule_after(sim::msec(330), [&] { s.server(0).crash(); });
  s.scheduler().schedule_after(sim::msec(380), [&] {
    s.server(0).recover();
    s.network().link(server, client).partitioned = false;
  });
  CallResult result;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    co_await s.scheduler().sleep_for(sim::msec(300));
    result = co_await c.call(s.group(), kIncrementBoth, num_buf(0));
  });
  s.run_for(sim::seconds(1));
  storage::StableStore& store = s.server(0).stable();
  EXPECT_EQ(result.status, Status::kOk);
  EXPECT_EQ(read_var(store, "a"), 2u) << "stable state persists, tables do not: double execution";
}

TEST(CrashRecovery, CheckpointsAreTakenPerCall) {
  Scenario s(crash_params(ExecutionMode::kSerialAtomic));
  AtomicExecution* atomic = s.server(0).grpc().atomic();
  storage::StableStore& store = s.server(0).stable();
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    for (int i = 0; i < 4; ++i) (void)co_await c.call(s.group(), kIncrementBoth, num_buf(0));
  });
  EXPECT_EQ(atomic->checkpoints_taken(), 4u);
  // Only the live chain (a base and the deltas on it) is stored.
  EXPECT_EQ(store.checkpoint_count(), atomic->chain_length());

  s.run_client(0, [&](Client& c) -> sim::Task<> {
    for (int i = 4; i < 1000; ++i) (void)co_await c.call(s.group(), kIncrementBoth, num_buf(0));
  });
  EXPECT_EQ(atomic->checkpoints_taken(), 1000u);
  EXPECT_EQ(store.checkpoint_count(), atomic->chain_length());
  // Compaction bounds the chain: the deltas since the base add up to less
  // than the base plus the newest record, and replaced chains are freed.
  const auto newest = store.load_checkpoint(storage::StableAddress{*store.var("atomic.current")});
  ASSERT_TRUE(newest.has_value());
  EXPECT_LE(store.checkpoint_bytes(), 2 * atomic->full_snapshot_bytes() + newest->size());
}

/// Same registers as crash_params, plus Total Order (whose position is
/// checkpointed too; it rules out Bounded Termination).
ScenarioParams ordered_crash_params() {
  ScenarioParams p = crash_params(ExecutionMode::kSerialAtomic);
  p.config.ordering = Ordering::kTotal;
  p.config.termination_bound.reset();
  p.seed = 11;
  return p;
}

/// Re-sends the Call message of an already completed call from the client,
/// as a late network duplicate would arrive.
void resend_call(Scenario& s, CallId id) {
  net::NetMessage msg;
  msg.type = net::MsgType::kCall;
  msg.id = id;
  msg.op = kIncrementBoth;
  msg.args = num_buf(0);
  msg.server = s.group();
  msg.sender = s.client_id(0);
  msg.inc = s.client_site(0).incarnation();
  s.client_site(0).grpc().state().net_push(Scenario::server_id(0), msg);
}

/// A participant's encode_state() decoded into its changes, sorted, so two
/// states compare equal whatever order their hash tables iterate in.
using Changes = std::vector<std::vector<std::uint64_t>>;

Buffer encoded_state(const CheckpointParticipant& p) {
  Buffer state;
  Writer w(state);
  p.encode_state(w);
  return state;
}

Changes fifo_changes(const FifoOrder& fifo) {
  const Buffer state = encoded_state(fifo);
  Reader r(state);
  Changes out;
  while (!r.at_end()) {
    const std::uint64_t client = r.u32();
    const std::uint64_t inc = r.u32();
    out.push_back({client, inc, r.u64()});
  }
  std::sort(out.begin(), out.end());
  return out;
}

Changes unique_changes(const UniqueExecution& unique) {
  const Buffer state = encoded_state(unique);
  Reader r(state);
  Changes out;
  while (!r.at_end()) {
    std::vector<std::uint64_t> change{r.u8(), r.u64()};
    if (change[0] == 0) {  // a stored result
      const Buffer result = r.raw();
      change.push_back(Reader(result).u64());
    } else {  // a floor, and the ranges of ids below it not completed
      const std::uint64_t ranges = r.u64();
      change.push_back(ranges);
      for (std::uint64_t i = 0; i < 2 * ranges; ++i) change.push_back(r.u64());
    }
    out.push_back(change);
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool has_result(const UniqueExecution& unique, CallId id) {
  return std::ranges::any_of(unique_changes(unique), [id](const std::vector<std::uint64_t>& c) {
    return c[0] == 0 && c[1] == id.value();
  });
}

struct ServerImage {
  std::size_t old_calls = 0;
  std::size_t stored_results = 0;
  Changes unique;
  std::uint64_t next_entry = 0;
  std::size_t old_orders = 0;
  std::uint64_t orders_assigned = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  bool operator==(const ServerImage&) const = default;
};

ServerImage image_of(Site& server) {
  GrpcComposite& g = server.grpc();
  return ServerImage{g.unique()->old_calls(),      g.unique()->stored_results(),
                     unique_changes(*g.unique()),   g.total()->next_entry(),
                     g.total()->old_orders(),       g.total()->orders_assigned(),
                     read_var(server.stable(), "a"), read_var(server.stable(), "b")};
}

/// Calls until `stop(atomic)` holds right after a call's checkpoint, crashes
/// the server at that instant and recovers it; the sessions, the order
/// position and the registers must come back exactly, and a late
/// duplicate of a completed call must still be suppressed.
void crash_where(const std::function<bool(const AtomicExecution&)>& stop) {
  Scenario s(ordered_crash_params());
  Site& server = s.server(0);
  CallId first;
  bool stopped = false;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    for (int i = 0; i < 500 && !stopped; ++i) {
      const CallResult r = co_await c.call(s.group(), kIncrementBoth, num_buf(0));
      EXPECT_EQ(r.status, Status::kOk);
      if (i == 0) first = r.id;
      stopped = stop(*server.grpc().atomic());
    }
  });
  ASSERT_TRUE(stopped);
  // No message reaches the server between the client's return and the
  // crash, so its volatile state is exactly the last committed record.  Cut
  // the client's link so the acknowledgement already on its way cannot
  // change the recovered tables before they are compared.
  const ServerImage before = image_of(server);
  EXPECT_GT(before.old_calls, 0u);
  EXPECT_GT(before.stored_results, 0u);
  s.network().link(s.client_id(0), Scenario::server_id(0)).partitioned = true;
  server.crash();
  server.recover();
  s.run_for(sim::msec(1));
  EXPECT_EQ(image_of(server), before);
  s.network().link(s.client_id(0), Scenario::server_id(0)).partitioned = false;

  const std::uint64_t executions = server.total_executions();
  const std::uint64_t suppressed = server.grpc().unique()->duplicates_suppressed();
  resend_call(s, first);
  s.run_for(sim::msec(100));
  EXPECT_EQ(server.grpc().unique()->duplicates_suppressed(), suppressed + 1);
  EXPECT_EQ(server.total_executions(), executions) << "a completed call must not re-execute";
  EXPECT_EQ(read_var(server.stable(), "b"), before.b);
}

TEST(CrashRecovery, CrashMidChainRestoresBasePlusDeltas) {
  crash_where([](const AtomicExecution& a) { return a.chain_length() >= 4; });
}

TEST(CrashRecovery, CrashRightAfterNewBaseRestoresIt) {
  // chain_length() == 1 after a call means that call's record was a base.
  crash_where([](const AtomicExecution& a) {
    return a.checkpoints_taken() > 8 && a.chain_length() == 1;
  });
}

TEST(CrashRecovery, CrashDuringDeltaWriteLosesNoEntry) {
  Scenario s(crash_params(ExecutionMode::kSerialAtomic));
  Site& server = s.server(0);
  server.stable().set_write_latency(sim::msec(20));
  // Crash while the 6th call's checkpoint record is being written: its
  // procedure has finished (b == 6) but the record is not yet current.
  bool crashed = false;
  auto watch = [&]() -> sim::Task<> {
    while (read_var(server.stable(), "b") < 6) co_await s.scheduler().sleep_for(sim::msec(1));
    EXPECT_EQ(server.grpc().atomic()->checkpoints_taken(), 5u);
    // Two changes wait for the 6th call's record to be committed: the floor
    // its watermark raised past the 5th call (op + W + a count of 0 missed
    // ranges: 17 bytes) and its stored result (op + id + the length-prefixed
    // 8-byte result: 21 bytes).  A call in progress is not journaled.
    EXPECT_EQ(server.grpc().unique()->journaled().size(), 17u + 21u)
        << "the 6th call's changes wait for its record to be committed";
    server.crash();
    crashed = true;
    s.scheduler().schedule_after(sim::msec(50), [&] { server.recover(); });
  };
  s.scheduler().spawn(watch());
  std::vector<std::uint64_t> results;
  CallId sixth;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    for (int i = 0; i < 10; ++i) {
      const CallResult r = co_await c.call(s.group(), kIncrementBoth, num_buf(0));
      EXPECT_EQ(r.status, Status::kOk);
      if (i == 5) sixth = r.id;
      results.push_back(Reader(r.result).u64());
    }
  });
  ASSERT_TRUE(crashed);
  // The half-checkpointed call was rolled back and re-executed once: every
  // call took effect exactly once, in order.
  EXPECT_EQ(results, std::vector<std::uint64_t>({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
  EXPECT_EQ(read_var(server.stable(), "a"), 10u);
  EXPECT_EQ(read_var(server.stable(), "b"), 10u);

  // The lost record's entry came back with the retransmission and went
  // into a later record: after a second crash all ten calls are still
  // known, nine below the floor the 10th Call raised and the 10th as its
  // entry.
  s.run_for(sim::msec(100));
  // Only the floor from the client's idle ACK is left: no later call wrote a
  // record to hold it.
  EXPECT_EQ(server.grpc().unique()->journaled().size(), 17u);
  server.crash();
  server.recover();
  s.run_for(sim::msec(1));
  EXPECT_EQ(server.grpc().unique()->old_calls(), 1u);
  const std::uint64_t executions = server.total_executions();
  resend_call(s, sixth);
  s.run_for(sim::msec(100));
  EXPECT_EQ(server.total_executions(), executions);
  EXPECT_EQ(read_var(server.stable(), "b"), 10u);
}

TEST(CrashRecovery, DeltaSizeDoesNotGrowWithStoredResults) {
  // An asynchronous call that the client never collects holds its low
  // watermark back, so the server keeps the result of every later call.
  ScenarioParams p = crash_params(ExecutionMode::kSerialAtomic);
  p.config.call = CallSemantics::kAsynchronous;
  Scenario s(std::move(p));
  Site& server = s.server(0);
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    [[maybe_unused]] CallHandle pin = co_await c.call_async(s.group(), kIncrementBoth, num_buf(0));
    for (int i = 0; i < 500 && (server.grpc().unique()->stored_results() < 60 ||
                                server.grpc().atomic()->chain_length() < 2);
         ++i) {
      CallHandle h = co_await c.call_async(s.group(), kIncrementBoth, num_buf(0));
      (void)co_await h.get();
    }
  });
  ASSERT_GE(server.grpc().unique()->stored_results(), 60u);
  ASSERT_GE(server.grpc().atomic()->chain_length(), 2u);
  storage::StableStore& store = server.stable();
  const auto newest = store.load_checkpoint(storage::StableAddress{*store.var("atomic.current")});
  ASSERT_TRUE(newest.has_value());
  // The newest record is a delta holding one call's stored result
  // (kResultStored with its 8-byte result), plus a kFloor if a watermark
  // raised the floor.  Record header, user state and those changes take
  // under 100 bytes; the 60 stored results alone would take 1,200.
  EXPECT_LT(newest->size(), 100u) << "a delta must not carry the stored results whole";
}

TEST(CrashRecovery, CrashBeforeAFloorIsCheckpointedKeepsTheOlderFloor) {
  Scenario s(crash_params(ExecutionMode::kSerialAtomic));
  Site& server = s.server(0);
  // The server's composite is rebuilt on recovery: look it up each time.
  auto unique = [&server]() -> const UniqueExecution& { return *server.grpc().unique(); };
  server.stable().set_write_latency(sim::msec(20));
  // The 6th Call's watermark raised the floor past the 5th call, pruning
  // its entry; crash while the record holding that floor is being written.
  std::vector<CallId> ids;
  bool checked = false;
  auto watch = [&]() -> sim::Task<> {
    while (read_var(server.stable(), "b") < 6) co_await s.scheduler().sleep_for(sim::msec(1));
    const CallId fifth = ids.back();
    EXPECT_FALSE(has_result(unique(), fifth)) << "the 6th Call's floor pruned the 5th";
    server.crash();
    server.recover();
    co_await s.scheduler().sleep_for(sim::msec(1));
    // The committed record's floor and its entry are back: the 5th call's
    // result is stored again, and nothing of the 6th is known.
    EXPECT_EQ(unique().old_calls(), 1u);
    EXPECT_TRUE(has_result(unique(), fifth));
    const std::uint64_t executions = server.total_executions();
    const std::uint64_t suppressed = unique().duplicates_suppressed();
    resend_call(s, fifth);
    co_await s.scheduler().sleep_for(sim::msec(2));
    EXPECT_EQ(unique().duplicates_suppressed(), suppressed + 1);
    EXPECT_EQ(server.total_executions(), executions) << "a completed call must not re-execute";
    checked = true;
  };
  s.scheduler().spawn(watch());
  std::vector<std::uint64_t> results;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    for (int i = 0; i < 8; ++i) {
      const CallResult r = co_await c.call(s.group(), kIncrementBoth, num_buf(0));
      EXPECT_EQ(r.status, Status::kOk);
      ids.push_back(r.id);
      results.push_back(Reader(r.result).u64());
    }
  });
  ASSERT_TRUE(checked);
  EXPECT_EQ(results, std::vector<std::uint64_t>({1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(read_var(server.stable(), "b"), 8u);
}

TEST(CrashRecovery, ChainReplaysStoredAndFreedResults) {
  // Total Order's assignments keep the base growing, so records land as
  // deltas; Unique Execution's own base holds only the unacknowledged call
  // and alone would make every other record a base.
  Scenario s(ordered_crash_params());
  Site& server = s.server(0);
  AtomicExecution& atomic = *server.grpc().atomic();
  // Call pairs until both records of a pair land as deltas on one chain:
  // `freed` is stored by the first record and freed by the second (the
  // second Call's low watermark covers it); `live` is stored by the second
  // and stays, because no later watermark reaches the server: the client
  // makes no further call, and its link is cut before its idle ACK leaves.
  CallId freed;
  CallId live;
  bool ready = false;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    for (int i = 0; i < 200 && !ready; ++i) {
      freed = (co_await c.call(s.group(), kIncrementBoth, num_buf(0))).id;
      const std::size_t chain_after_freed = atomic.chain_length();
      live = (co_await c.call(s.group(), kIncrementBoth, num_buf(0))).id;
      ready = chain_after_freed >= 2 && atomic.chain_length() == chain_after_freed + 1;
    }
  });
  ASSERT_TRUE(ready);
  s.network().link(s.client_id(0), Scenario::server_id(0)).partitioned = true;
  ASSERT_FALSE(has_result(*server.grpc().unique(), freed));
  ASSERT_TRUE(has_result(*server.grpc().unique(), live));
  const Changes before = unique_changes(*server.grpc().unique());

  server.crash();
  server.recover();
  s.run_for(sim::msec(1));
  EXPECT_EQ(unique_changes(*server.grpc().unique()), before);
  EXPECT_FALSE(has_result(*server.grpc().unique(), freed));
  EXPECT_TRUE(has_result(*server.grpc().unique(), live));
  s.network().link(s.client_id(0), Scenario::server_id(0)).partitioned = false;

  // A duplicate of the live call is answered from its stored result: the
  // client's idle ACK then covers that answer, which frees the result again.
  const std::uint64_t executions = server.total_executions();
  const std::uint64_t suppressed = server.grpc().unique()->duplicates_suppressed();
  resend_call(s, live);
  s.run_for(sim::msec(100));
  EXPECT_EQ(server.total_executions(), executions) << "a completed call must not re-execute";
  EXPECT_EQ(server.grpc().unique()->duplicates_suppressed(), suppressed + 1);
  EXPECT_FALSE(has_result(*server.grpc().unique(), live));
}

TEST(CrashRecovery, UniqueOnlyChainRestoresSessions) {
  // Unique Execution is the only participant: a base holds the floor and
  // the unacknowledged call's result, no smaller than a delta holding the
  // next call's floor and result, so every other record is a base.
  Scenario s(crash_params(ExecutionMode::kSerialAtomic));
  Site& server = s.server(0);
  const AtomicExecution& atomic = *server.grpc().atomic();
  const std::uint64_t records_before = atomic.checkpoints_taken();
  std::uint64_t calls = 0;
  std::uint64_t bases = 0;
  CallId last;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    while (calls < 20 || atomic.chain_length() < 2) {
      last = (co_await c.call(s.group(), kIncrementBoth, num_buf(0))).id;
      ++calls;
      if (atomic.chain_length() == 1) ++bases;
    }
  });
  EXPECT_EQ(atomic.checkpoints_taken() - records_before, calls) << "one record per call";
  EXPECT_EQ(bases, calls / 2) << "bases and deltas alternate, from a delta on the baseline";
  // Crash on a delta: the base and the delta replay to the same sessions.
  s.network().link(s.client_id(0), Scenario::server_id(0)).partitioned = true;
  const Changes before = unique_changes(*server.grpc().unique());
  ASSERT_TRUE(has_result(*server.grpc().unique(), last));
  server.crash();
  server.recover();
  s.run_for(sim::msec(1));
  EXPECT_EQ(unique_changes(*server.grpc().unique()), before);
  EXPECT_EQ(read_var(server.stable(), "b"), calls);
  s.network().link(s.client_id(0), Scenario::server_id(0)).partitioned = false;

  const std::uint64_t executions = server.total_executions();
  const std::uint64_t suppressed = server.grpc().unique()->duplicates_suppressed();
  resend_call(s, last);
  s.run_for(sim::msec(100));
  EXPECT_EQ(server.total_executions(), executions) << "a completed call must not re-execute";
  EXPECT_EQ(server.grpc().unique()->duplicates_suppressed(), suppressed + 1);
}

TEST(CrashRecovery, MissedRangesSurviveACrash) {
  Scenario s(crash_params(ExecutionMode::kSerialAtomic));
  Site& server = s.server(0);
  CallId last;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    last = (co_await c.call(s.group(), kIncrementBoth, num_buf(0))).id;
  });
  // A Call 100 ids ahead, carrying its own id as W, lifts the floor past
  // 99 ids never seen here, as if their Calls were still in the network.
  auto send = [&](CallId id, CallId w) {
    net::NetMessage msg;
    msg.type = net::MsgType::kCall;
    msg.id = id;
    msg.op = kIncrementBoth;
    msg.args = num_buf(0);
    msg.server = s.group();
    msg.sender = s.client_id(0);
    msg.inc = s.client_site(0).incarnation();
    msg.ackid = w.value();
    s.client_site(0).grpc().state().net_push(Scenario::server_id(0), msg);
  };
  const CallId ahead{last.value() + 100};
  send(ahead, ahead);
  s.run_for(sim::msec(100));
  const Changes before = unique_changes(*server.grpc().unique());
  ASSERT_EQ(read_var(server.stable(), "b"), 2u);
  server.crash();
  server.recover();
  s.run_for(sim::msec(1));
  EXPECT_EQ(unique_changes(*server.grpc().unique()), before) << "the floor and its missed range";

  // A never-seen id below the floor runs once; a completed one does not.
  const CallId missed = next_call_id(last);
  for (CallId id : {missed, missed, last}) send(id, last);
  s.run_for(sim::msec(100));
  EXPECT_EQ(read_var(server.stable(), "b"), 3u);
  EXPECT_EQ(server.grpc().unique()->duplicates_suppressed(), 2u);
}

TEST(CrashRecovery, NoJournalWithoutAtomicExecution) {
  ScenarioParams p;
  p.config = ConfigBuilder::exactly_once().build();
  Scenario s(std::move(p));
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    for (int i = 0; i < 1000; ++i) (void)co_await c.call(s.group(), OpId{1}, num_buf(i));
  });
  // The client returns once its acceptance is met; the last Call to a slower
  // server may still be in flight, so let it land before counting.
  s.run_for(sim::msec(100));
  for (int i = 0; i < s.num_servers(); ++i) {
    GrpcComposite& g = s.server(i).grpc();
    ASSERT_EQ(g.atomic(), nullptr);
    EXPECT_EQ(g.unique()->old_calls(), 0u) << "the idle ACK's floor covers every call";
    EXPECT_TRUE(g.unique()->journaled().empty()) << "nothing checkpoints, so nothing may pile up";
  }
}

/// A server with a chain of a base and at least two deltas, crashed.  (Its
/// params must include Total Order, whose growing base lets deltas pile up.)
void crashed_with_chain(Scenario& s) {
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    while (s.server(0).grpc().atomic()->chain_length() < 3) {
      (void)co_await c.call(s.group(), kIncrementBoth, num_buf(0));
    }
  });
  s.server(0).crash();
}

TEST(CrashRecoveryDeathTest, ChainWithReleasedBaseIsRejected) {
  Scenario s(ordered_crash_params());
  crashed_with_chain(s);
  storage::StableStore& store = s.server(0).stable();
  const storage::StableAddress newest{*store.var("atomic.current")};
  const auto chain = AtomicExecution::load_chain(store, newest);
  ASSERT_GE(chain.size(), 3u);
  store.release_checkpoint(chain.front().addr);
  EXPECT_DEATH((void)AtomicExecution::load_chain(store, newest), "record missing");
  EXPECT_DEATH(
      {
        s.server(0).recover();
        s.run_for(sim::msec(1));
      },
      "record missing");
}

TEST(CrashRecoveryDeathTest, TruncatedDeltaIsRejected) {
  Scenario s(ordered_crash_params());
  crashed_with_chain(s);
  storage::StableStore& store = s.server(0).stable();
  const storage::StableAddress newest{*store.var("atomic.current")};
  const Buffer record = *store.load_checkpoint(newest);
  for (std::size_t keep : {record.size() - 1, std::size_t{5}, std::size_t{0}}) {
    Buffer cut;
    cut.append(record.bytes().subspan(0, keep));
    const storage::StableAddress addr = store.store_checkpoint(cut);
    store.set_var("atomic.current", addr.value());
    EXPECT_DEATH((void)AtomicExecution::load_chain(store, addr), "truncated record");
  }
  EXPECT_DEATH(
      {
        s.server(0).recover();
        s.run_for(sim::msec(1));
      },
      "truncated record");
}

/// Rewrites the newest record of a crashed server's chain with the first
/// byte of participant `index`'s part -- the op of its first change -- set
/// to an op that does not exist; recovery must reject the record.
void expect_bad_op_rejected(ScenarioParams params, std::size_t index) {
  Scenario s(std::move(params));
  crashed_with_chain(s);
  storage::StableStore& store = s.server(0).stable();
  const auto chain =
      AtomicExecution::load_chain(store, storage::StableAddress{*store.var("atomic.current")});
  const AtomicExecution::ChainRecord& newest = chain.back();
  ASSERT_LT(index, newest.parts.size());
  Buffer part = newest.parts[index];
  ASSERT_FALSE(part.empty());
  part.overwrite(0, std::array{std::byte{0x7f}});
  Buffer record;
  Writer w(record);
  w.u64(chain[chain.size() - 2].addr.value());
  w.raw(newest.user_state.bytes());
  w.u32(static_cast<std::uint32_t>(newest.parts.size()));
  for (std::size_t i = 0; i < newest.parts.size(); ++i) {
    w.raw(i == index ? part.bytes() : newest.parts[i].bytes());
  }
  store.set_var("atomic.current", store.store_checkpoint(record).value());
  EXPECT_DEATH(
      {
        s.server(0).recover();
        s.run_for(sim::msec(1));
      },
      "corrupt participant state");
}

TEST(CrashRecoveryDeathTest, CorruptJournalOpIsRejected) {
  // Participants come in assembly order: Unique Execution, then Total Order.
  expect_bad_op_rejected(ordered_crash_params(), 0);
  expect_bad_op_rejected(ordered_crash_params(), 1);
}

TEST(CrashRecovery, CrashBeforeFirstReplyRestoresBaselineOfEveryParticipant) {
  // The baseline record is written before any call, so it must already
  // hold a part for every participant, the ordering protocols included.
  for (const Ordering ordering : {Ordering::kFifo, Ordering::kTotal}) {
    ScenarioParams p = crash_params(ExecutionMode::kSerialAtomic);
    p.config.ordering = ordering;
    p.config.termination_bound.reset();  // Total Order rules it out
    Scenario s(std::move(p));
    // The first call's procedure runs from about 300 ms for 10 ms.
    s.scheduler().schedule_after(sim::msec(305), [&] { s.server(0).crash(); });
    s.scheduler().schedule_after(sim::msec(400), [&] { s.server(0).recover(); });
    std::vector<std::uint64_t> results;
    s.run_client(0, [&](Client& c) -> sim::Task<> {
      co_await s.scheduler().sleep_for(sim::msec(300));
      for (int i = 0; i < 3; ++i) {
        const CallResult r = co_await c.call(s.group(), kIncrementBoth, num_buf(0));
        EXPECT_EQ(r.status, Status::kOk);
        results.push_back(Reader(r.result).u64());
      }
    });
    EXPECT_EQ(results, std::vector<std::uint64_t>({1, 2, 3}))
        << "ordering " << static_cast<int>(ordering);
    EXPECT_EQ(s.server(0).incarnation(), 2u);
  }
}

TEST(CrashRecovery, RecordHoldsTheStreamStartOfACallNotYetExecuted) {
  ScenarioParams p = crash_params(ExecutionMode::kSerialAtomic);
  p.config.ordering = Ordering::kFifo;
  p.num_clients = 2;
  Scenario s(std::move(p));
  Site& server = s.server(0);
  // Client 1's first call arrives while client 0's runs its 10 ms procedure,
  // and waits for the serial token: client 0's record is written while
  // client 1's stream has started but none of its calls has executed.
  CallResult late;
  auto late_caller = [&](Client& c) -> sim::Task<> {
    co_await s.scheduler().sleep_for(sim::msec(302));
    late = co_await c.call(s.group(), kIncrementBoth, num_buf(0));
  };
  s.scheduler().spawn(late_caller(s.client(1)), s.client_site(1).domain());
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    co_await s.scheduler().sleep_for(sim::msec(300));
    EXPECT_EQ((co_await c.call(s.group(), kIncrementBoth, num_buf(0))).status, Status::kOk);
  });
  // Client 0's record is committed and is a delta on the baseline.  No
  // table has changed since: client 1's call is executing, and no message
  // reaches the server before the links are cut.
  ASSERT_EQ(server.grpc().atomic()->chain_length(), 2u);
  const Changes fifo_before = fifo_changes(*server.grpc().fifo());
  const Changes unique_before = unique_changes(*server.grpc().unique());
  ASSERT_EQ(fifo_before.size(), 2u) << "both clients' streams have started";
  for (int i = 0; i < 2; ++i) {
    s.network().link(s.client_id(i), Scenario::server_id(0)).partitioned = true;
  }
  server.crash();
  server.recover();
  s.run_for(sim::msec(1));
  EXPECT_EQ(fifo_changes(*server.grpc().fifo()), fifo_before);
  EXPECT_EQ(unique_changes(*server.grpc().unique()), unique_before);

  // Client 1's call never ran in the restored state, so the record must
  // not mark it seen: its retransmission executes it, once.
  for (int i = 0; i < 2; ++i) {
    s.network().link(s.client_id(i), Scenario::server_id(0)).partitioned = false;
  }
  s.run_for(sim::seconds(1));
  EXPECT_EQ(late.status, Status::kOk);
  EXPECT_EQ(read_var(server.stable(), "b"), 2u);
}

TEST(CrashRecovery, ServerGroupMasksSingleCrash) {
  // 3 servers, acceptance 1: one server crashing mid-call is invisible to
  // the client.
  ScenarioParams p;
  p.num_servers = 3;
  p.config.acceptance_limit = 1;
  p.config.reliable_communication = true;
  p.config.unique_execution = true;
  Scenario s(std::move(p));
  s.scheduler().schedule_after(sim::msec(100), [&] { s.server(0).crash(); });
  int ok = 0;
  s.run_client(0, [&](Client& c) -> sim::Task<> {
    for (int i = 0; i < 10; ++i) {
      co_await s.scheduler().sleep_for(sim::msec(30));
      const CallResult r = co_await c.call(s.group(), OpId{1}, num_buf(1));
      if (r.ok()) ++ok;
    }
  });
  EXPECT_EQ(ok, 10);
}

TEST(CrashRecovery, ClientIncarnationIncrementsOnRecovery) {
  ScenarioParams p;
  p.config.acceptance_limit = 1;
  Scenario s(std::move(p));
  Site& client_site = s.client_site(0);
  EXPECT_EQ(client_site.incarnation(), 1u);
  client_site.crash();
  client_site.recover();
  s.run_for(sim::msec(10));
  EXPECT_EQ(client_site.incarnation(), 2u);
  EXPECT_EQ(client_site.grpc().state().inc_number, 2u);
  // The recovered client can still make calls.
  Client fresh(client_site);
  CallResult result;
  auto driver = [&](Client& c) -> sim::Task<> {
    result = co_await c.call(s.group(), OpId{1}, num_buf(1));
  };
  s.scheduler().spawn(driver(fresh), client_site.domain());
  s.run_until_quiescent();
  EXPECT_EQ(result.status, Status::kOk);
}

}  // namespace
}  // namespace ugrpc::core
