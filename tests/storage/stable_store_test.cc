// Unit tests for the simulated stable storage.
#include "storage/stable_store.h"

#include <gtest/gtest.h>

#include <vector>

namespace ugrpc::storage {
namespace {

Buffer make_buf(std::uint32_t v) {
  Buffer b;
  Writer(b).u32(v);
  return b;
}

TEST(StableStore, PutGetRoundTrip) {
  sim::Scheduler sched;
  StableStore store(sched);
  store.put("k", make_buf(7));
  auto v = store.get("k");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, make_buf(7));
}

TEST(StableStore, GetMissingReturnsNullopt) {
  sim::Scheduler sched;
  StableStore store(sched);
  EXPECT_FALSE(store.get("missing").has_value());
}

TEST(StableStore, OverwriteReplacesValue) {
  sim::Scheduler sched;
  StableStore store(sched);
  store.put("k", make_buf(1));
  store.put("k", make_buf(2));
  EXPECT_EQ(*store.get("k"), make_buf(2));
}

TEST(StableStore, CheckpointStoreAndLoad) {
  sim::Scheduler sched;
  StableStore store(sched);
  StableAddress a1 = store.store_checkpoint(make_buf(10));
  StableAddress a2 = store.store_checkpoint(make_buf(20));
  EXPECT_NE(a1, a2);
  EXPECT_EQ(*store.load_checkpoint(a1), make_buf(10));
  EXPECT_EQ(*store.load_checkpoint(a2), make_buf(20));
  EXPECT_EQ(store.checkpoint_count(), 2u);
  EXPECT_EQ(store.checkpoint_bytes(), make_buf(10).size() + make_buf(20).size());
}

TEST(StableStore, ReleaseCheckpointFrees) {
  sim::Scheduler sched;
  StableStore store(sched);
  StableAddress a = store.store_checkpoint(make_buf(10));
  store.release_checkpoint(a);
  EXPECT_FALSE(store.load_checkpoint(a).has_value());
  EXPECT_EQ(store.checkpoint_count(), 0u);
  EXPECT_EQ(store.checkpoint_bytes(), 0u);
}

TEST(StableStore, ReleaseInAnyOrderKeepsTheOthersLoadable) {
  sim::Scheduler sched;
  StableStore store(sched);
  std::vector<StableAddress> addrs;
  for (std::uint32_t i = 1; i <= 5; ++i) addrs.push_back(store.store_checkpoint(make_buf(i)));
  store.release_checkpoint(addrs[2]);
  store.release_checkpoint(addrs[0]);
  store.release_checkpoint(addrs[0]);  // released twice: no-op
  store.release_checkpoint(StableAddress{999});  // never stored: no-op
  EXPECT_EQ(store.checkpoint_count(), 3u);
  EXPECT_EQ(store.checkpoint_bytes(), make_buf(2).size() + make_buf(4).size() + make_buf(5).size());
  EXPECT_FALSE(store.load_checkpoint(addrs[0]).has_value());
  EXPECT_FALSE(store.load_checkpoint(addrs[2]).has_value());
  EXPECT_EQ(*store.load_checkpoint(addrs[1]), make_buf(2));
  EXPECT_EQ(*store.load_checkpoint(addrs[3]), make_buf(4));
  // A store after releases still gets a fresh, loadable address.
  const StableAddress next = store.store_checkpoint(make_buf(6));
  EXPECT_GT(next, addrs[4]);
  store.release_checkpoint(addrs[4]);
  EXPECT_EQ(*store.load_checkpoint(next), make_buf(6));
  EXPECT_EQ(*store.load_checkpoint(addrs[3]), make_buf(4));
  EXPECT_EQ(store.checkpoint_count(), 3u);
}

TEST(StableStore, ReleasingALongChainInOneCallKeepsTheOthersLoadable) {
  // Atomic Execution frees a replaced checkpoint chain with one call: every
  // chain record goes, every other record stays loadable.
  sim::Scheduler sched;
  StableStore store(sched);
  std::vector<StableAddress> chain;
  std::vector<StableAddress> kept;
  for (std::uint32_t i = 1; i <= 200; ++i) {
    const StableAddress a = store.store_checkpoint(make_buf(i));
    (i % 7 == 0 ? kept : chain).push_back(a);
  }
  chain.push_back(StableAddress{999});  // never stored: skipped
  store.release_checkpoints(chain);
  EXPECT_EQ(store.checkpoint_count(), kept.size());
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    EXPECT_FALSE(store.load_checkpoint(chain[i]).has_value());
  }
  for (const StableAddress a : kept) {
    EXPECT_EQ(*store.load_checkpoint(a), make_buf(static_cast<std::uint32_t>(a.value())));
  }
  store.release_checkpoints({});  // an empty chain releases nothing
  EXPECT_EQ(store.checkpoint_count(), kept.size());
}

TEST(StableStore, StableVariables) {
  sim::Scheduler sched;
  StableStore store(sched);
  EXPECT_FALSE(store.var("x").has_value());
  store.set_var("x", 42);
  EXPECT_EQ(*store.var("x"), 42u);
  store.set_var("x", 43);
  EXPECT_EQ(*store.var("x"), 43u);
}

sim::Task<> do_async_checkpoint(StableStore& store, std::optional<StableAddress>& out) {
  out = co_await store.store_checkpoint_async(Buffer{});
}

TEST(StableStore, AsyncCheckpointChargesWriteLatency) {
  sim::Scheduler sched;
  StableStore store(sched);
  store.set_write_latency(sim::msec(5));
  std::optional<StableAddress> addr;
  sched.spawn(do_async_checkpoint(store, addr));
  sched.run();
  EXPECT_EQ(sched.now(), sim::msec(5));
  ASSERT_TRUE(addr.has_value());
  EXPECT_TRUE(store.load_checkpoint(*addr).has_value());
}

}  // namespace
}  // namespace ugrpc::storage
