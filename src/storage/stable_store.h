// Simulated stable storage.
//
// The paper's Atomic Execution micro-protocol assumes `checkpoint()` /
// `load(address)` operations against storage that survives crashes, plus
// "stable variables" whose assignment is atomic.  StableStore models exactly
// that: one instance per site, owned by the Site object *outside* the
// volatile protocol stack, so Site::crash() destroys the stack but leaves the
// store intact.  An optional per-write latency (set_write_latency, 0 by
// default) charges virtual time for checkpointing, which the benchmarks use
// to show the cost of atomic execution.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/assert.h"
#include "common/buffer.h"
#include "sim/scheduler.h"
#include "sim/task.h"
#include "sim/time.h"

namespace ugrpc::storage {

/// Address of a stored checkpoint (paper: "address of the storage location").
struct StableAddressTag {};
using StableAddress = ugrpc::detail::TaggedId<StableAddressTag, std::uint64_t>;

class StableStore {
 public:
  explicit StableStore(sim::Scheduler& sched) : sched_(sched) {}

  StableStore(const StableStore&) = delete;
  StableStore& operator=(const StableStore&) = delete;

  // ---- raw key/value area (server applications with stable state) ----
  void put(const std::string& key, Buffer value) { kv_[key] = std::move(value); }
  [[nodiscard]] std::optional<Buffer> get(const std::string& key) const {
    auto it = kv_.find(key);
    if (it == kv_.end()) return std::nullopt;
    return it->second;
  }

  // ---- checkpoint area (Atomic Execution) ----

  /// Writes a checkpoint, returning its address.  Old checkpoints are kept
  /// until released; the caller implements the old/new switch-over.
  [[nodiscard]] StableAddress store_checkpoint(Buffer snapshot) {
    const StableAddress addr{next_checkpoint_++};
    checkpoints_.push_back(Checkpoint{addr, std::move(snapshot)});
    return addr;
  }
  [[nodiscard]] sim::Task<StableAddress> store_checkpoint_async(Buffer snapshot) {
    co_await sched_.sleep_for(write_latency_);
    co_return store_checkpoint(std::move(snapshot));
  }
  [[nodiscard]] std::optional<Buffer> load_checkpoint(StableAddress addr) const {
    const auto it = find_checkpoint(addr);
    if (it == checkpoints_.end()) return std::nullopt;
    return it->snapshot;
  }
  /// Releases the checkpoints at `addrs`, which ascend, in one pass over
  /// the store; an address not stored is skipped.
  void release_checkpoints(std::span<const StableAddress> addrs) {
    UGRPC_ASSERT(std::ranges::is_sorted(addrs));
    std::erase_if(checkpoints_, [addrs](const Checkpoint& c) {
      return std::ranges::binary_search(addrs, c.addr);
    });
  }
  void release_checkpoint(StableAddress addr) { release_checkpoints({&addr, 1}); }
  [[nodiscard]] std::size_t checkpoint_count() const { return checkpoints_.size(); }
  /// Bytes held by all stored checkpoints.
  [[nodiscard]] std::size_t checkpoint_bytes() const {
    std::size_t total = 0;
    for (const auto& [addr, snapshot] : checkpoints_) total += snapshot.size();
    return total;
  }

  // ---- stable variables (atomic assignment, paper section 4.4.5) ----
  void set_var(std::string_view name, std::uint64_t value) {
    if (auto it = std::ranges::find(vars_, name, &Var::name); it != vars_.end()) {
      it->value = value;
    } else {
      vars_.push_back(Var{std::string(name), value});
    }
  }
  [[nodiscard]] std::optional<std::uint64_t> var(std::string_view name) const {
    auto it = std::ranges::find(vars_, name, &Var::name);
    if (it == vars_.end()) return std::nullopt;
    return it->value;
  }
  void set_write_latency(sim::Duration d) { write_latency_ = d; }

 private:
  struct Checkpoint {
    StableAddress addr;
    Buffer snapshot;
  };
  struct Var {
    std::string name;
    std::uint64_t value;
  };

  /// The checkpoint at `addr`, or end().
  [[nodiscard]] std::vector<Checkpoint>::const_iterator find_checkpoint(StableAddress addr) const {
    const auto it = std::lower_bound(
        checkpoints_.begin(), checkpoints_.end(), addr,
        [](const Checkpoint& c, StableAddress a) { return c.addr < a; });
    return it != checkpoints_.end() && it->addr == addr ? it : checkpoints_.end();
  }

  sim::Scheduler& sched_;
  sim::Duration write_latency_ = 0;
  std::unordered_map<std::string, Buffer> kv_;
  /// Ordered by address: addresses only grow, so a store appends.  A
  /// vector, not a map, so storing a checkpoint allocates no node.
  std::vector<Checkpoint> checkpoints_;
  /// A handful of names (Atomic Execution uses one), read several times per
  /// checkpoint: a linear search, which hashes no string.
  std::vector<Var> vars_;
  std::uint64_t next_checkpoint_ = 1;
};

}  // namespace ugrpc::storage
