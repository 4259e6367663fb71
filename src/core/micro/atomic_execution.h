// Atomic Execution micro-protocol (paper section 4.4.5).
//
// Makes server-procedure execution atomic across crashes by checkpointing
// the server state to stable storage after every completed call and
// reloading the last checkpoint on recovery.  A crash mid-call therefore
// rolls the server back to the state before that call began -- "either
// executed completely or not at all".
//
// The checkpoint contains (a) the user protocol's state via its
// snapshot/restore hooks and (b) the state of every registered
// CheckpointParticipant (notably Unique Execution's duplicate tables, so the
// unique-execution guarantee also survives the crash).  Checkpoints are
// switched over with an atomically-assigned stable variable, mirroring the
// paper's `old`/`new` stable addresses: a crash during checkpoint write
// leaves the previous checkpoint in effect.
//
// Incremental checkpoints: the duplicate and order tables grow with every
// call served, so re-encoding them per call would make a call's cost grow
// with the server's age.  The checkpoint is therefore a chain of records in
// stable storage: one base record (full state) followed by delta records,
// each holding only what changed since its predecessor (the user state
// travels whole).  A participant writes its state and its changes in one
// encoding, a list of changes (CheckpointParticipant): a base's part is its
// encode_state(), a delta's part the changes it journaled since the last
// committed record.  The stable variable names the newest record; recovery
// walks back to the base and applies every record's parts in order, all
// the same way.  Once the deltas since the base add up to the base's size,
// the next record is a new base and the old chain is freed: stored bytes
// stay below about two full snapshots and each call pays amortised O(1).
// Record layout:
//
//   prev:u64 (0 for a base) user:raw n:u32 part:raw*n
//
// written in one pass over one buffer.  The first-boot baseline record is
// written in start(): participants register in their constructors, and the
// composite constructs every micro-protocol before it starts any.
//
// Requires Serial Execution (calls processed one at a time); the
// configurator enforces this dependency (paper Figure 4).
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "core/events.h"
#include "core/grpc_state.h"
#include "runtime/micro_protocol.h"
#include "storage/stable_store.h"

namespace ugrpc::core {

class AtomicExecution : public runtime::MicroProtocol {
 public:
  AtomicExecution(GrpcState& state, storage::StableStore& store)
      : MicroProtocol("Atomic Execution"), state_(state), store_(store) {}

  /// Turns on the participants' journals and, at first boot, writes the
  /// baseline checkpoint (on recovery the stored chain stays current).
  void start(runtime::Framework& fw) override;

  [[nodiscard]] std::uint64_t checkpoints_taken() const { return checkpoints_taken_; }
  /// Records in the live chain: the base plus the deltas written on it.
  [[nodiscard]] std::size_t chain_length() const { return chain_.size(); }
  /// Size of a base record of the current state (one full snapshot).
  [[nodiscard]] std::size_t full_snapshot_bytes() const { return build_record({}).size(); }

  /// One record of a stored chain, as recovery reads it.
  struct ChainRecord {
    storage::StableAddress addr;
    std::size_t bytes = 0;  ///< stored size, header included
    Buffer user_state;
    std::vector<Buffer> parts;  ///< one per checkpoint participant
  };
  /// Reads the chain whose newest record is `newest`, base first.  A broken
  /// chain -- a missing record, a truncated or corrupt one, a `prev` that
  /// is not older than its successor -- is a storage fault no recovery can
  /// mask, and fails an assertion rather than reading out of bounds.
  [[nodiscard]] static std::vector<ChainRecord> load_chain(const storage::StableStore& store,
                                                           storage::StableAddress newest);

 private:
  [[nodiscard]] sim::Task<> handle_reply(runtime::EventContext& ctx);
  void handle_recovery(runtime::EventContext& ctx);
  /// A base record when `prev` is empty, else a delta on top of `prev`.
  [[nodiscard]] Buffer build_record(std::optional<storage::StableAddress> prev) const;
  /// Makes the stored record at `addr` current, then lets participants drop
  /// the changes it holds (those marked when it was built) and, for a base,
  /// frees the chain it replaces.
  void commit(storage::StableAddress addr, bool base, std::size_t bytes);
  void restore_chain(const std::vector<ChainRecord>& chain);

  static constexpr std::string_view kCurrentVar = "atomic.current";

  GrpcState& state_;
  storage::StableStore& store_;
  std::uint64_t checkpoints_taken_ = 0;
  std::vector<storage::StableAddress> chain_;  ///< live chain, base first
  std::size_t base_bytes_ = 0;                 ///< size of chain_.front()
  std::size_t delta_bytes_ = 0;                ///< sum over the deltas in chain_
  std::size_t largest_delta_ = 0;              ///< the largest delta in chain_
};

}  // namespace ugrpc::core
