#include "core/micro/atomic_execution.h"

#include <algorithm>

#include "common/log.h"
#include "core/priorities.h"
#include "core/user_protocol.h"

namespace ugrpc::core {

void AtomicExecution::start(runtime::Framework& fw) {
  fw.register_handler(kReplyFromServer, "AtomicExec.handle_reply", kPrioReplyAtomic,
                      [this](runtime::EventContext& ctx) { return handle_reply(ctx); });
  fw.register_handler(kRecovery, "AtomicExec.handle_recovery", kPrioRecoveryAtomic,
                      [this](runtime::EventContext& ctx) { return handle_recovery(ctx); });
  for (CheckpointParticipant* p : state_.checkpoint_participants) p->start_journal();
  // Baseline checkpoint at first boot: a crash during the very first call
  // must be able to roll back to the initial state.  (The paper's
  // pseudocode only checkpoints after replies, leaving the first call
  // non-atomic; see DESIGN.md.)  On recovery the variable already exists
  // and the stored checkpoint remains authoritative.
  if (!store_.var(kCurrentVar).has_value()) {
    Buffer record = build_record({});
    const std::size_t bytes = record.size();
    commit(store_.store_checkpoint(std::move(record)), true, bytes);
  }
}

Buffer AtomicExecution::build_record(std::optional<storage::StableAddress> prev) const {
  // One pass into one buffer, each participant's part written in place.
  // The reservation comes from the sizes already tracked: a new base holds
  // at most the old base plus every change since, a delta about the largest
  // delta of the live chain.  A first delta gets none: no record of its
  // kind to go by, and stored records keep their capacity.
  Buffer record;
  record.reserve(prev.has_value() ? largest_delta_ : base_bytes_ + delta_bytes_);
  Writer w(record);
  w.u64(prev.has_value() ? prev->value() : 0);  // addresses start at 1
  const Buffer user_state = state_.user != nullptr ? state_.user->snapshot_state() : Buffer{};
  w.raw(user_state.bytes());
  w.u32(static_cast<std::uint32_t>(state_.checkpoint_participants.size()));
  for (const CheckpointParticipant* p : state_.checkpoint_participants) {
    if (prev.has_value()) {
      w.raw(p->journaled());
    } else {
      const std::size_t part = w.begin_raw();
      p->encode_state(w);
      w.end_raw(part);
    }
  }
  return record;
}

void AtomicExecution::commit(storage::StableAddress addr, bool base, std::size_t bytes) {
  // Atomic switch-over: the stable variable either points at the old
  // checkpoint or the new one, never at a torn state.
  store_.set_var(kCurrentVar, addr.value());
  for (CheckpointParticipant* p : state_.checkpoint_participants) p->forget_journal();
  if (base) {
    store_.release_checkpoints(chain_);  // the chain ascends
    chain_.clear();
    base_bytes_ = bytes;
    delta_bytes_ = 0;
    largest_delta_ = 0;
  } else {
    delta_bytes_ += bytes;
    largest_delta_ = std::max(largest_delta_, bytes);
  }
  chain_.push_back(addr);
}

sim::Task<> AtomicExecution::handle_reply(runtime::EventContext&) {
  // Compaction rule: a new base once the deltas since the last one add up
  // to its size.  This bounds stored bytes by about two full snapshots and
  // makes each call pay amortised O(1), with no knob.
  const bool base = chain_.empty() || delta_bytes_ >= base_bytes_;
  const std::optional<storage::StableAddress> prev =
      base ? std::nullopt : std::optional(chain_.back());
  Buffer record = build_record(prev);
  // Changes journaled while the record is being written are not in it:
  // they belong to the next one.
  for (CheckpointParticipant* p : state_.checkpoint_participants) p->mark_journal();
  const std::size_t bytes = record.size();
  const auto head = store_.var(kCurrentVar);
  const storage::StableAddress addr = co_await store_.store_checkpoint_async(std::move(record));
  // Serial Execution holds its token across this write, so no other record
  // can have become current meanwhile.  (A writer killed or crashed during
  // the write stores nothing, and its changes stay journaled for the next.)
  UGRPC_ASSERT(store_.var(kCurrentVar) == head && "checkpoint records are written one at a time");
  commit(addr, base, bytes);
  ++checkpoints_taken_;
  state_.note(obs::Kind::kCheckpoint, 0, addr.value());
}

std::vector<AtomicExecution::ChainRecord> AtomicExecution::load_chain(
    const storage::StableStore& store, storage::StableAddress newest) {
  std::vector<ChainRecord> chain;
  // Addresses start at 1; a base record's prev of 0 ends the chain.
  storage::StableAddress at = newest;
  try {
    do {
      const std::optional<Buffer> stored = store.load_checkpoint(at);
      UGRPC_ASSERT(stored.has_value() && "checkpoint chain: record missing");
      Reader r(*stored);
      ChainRecord rec{at, stored->size(), {}, {}};
      const std::uint64_t prev = r.u64();
      // Addresses grow with every write, so a predecessor is always older;
      // this also rules out cycles.
      UGRPC_ASSERT(prev < rec.addr.value() && "checkpoint chain: corrupt prev");
      at = storage::StableAddress{prev};
      // The application's restore hook may keep the state it is given; a
      // copy does not pin the whole record.  The parts are read and dropped.
      rec.user_state = Buffer::copy_of(r.raw().bytes());
      const std::uint32_t n = r.u32();
      for (std::uint32_t i = 0; i < n; ++i) rec.parts.push_back(r.raw());
      UGRPC_ASSERT(r.at_end() && "checkpoint chain: trailing bytes");
      chain.push_back(std::move(rec));
    } while (at.value() != 0);
  } catch (const CodecError&) {
    UGRPC_ASSERT(false && "checkpoint chain: truncated record");
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

void AtomicExecution::restore_chain(const std::vector<ChainRecord>& chain) {
  // Every record carries the user state whole: the newest one is current.
  if (state_.user != nullptr) state_.user->restore_state(chain.back().user_state);
  const auto& participants = state_.checkpoint_participants;
  chain_.clear();
  base_bytes_ = chain.front().bytes;
  delta_bytes_ = 0;
  try {
    for (const ChainRecord& rec : chain) {
      // Participant order is the configuration order, which is identical
      // across a crash (the stack factory rebuilds the same configuration).
      // The rebuilt participants start empty, and a base's parts rebuild
      // the state from empty, so every record is applied the same way.
      UGRPC_ASSERT(rec.parts.size() == participants.size());
      for (std::size_t i = 0; i < participants.size(); ++i) {
        Reader pr(rec.parts[i]);
        participants[i]->apply(pr);
      }
      if (!chain_.empty()) {
        delta_bytes_ += rec.bytes;
        largest_delta_ = std::max(largest_delta_, rec.bytes);
      }
      chain_.push_back(rec.addr);
    }
  } catch (const CodecError&) {
    UGRPC_ASSERT(false && "checkpoint chain: corrupt participant state");
  }
}

void AtomicExecution::handle_recovery(runtime::EventContext&) {
  const auto current = store_.var(kCurrentVar);
  if (!current.has_value()) return;  // never checkpointed: initial state is correct
  restore_chain(load_chain(store_, storage::StableAddress{*current}));
  state_.note(obs::Kind::kStateRestored, 0, *current);
  UGRPC_LOG(kDebug, "atomic@%u: restored checkpoint chain of %zu records ending at %llu",
            state_.my_id.value(), chain_.size(), static_cast<unsigned long long>(*current));
}

}  // namespace ugrpc::core
