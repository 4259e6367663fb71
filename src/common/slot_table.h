// Reusable slots, addressed by ids that name one occupancy of a slot.
//
// The executor's fibers and timers, the simulated wire's packets in flight
// and the framework's armed timeouts each live from one event to a later
// one.  A map node per entry would cost a heap allocation per fiber, timer
// and packet.  A SlotTable keeps the entries in chunks of 64 that are
// allocated once and reused through a free list: after warm-up an insert
// allocates nothing, and the number of slots stays at the peak number of
// entries live at once.
//
// An id is (sequence << kSlotBits) | slot.  The sequence counts insertions
// from 1, so
//   * ids ascend in insertion order (the scheduler's fiber ids keep their
//     creation order, which ordered sets of them rely on);
//   * the id 0 -- FiberId{} or TimerId{}, "no entry" -- names nothing;
//   * a stale id, whose slot has since been freed or reused, never matches,
//     because find() compares the whole id.
// Entries never move, so a reference to one stays valid until its slot is
// reused (the scheduler's ready list links nodes that live in fiber
// entries).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/assert.h"

namespace ugrpc {

template <typename T>
class SlotTable {
 public:
  /// Live entries are limited to 2^kSlotBits, insertions over the table's
  /// life to 2^(64 - kSlotBits).
  static constexpr int kSlotBits = 24;

  struct Inserted {
    std::uint64_t id;
    T& value;
  };

  /// Takes a free slot, or adds one when none is free.  Its value is as the
  /// previous occupant's owner left it when it called erase() (the owner
  /// empties it first), or value-initialized in a new slot.
  Inserted insert() {
    std::uint64_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      UGRPC_ASSERT(slots_ < (std::uint64_t{1} << kSlotBits) && "slot table full");
      if (slots_ % kChunk == 0) chunks_.push_back(std::make_unique<Chunk>());
      slot = slots_++;
    }
    UGRPC_ASSERT(next_seq_ < (std::uint64_t{1} << (64 - kSlotBits)) && "slot ids exhausted");
    Entry& e = entry(slot);
    e.id = (next_seq_++ << kSlotBits) | slot;
    ++live_;
    return {e.id, e.value};
  }

  /// The live entry `id` names, or nullptr (id 0, stale or never issued).
  [[nodiscard]] T* find(std::uint64_t id) { return live(id); }
  [[nodiscard]] const T* find(std::uint64_t id) const { return live(id); }

  /// Frees the slot of the live entry `id` for reuse.
  void erase(std::uint64_t id) {
    const std::uint64_t slot = id & kSlotMask;
    UGRPC_ASSERT(find(id) != nullptr && "erase of an entry that is not live");
    entry(slot).id = 0;
    free_.push_back(static_cast<std::uint32_t>(slot));
    --live_;
  }

  /// Calls f(id, value) for each live entry, in slot order.
  template <typename F>
  void for_each(F&& f) {
    for (std::uint64_t slot = 0; slot < slots_; ++slot) {
      Entry& e = entry(slot);
      if (e.id != 0) f(e.id, e.value);
    }
  }

  /// Live entries.
  [[nodiscard]] std::size_t size() const { return live_; }
  /// Slots ever added: the peak of size().
  [[nodiscard]] std::size_t slot_count() const { return slots_; }

 private:
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::size_t kChunk = 64;

  struct Entry {
    T value{};
    std::uint64_t id = 0;  ///< 0 while the slot is free
  };
  using Chunk = std::array<Entry, kChunk>;

  Entry& entry(std::uint64_t slot) const { return (*chunks_[slot / kChunk])[slot % kChunk]; }
  T* live(std::uint64_t id) const {
    const std::uint64_t slot = id & kSlotMask;
    if (id == 0 || slot >= slots_) return nullptr;
    Entry& e = entry(slot);
    return e.id == id ? &e.value : nullptr;
  }

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<std::uint32_t> free_;
  std::uint64_t slots_ = 0;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
};

}  // namespace ugrpc
