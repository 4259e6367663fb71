// Hashed timer wheel for real-time transports.
//
// UdpTransport routes every Transport::schedule_after through this wheel
// (the executor's heap stays reserved for sleep_for awaiters), so arming and
// cancelling the stack's many short-lived timers -- retransmission,
// heartbeat, bounded-termination deadlines, almost all of which are
// cancelled before firing -- is O(1) instead of leaving dead entries in a
// priority queue.  Entries hash into kSlots buckets by deadline tick; each
// advance() walks only the buckets the clock passed over and fires due
// entries in (deadline, registration-sequence) order, matching the
// scheduler's timer ordering so protocol behaviour does not depend on which
// backend armed the timer.
//
// Timer ids are drawn from the same TimerId space the scheduler uses but the
// two sets never meet: ids issued by the wheel are cancelled on the wheel,
// ids issued by the executor on the executor.
//
// The wheel records no trace: a callback runs outside any fiber, so it has
// no ambient context, just as a simulator timer callback has none.  The
// record of a fire is the framework's kTimerFired span, the same on both
// backends.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <list>
#include <optional>
#include <unordered_map>

#include "common/ids.h"
#include "sim/time.h"

namespace ugrpc::net {

class TimerWheel {
 public:
  static constexpr std::size_t kSlots = 256;

  /// `granularity` is the tick width; deadlines within the same tick fire
  /// together on the advance() that passes them.
  explicit TimerWheel(sim::Duration granularity = sim::msec(1));

  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  /// Arms `fn` to fire at absolute time `deadline` (clamped to now or later
  /// by the next advance()).  `domain` ties the timer to a crashable site.
  TimerId add(sim::Time deadline, std::function<void()> fn, DomainId domain);

  /// No-op if the timer already fired or was cancelled.  A timer may cancel
  /// itself or any other timer from inside its own callback.
  void cancel(TimerId id);

  /// Cancels every timer of `domain` (site crash).
  void cancel_domain(DomainId domain);

  /// Fires every entry with deadline <= now, in (deadline, seq) order.
  /// Callbacks may add or cancel timers freely.
  void advance(sim::Time now);

  /// Earliest pending deadline; nullopt when the wheel is empty.  Real-time
  /// drivers use this to size their poll timeout.
  [[nodiscard]] std::optional<sim::Time> next_deadline() const;

  [[nodiscard]] std::size_t size() const { return handles_.size(); }

 private:
  struct Entry {
    TimerId id;
    sim::Time deadline;
    std::uint64_t seq;
    DomainId domain;
    std::function<void()> fn;
  };
  using Slot = std::list<Entry>;

  struct Handle {
    std::size_t slot;
    Slot::iterator it;
  };

  [[nodiscard]] std::size_t slot_of(sim::Time deadline) const {
    return static_cast<std::size_t>(deadline / granularity_) % kSlots;
  }

  sim::Duration granularity_;
  std::array<Slot, kSlots> slots_;
  std::unordered_map<TimerId, Handle> handles_;
  /// Entries extracted for the current advance() batch; cancel() during a
  /// callback removes ids from here to stop later entries of the same batch.
  std::unordered_map<TimerId, DomainId> firing_;
  std::uint64_t next_timer_ = 1;
  std::uint64_t next_seq_ = 1;
  sim::Time last_advance_ = 0;
};

}  // namespace ugrpc::net
