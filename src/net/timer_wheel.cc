#include "net/timer_wheel.h"

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "common/assert.h"

namespace ugrpc::net {

TimerWheel::TimerWheel(sim::Duration granularity) : granularity_(granularity) {
  UGRPC_ASSERT(granularity_ > 0);
}

TimerId TimerWheel::add(sim::Time deadline, std::function<void()> fn, DomainId domain) {
  UGRPC_ASSERT(fn != nullptr);
  // A deadline already in the past still fires, on the next advance(): clamp
  // it so its bucket lies in the walk range [last tick, current tick].
  deadline = std::max(deadline, last_advance_);
  const TimerId id{next_timer_++};
  const std::size_t slot = slot_of(deadline);
  slots_[slot].push_back(Entry{id, deadline, next_seq_++, domain, std::move(fn)});
  handles_.emplace(id, Handle{slot, std::prev(slots_[slot].end())});
  return id;
}

void TimerWheel::cancel(TimerId id) {
  auto it = handles_.find(id);
  if (it != handles_.end()) {
    slots_[it->second.slot].erase(it->second.it);
    handles_.erase(it);
    return;
  }
  // Already extracted into the current advance() batch: suppress its firing.
  firing_.erase(id);
}

void TimerWheel::cancel_domain(DomainId domain) {
  std::vector<TimerId> doomed;
  for (const auto& [id, handle] : handles_) {
    if (handle.it->domain == domain) doomed.push_back(id);
  }
  for (TimerId id : doomed) cancel(id);
  std::erase_if(firing_, [domain](const auto& kv) { return kv.second == domain; });
}

void TimerWheel::advance(sim::Time now) {
  if (now < last_advance_) return;  // the clock is monotonic
  const std::int64_t from_tick = last_advance_ / granularity_;
  const std::int64_t to_tick = now / granularity_;
  // Walk each bucket the clock passed over, at most one full rotation (a
  // longer gap would revisit the same buckets).
  const std::int64_t ticks = std::min<std::int64_t>(to_tick - from_tick + 1, kSlots);
  std::vector<Entry> due;
  for (std::int64_t t = from_tick; t < from_tick + ticks; ++t) {
    Slot& slot = slots_[static_cast<std::size_t>(t) % kSlots];
    for (auto it = slot.begin(); it != slot.end();) {
      if (it->deadline <= now) {
        handles_.erase(it->id);
        firing_.emplace(it->id, it->domain);
        due.push_back(std::move(*it));
        it = slot.erase(it);
      } else {
        ++it;  // a later rotation, or later within the current tick
      }
    }
  }
  last_advance_ = now;
  std::sort(due.begin(), due.end(),
            [](const Entry& a, const Entry& b) { return std::tie(a.deadline, a.seq) < std::tie(b.deadline, b.seq); });
  for (Entry& entry : due) {
    // Skip entries cancelled by an earlier callback of this same batch.
    if (firing_.erase(entry.id) == 0) continue;
    entry.fn();
  }
  firing_.clear();
}

std::optional<sim::Time> TimerWheel::next_deadline() const {
  std::optional<sim::Time> best;
  for (const auto& [id, handle] : handles_) {
    if (!best.has_value() || handle.it->deadline < *best) best = handle.it->deadline;
  }
  return best;
}

}  // namespace ugrpc::net
