#include "obs/trace.h"

#include <algorithm>

#include "common/assert.h"

namespace ugrpc::obs {

std::string_view kind_name(Kind k) {
  switch (k) {
    case Kind::kCallIssued: return "call_issued";
    case Kind::kCallCompleted: return "call_completed";
    case Kind::kEventTriggered: return "event_triggered";
    case Kind::kEventHandled: return "event_handled";
    case Kind::kMsgSent: return "msg_sent";
    case Kind::kMsgDelivered: return "msg_delivered";
    case Kind::kMsgDropped: return "msg_dropped";
    case Kind::kMsgDuplicated: return "msg_duplicated";
    case Kind::kMsgUnroutable: return "msg_unroutable";
    case Kind::kMsgMalformed: return "msg_malformed";
    case Kind::kTimerArmed: return "timer_armed";
    case Kind::kTimerFired: return "timer_fired";
    case Kind::kTimerCancelled: return "timer_cancelled";
    case Kind::kExecStarted: return "exec_started";
    case Kind::kExecCommitted: return "exec_committed";
    case Kind::kDupSuppressed: return "dup_suppressed";
    case Kind::kRetransmit: return "retransmit";
    case Kind::kCheckpoint: return "checkpoint";
    case Kind::kStateRestored: return "state_restored";
    case Kind::kOrphanKilled: return "orphan_killed";
    case Kind::kCallDeferred: return "call_deferred";
    case Kind::kStaleDropped: return "stale_dropped";
    case Kind::kCallHeld: return "call_held";
    case Kind::kCallReleased: return "call_released";
    case Kind::kSerialAcquired: return "serial_acquired";
    case Kind::kSerialReleased: return "serial_released";
    case Kind::kDeadlineExpired: return "deadline_expired";
    case Kind::kSiteCrashed: return "site_crashed";
    case Kind::kSiteRecovered: return "site_recovered";
    case Kind::kSpanEnd: return "span_end";
    case Kind::kKindCount: break;
  }
  return "<invalid>";
}

std::string_view span_kind_name(Kind k) {
  switch (k) {
    case Kind::kEventTriggered: return "chain";
    case Kind::kEventHandled: return "handler";
    case Kind::kTimerFired: return "timer";
    case Kind::kMsgSent:
    case Kind::kMsgDropped: return "send";
    case Kind::kMsgDelivered: return "deliver";
    case Kind::kCallIssued: return "call";
    case Kind::kExecStarted: return "exec";
    default: return kind_name(k);
  }
}

std::vector<Span> spans_of(const std::vector<Event>& history) {
  std::vector<Span> out;
  std::unordered_map<std::uint64_t, std::size_t> open;  // span id -> index in out
  for (const Event& e : history) {
    if ((e.flags & kSpanOpen) != 0) {
      const std::uint64_t id = span_id(e.site, e.seq);
      open[id] = out.size();
      out.push_back(Span{.id = id, .trace = e.trace, .parent = e.link, .begin = e.time,
                         .ns_begin = e.ns, .site = e.site, .kind = e.kind, .name = e.name,
                         .call = e.call, .a = e.a, .b = e.b,
                         .flagged = (e.flags & kSpanFlagged) != 0});
    }
    if ((e.flags & kSpanClose) != 0) {
      auto it = open.find(e.link);
      if (it == open.end()) continue;  // opened before the retained window
      Span& s = out[it->second];
      s.end = e.time;
      // open() is keyed on ns_end == 0, so a close is never zero-width.
      s.ns_end = e.ns > s.ns_begin ? e.ns : s.ns_begin + 1;
      s.flagged = s.flagged || (e.flags & kSpanFlagged) != 0;
      open.erase(it);
    }
  }
  return out;
}

Tracer::Tracer(std::size_t per_site_capacity) : capacity_(per_site_capacity) {
  UGRPC_ASSERT(capacity_ > 0);
  names_.emplace_back();  // id 0 = ""
}

SiteTrace& Tracer::site(ProcessId site) {
  auto it = sites_.find(site);
  if (it == sites_.end()) {
    it = sites_.emplace(site, std::unique_ptr<SiteTrace>(new SiteTrace(*this, site, capacity_)))
             .first;
  }
  return *it->second;
}

std::uint32_t SiteTrace::intern(std::string_view s) { return tracer_.intern(s); }

std::uint32_t Tracer::intern(std::string_view s) {
  if (s.empty()) return 0;
  auto it = name_ids_.find(std::string(s));
  if (it != name_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(s);
  name_ids_.emplace(names_.back(), id);
  return id;
}

const std::string& Tracer::name(std::uint32_t id) const {
  return id < names_.size() ? names_[id] : names_[0];
}

std::vector<Event> SiteTrace::events() const {
  // Oldest-first: once the ring wrapped, the oldest entry sits at head_ (the
  // next overwrite); before that head_ is 0.
  std::vector<Event> out(ring_.begin() + static_cast<std::ptrdiff_t>(head_), ring_.end());
  out.insert(out.end(), ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(head_));
  return out;
}

std::vector<Event> Tracer::merged() const {
  std::vector<Event> out;
  for (const auto& [id, site] : sites_) {
    auto evs = site->events();
    out.insert(out.end(), evs.begin(), evs.end());
  }
  std::sort(out.begin(), out.end(), [](const Event& x, const Event& y) { return x.seq < y.seq; });
  return out;
}

std::uint64_t Tracer::total_dropped() const {
  std::uint64_t total = 0;
  for (const auto& [id, site] : sites_) total += site->dropped();
  return total;
}

}  // namespace ugrpc::obs
