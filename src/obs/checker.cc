#include "obs/checker.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>

namespace ugrpc::obs {

std::string_view to_string(Invariant inv) {
  switch (inv) {
    case Invariant::kUniqueExecution: return "unique-execution";
    case Invariant::kAtomicExecution: return "atomic-execution";
    case Invariant::kBoundedTermination: return "bounded-termination";
    case Invariant::kFifoOrder: return "fifo-order";
    case Invariant::kTotalOrder: return "total-order";
    case Invariant::kOrphanTermination: return "orphan-termination";
  }
  return "<invalid>";
}

std::uint64_t Report::count(Invariant inv) const {
  std::uint64_t n = 0;
  for (const Violation& v : violations) {
    if (v.invariant == inv) ++n;
  }
  return n;
}

std::string Report::brief() const {
  std::string out = std::to_string(violations.size()) + " violation" +
                    (violations.size() == 1 ? "" : "s") + " (";
  if (checked.empty()) {
    out += "nothing checked";
  } else {
    for (std::size_t i = 0; i < checked.size(); ++i) {
      if (i > 0) out += ", ";
      out += to_string(checked[i]);
    }
    out += " checked";
  }
  return out + ")";
}

namespace {

/// Per-call bookkeeping keyed by raw CallId.
struct CallInfo {
  sim::Time issued = -1;
  ProcessId client;  ///< site whose ring recorded kCallIssued
  bool completed = false;
  sim::Time completed_at = 0;
  std::uint64_t status = 0;
};

struct SiteState {
  Incarnation inc = 1;
  bool rollback_due = false;  ///< crash interrupted an execution; expect restore
  /// In-progress executions: call -> (incarnation started, client process).
  std::map<std::uint64_t, std::pair<Incarnation, std::uint32_t>> in_progress;
  /// Last start incarnation per call (atomic: commit needs same-inc start).
  std::map<std::uint64_t, Incarnation> started_inc;
  /// Crash times (for the bounded-termination client-crash exemption).
  std::vector<sim::Time> crash_times;
};

}  // namespace

Report check(const std::vector<Event>& trace, const Expect& expect) {
  Report report;
  if (expect.unique_execution) report.checked.push_back(Invariant::kUniqueExecution);
  if (expect.atomic_execution) report.checked.push_back(Invariant::kAtomicExecution);
  if (expect.termination_bound.has_value())
    report.checked.push_back(Invariant::kBoundedTermination);
  if (expect.fifo_order) report.checked.push_back(Invariant::kFifoOrder);
  if (expect.total_order) report.checked.push_back(Invariant::kTotalOrder);
  if (expect.terminate_orphans) report.checked.push_back(Invariant::kOrphanTermination);

  Summary& sum = report.summary;
  std::map<std::uint64_t, CallInfo> calls;
  std::map<std::uint32_t, SiteState> sites;  // keyed by raw ProcessId
  // Commits per (site, server incarnation, call) and per (site, call): the
  // former scopes the unique check to one server lifetime (without Atomic
  // Execution a crash legitimately loses the duplicate tables), the latter
  // is the cross-crash evidence counter and the strict at-most-once check.
  std::map<std::tuple<std::uint32_t, Incarnation, std::uint64_t>, std::uint64_t> commits_inc;
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> commits_all;
  // FIFO: (site, server inc, client, client inc) -> highest started call id.
  std::map<std::tuple<std::uint32_t, Incarnation, std::uint64_t, std::uint64_t>, std::uint64_t>
      fifo_last;
  // Total order: (site, server inc) -> first-start order of calls, and each
  // call's position in it.
  struct ExecOrder {
    std::vector<std::uint64_t> order;
    std::unordered_map<std::uint64_t, std::size_t> pos;
  };
  std::map<std::pair<std::uint32_t, Incarnation>, ExecOrder> exec_order;
  // Orphans: (site, client) -> highest client incarnation already executing.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> max_started_inc;
  sim::Time last_time = 0;

  const auto violate = [&](Invariant inv, const Event& e, std::string detail) {
    report.violations.push_back(Violation{inv, e.site, e.call, e.time, std::move(detail)});
  };

  for (const Event& e : trace) {
    last_time = std::max(last_time, e.time);
    SiteState& site = sites[e.site.value()];
    switch (e.kind) {
      case Kind::kCallIssued: {
        ++sum.calls_issued;
        CallInfo& info = calls[e.call];
        info.issued = e.time;
        info.client = e.site;
        break;
      }
      case Kind::kCallCompleted: {
        ++sum.calls_completed;
        if (e.a == 0) ++sum.calls_ok;
        if (e.a == 2) ++sum.calls_timeout;
        auto it = calls.find(e.call);
        if (it != calls.end() && !it->second.completed) {
          it->second.completed = true;
          it->second.completed_at = e.time;
          it->second.status = e.a;
          if (it->second.issued >= 0) {
            sum.max_call_latency = std::max(sum.max_call_latency, e.time - it->second.issued);
          }
        }
        break;
      }
      case Kind::kExecStarted: {
        ++sum.execs_started;
        site.in_progress[e.call] = {site.inc, static_cast<std::uint32_t>(e.a)};
        site.started_inc[e.call] = site.inc;
        if (expect.fifo_order) {
          const auto key = std::make_tuple(e.site.value(), site.inc, e.a, e.b);
          auto [it, inserted] = fifo_last.try_emplace(key, e.call);
          if (!inserted) {
            if (e.call < it->second) {
              violate(Invariant::kFifoOrder, e,
                      "call " + std::to_string(e.call) + " started after call " +
                          std::to_string(it->second) + " of the same sender stream");
            }
            it->second = std::max(it->second, e.call);
          }
        }
        if (expect.total_order) {
          ExecOrder& exec = exec_order[{e.site.value(), site.inc}];
          if (exec.pos.try_emplace(e.call, exec.order.size()).second) exec.order.push_back(e.call);
        }
        if (expect.terminate_orphans) {
          auto& highest = max_started_inc[{e.site.value(), static_cast<std::uint32_t>(e.a)}];
          highest = std::max(highest, e.b);
        }
        break;
      }
      case Kind::kExecCommitted: {
        ++sum.execs_committed;
        site.in_progress.erase(e.call);
        const std::uint64_t nth_all = ++commits_all[{e.site.value(), e.call}];
        const std::uint64_t nth_inc =
            ++commits_inc[{e.site.value(), site.inc, e.call}];
        if (nth_all > 1) ++sum.duplicate_commits;
        if (expect.unique_execution) {
          // With Atomic Execution the duplicate tables survive crashes, so
          // uniqueness holds across the site's whole history; without it the
          // promise is scoped to one server incarnation.
          const std::uint64_t nth = expect.atomic_execution ? nth_all : nth_inc;
          if (nth > 1) {
            violate(Invariant::kUniqueExecution, e,
                    "call " + std::to_string(e.call) + " committed " + std::to_string(nth) +
                        " times at site " + std::to_string(e.site.value()));
          }
        }
        if (expect.atomic_execution) {
          auto it = site.started_inc.find(e.call);
          if (it == site.started_inc.end() || it->second != site.inc) {
            violate(Invariant::kAtomicExecution, e,
                    "commit of call " + std::to_string(e.call) +
                        " without a start in server incarnation " + std::to_string(site.inc));
          }
          if (site.rollback_due) {
            violate(Invariant::kAtomicExecution, e,
                    "commit before state rollback after a crash-interrupted execution");
          }
        }
        if (expect.terminate_orphans) {
          auto it = max_started_inc.find({e.site.value(), static_cast<std::uint32_t>(e.a)});
          if (it != max_started_inc.end() && e.b < it->second) {
            violate(Invariant::kOrphanTermination, e,
                    "execution of client incarnation " + std::to_string(e.b) +
                        " committed after incarnation " + std::to_string(it->second) +
                        " started executing");
          }
        }
        break;
      }
      case Kind::kDupSuppressed: ++sum.duplicates_suppressed; break;
      case Kind::kRetransmit: ++sum.retransmissions; break;
      case Kind::kOrphanKilled: {
        ++sum.orphans_killed;
        // The killed fiber's execution is abandoned deliberately; it is not
        // a crash-interrupted execution.
        std::erase_if(site.in_progress, [&](const auto& kv) {
          return kv.second.second == static_cast<std::uint32_t>(e.a);
        });
        break;
      }
      case Kind::kCheckpoint: ++sum.checkpoints; break;
      case Kind::kStateRestored: site.rollback_due = false; break;
      case Kind::kSiteCrashed: {
        ++sum.crashes;
        site.crash_times.push_back(e.time);
        if (expect.atomic_execution && !site.in_progress.empty()) site.rollback_due = true;
        site.in_progress.clear();
        break;
      }
      case Kind::kSiteRecovered: {
        ++sum.recoveries;
        site.inc = static_cast<Incarnation>(e.a);
        break;
      }
      default: break;
    }
  }

  // Bounded termination: judged at end of trace, when completions are known.
  if (expect.termination_bound.has_value()) {
    const sim::Duration bound = *expect.termination_bound + kTerminationSlack;
    for (const auto& [id, info] : calls) {
      if (info.issued < 0) continue;  // completion without issue record
      const sim::Time deadline = info.issued + bound;
      if (info.completed) {
        if (info.completed_at > deadline) {
          report.violations.push_back(Violation{
              Invariant::kBoundedTermination, info.client, id, info.completed_at,
              "call " + std::to_string(id) + " completed " +
                  std::to_string(info.completed_at - info.issued) + "us after issue (bound " +
                  std::to_string(*expect.termination_bound) + "us)"});
        }
        continue;
      }
      if (deadline > last_time) continue;  // trace ends before the deadline
      const auto& crashes = sites[info.client.value()].crash_times;
      const bool client_crashed = std::any_of(
          crashes.begin(), crashes.end(), [&](sim::Time t) { return t >= info.issued; });
      if (client_crashed) continue;  // caller died; nobody is waiting
      report.violations.push_back(
          Violation{Invariant::kBoundedTermination, info.client, id, deadline,
                    "call " + std::to_string(id) + " never completed (deadline passed at " +
                        std::to_string(deadline) + "us)"});
    }
  }

  // Total order: pairwise consistency of the per-(site, incarnation)
  // execution sequences.
  if (expect.total_order) {
    for (auto a = exec_order.begin(); a != exec_order.end(); ++a) {
      for (auto b = std::next(a); b != exec_order.end(); ++b) {
        const std::unordered_map<std::uint64_t, std::size_t>& pos_b = b->second.pos;
        // Positions in b of the common calls, in a's order, must increase.
        std::size_t prev = 0;
        std::uint64_t prev_call = 0;
        bool have_prev = false;
        for (std::uint64_t call : a->second.order) {
          auto it = pos_b.find(call);
          if (it == pos_b.end()) continue;
          if (have_prev && it->second < prev) {
            report.violations.push_back(Violation{
                Invariant::kTotalOrder, ProcessId{a->first.first}, call, last_time,
                "sites " + std::to_string(a->first.first) + " and " +
                    std::to_string(b->first.first) + " executed calls " +
                    std::to_string(prev_call) + " and " + std::to_string(call) +
                    " in opposite orders"});
          }
          prev = it->second;
          prev_call = call;
          have_prev = true;
        }
      }
    }
  }

  return report;
}

Summary summarize(const std::vector<Event>& trace) { return check(trace, Expect{}).summary; }

}  // namespace ugrpc::obs
