// Semantic invariant checking over merged traces (tentpole of ISSUE 3).
//
// check() replays a merged, sequence-ordered trace (Tracer::merged()) and
// verifies the invariants the configured micro-protocol set promises --
// the same trace-validation approach OptSCORE uses to compare group
// communication stacks.  Which invariants apply is configuration-dependent
// (an at-least-once stack legitimately executes duplicates); Expect captures
// the selection, and core/observe.h derives it from a core::Config.
//
// Invariants (paper Fig. 1 / Fig. 2 properties):
//   * unique execution      -- at most one committed execution per
//                              (call, server site);
//   * atomic execution      -- no partial execution survives a crash: a
//                              commit requires a start in the same server
//                              incarnation, and a crash that interrupts an
//                              execution must be followed by a state
//                              rollback (kStateRestored) before the
//                              recovered incarnation commits anything;
//   * bounded termination   -- every issued call completes (any status)
//                              within the bound, unless its client crashed
//                              or the trace ends before the deadline;
//   * FIFO order            -- per (client incarnation, server site),
//                              executions start in call-id order;
//   * total order           -- any two calls executed by two sites start in
//                              the same relative order at both;
//   * orphan termination    -- no execution of a dead client incarnation
//                              commits after a newer incarnation of that
//                              client has started executing at the site.
//
// The checker also produces a Summary of evidence counters (duplicate
// commits, completions, latency) that benches print regardless of which
// invariants are enforced -- Fig. 1's "dup executions" column is measured
// this way instead of hand-counted.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.h"
#include "obs/trace.h"
#include "sim/time.h"

namespace ugrpc::obs {

/// A completion may trail its deadline by this much (the completion record
/// is stamped when the waiting fiber resumes, one scheduling step after the
/// deadline timer fires).
inline constexpr sim::Duration kTerminationSlack = sim::msec(1);
/// Trace times and termination bounds lie in [0, this) us, so check()'s
/// sums of three of them cannot overflow and its -1 "never issued"
/// sentinel cannot meet a real time.
inline constexpr sim::Duration kTimeLimit = sim::Duration{1} << 60;

/// Which invariants a trace is expected to satisfy.
struct Expect {
  bool unique_execution = false;
  bool atomic_execution = false;
  /// Bounded Termination's time bound; checking is off when unset.
  std::optional<sim::Duration> termination_bound;
  bool fifo_order = false;
  bool total_order = false;
  bool terminate_orphans = false;
};

enum class Invariant : std::uint8_t {
  kUniqueExecution,
  kAtomicExecution,
  kBoundedTermination,
  kFifoOrder,
  kTotalOrder,
  kOrphanTermination,
};

[[nodiscard]] std::string_view to_string(Invariant inv);

struct Violation {
  Invariant invariant;
  ProcessId site;       ///< site the violation was observed at (0 = global)
  std::uint64_t call;   ///< raw CallId involved, 0 if none
  sim::Time time;       ///< trace time of the offending event
  std::string detail;   ///< human-readable explanation
};

/// Evidence counters computed from the trace (independent of Expect).
struct Summary {
  std::uint64_t calls_issued = 0;
  std::uint64_t calls_completed = 0;
  std::uint64_t calls_ok = 0;
  std::uint64_t calls_timeout = 0;
  std::uint64_t execs_started = 0;
  std::uint64_t execs_committed = 0;
  /// Committed executions beyond the first per (call, site) -- Fig. 1's
  /// "dup executions" evidence, measured.
  std::uint64_t duplicate_commits = 0;
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t orphans_killed = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;
  sim::Duration max_call_latency = 0;  ///< completed calls only

  friend bool operator==(const Summary&, const Summary&) = default;
};

struct Report {
  std::vector<Violation> violations;
  Summary summary;
  /// Invariants that were actually enforced (for display).
  std::vector<Invariant> checked;

  [[nodiscard]] bool ok() const { return violations.empty(); }
  [[nodiscard]] std::uint64_t count(Invariant inv) const;
  /// One line, e.g. "0 violations (unique, atomic, bounded checked)".
  [[nodiscard]] std::string brief() const;
};

/// Replays `trace` (must be sequence-ordered, as produced by
/// Tracer::merged()) against `expect`.
[[nodiscard]] Report check(const std::vector<Event>& trace, const Expect& expect);

/// Evidence counters only (equivalent to check(trace, {}).summary).
[[nodiscard]] Summary summarize(const std::vector<Event>& trace);

}  // namespace ugrpc::obs
