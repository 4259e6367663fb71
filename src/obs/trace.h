// Structured call-trace observability: one record stream per site.
//
// The paper's claims -- exactly-once vs at-most-once, bounded termination,
// orphan cleanup, FIFO/total delivery order -- are *semantic*: they speak
// about which events may or may not occur in an execution.  This layer turns
// every run into a machine-checkable record log:
//
//   * Tracer owns one ring buffer per site (process).  Components record
//     typed Event entries -- call issued/completed, event triggered/handled,
//     message sent/delivered/dropped/duplicated, timer armed/fired/cancelled,
//     execution started/committed, checkpoint/restore, orphan killed, site
//     crash/recovery -- stamped with the site's clock and a tracer-global
//     sequence number.  In the deterministic simulator the sequence number is
//     a total order consistent with causality, so merging the per-site rings
//     by sequence yields a faithful global history.
//   * Spans (span.h) live in the same ring.  The record that marks the start
//     of an interval -- kEventTriggered, kEventHandled, kMsgSent,
//     kMsgDelivered, kCallIssued, kExecStarted, kTimerFired -- opens it
//     (SiteTrace::open); the span's id is derived from that record,
//     (site << 32) | (seq & 0xFFFFFFFF).  A later record closes it: the fact
//     that ends the interval where there is one (kCallCompleted,
//     kExecCommitted), else a kSpanEnd.  Tracer::spans() pairs opens with
//     closes; nothing else stores spans.  A ring that wraps therefore loses
//     its oldest spans and events together, and a long-running site keeps
//     its newest ones.  Which span the code running in a fiber works under
//     (the parent of the spans it opens) is that fiber's ambient context,
//     kept by the scheduler (sim::Scheduler::ambient), not here.
//   * obs::check (checker.h) replays a merged trace against the invariants
//     the selected micro-protocol set promises.
//   * A flight dump stores the merged trace as one binary file
//     (trace_file.h), which the checker and the Perfetto export read back.
//
// Cost model: tracing is OFF unless a Tracer is attached.  Every record site
// is guarded by a single pointer null-check, so the dispatch and transport
// hot paths are unchanged when disabled.  When enabled, a record is an inline
// write into a preallocated ring -- no allocation, no formatting, no I/O;
// span records add one steady-clock read.  Memory: sizeof(Event) is 80 B, so
// the default per-site capacity of 1 << 15 records reserves 2.5 MiB per site
// (pages are touched only as records arrive).
//
// Layering: obs depends only on common + sim, so both the network fabric
// (src/net) and the protocol stack (src/core) can record into it.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "obs/span.h"
#include "sim/time.h"

namespace ugrpc::obs {

/// Typed trace record kinds.  `call`/`a`/`b` operand meaning per kind is
/// documented inline; 0 means "not applicable".  Kinds marked "opens" start
/// a span when recorded through SiteTrace::open().
///
/// The numbers are written into flight dumps (obs/trace_file.h), so they are
/// fixed: never reorder or remove a kind; append new ones only, after
/// kSpanEnd.  A reader skips and counts a number it does not know.
enum class Kind : std::uint8_t {
  // Call lifecycle (client side).
  kCallIssued,     ///< call=id, a=server group, b=client incarnation; opens "call"
  kCallCompleted,  ///< call=id, a=Status value (0 ok, 2 timeout); closes "call"
  // Framework dispatch.
  kEventTriggered,  ///< a=event id, name=event name; opens "chain"
  kEventHandled,    ///< a=event id, b=priority, name=handler name; opens "handler"
  // Transport.
  kMsgSent,        ///< a=peer (dst), b=protocol id; opens "send"
  kMsgDelivered,   ///< a=peer (src), b=protocol id; opens "deliver"
  kMsgDropped,     ///< a=peer, b=protocol id; opens a flagged "send" at the sender
  kMsgDuplicated,  ///< a=peer (dst), b=protocol id
  kMsgUnroutable,  ///< a=peer or group, b=protocol id
  kMsgMalformed,   ///< a=sender (a gRPC message dropped because it did not decode)
  // Timers (framework TIMEOUT registrations).
  kTimerArmed,      ///< a=timer id, b=delay, name=timer name
  kTimerFired,      ///< name=timer name; opens "timer"
  kTimerCancelled,  ///< a=timer id
  // Server-side execution.
  kExecStarted,    ///< call=id, a=client process, b=client incarnation; opens "exec"
  kExecCommitted,  ///< call=id, a=client process, b=client incarnation; closes "exec"
  kDupSuppressed,  ///< call=id (Unique Execution answered/dropped a duplicate)
  kRetransmit,     ///< call=id, a=destination process
  kCheckpoint,     ///< a=stable checkpoint address (Atomic Execution)
  kStateRestored,  ///< a=stable checkpoint address (recovery rollback)
  kOrphanKilled,   ///< a=client process, b=fiber id
  kCallDeferred,   ///< call=id, a=client process (Interference Avoidance)
  kStaleDropped,   ///< call=id (ordering dropped an orphaned/executed call)
  kCallHeld,       ///< call=id, a=HoldIndex (ordering gate not yet satisfied)
  kCallReleased,   ///< call=id, a=HoldIndex (gate opened)
  kSerialAcquired, ///< call=id (Serial Execution token)
  kSerialReleased, ///< call=id
  kDeadlineExpired,///< call=id (Bounded Termination fired)
  // Site lifecycle.
  kSiteCrashed,    ///< a=incarnation that died
  kSiteRecovered,  ///< a=new incarnation
  // Spans without a fact of their own at one end.
  kSpanEnd,        ///< closes the span in `link`
  kKindCount,      ///< sentinel, not a real kind
};

inline constexpr std::size_t kKindCount = static_cast<std::size_t>(Kind::kKindCount);

/// Short stable name, e.g. "exec_committed", for messages and the
/// Perfetto category of kinds that name no interval.
[[nodiscard]] std::string_view kind_name(Kind k);

/// The interval an opening record of kind `k` names ("chain", "handler",
/// "timer", "send", "deliver", "call", "exec"); Perfetto category and
/// Profile row key.
[[nodiscard]] std::string_view span_kind_name(Kind k);

/// Event::flags bits.
inline constexpr std::uint8_t kSpanOpen = 1;     ///< the record opens a span
inline constexpr std::uint8_t kSpanClose = 2;    ///< the record closes span `link`
inline constexpr std::uint8_t kSpanFlagged = 4;  ///< dropped send / duplicate delivery

/// One trace record.  Plain data; 80 bytes.
struct Event {
  std::uint64_t seq = 0;   ///< tracer-global, monotonically increasing
  sim::Time time = 0;      ///< site clock (virtual or steady, per backend)
  std::uint64_t call = 0;  ///< raw CallId, 0 = none
  std::uint64_t a = 0;     ///< kind-specific (see Kind)
  std::uint64_t b = 0;     ///< kind-specific (see Kind)
  // Span fields, zero on a record that neither opens nor closes a span.
  std::uint64_t trace = 0;  ///< opening record: the span's trace id
  std::uint64_t link = 0;   ///< opening record: parent span id; closing: the closed span
  std::uint64_t ns = 0;     ///< steady clock (steady_ns()) at open/close
  ProcessId site{};         ///< which site's ring recorded it
  std::uint32_t name = 0;   ///< interned string id, 0 = none
  Kind kind = Kind::kKindCount;
  std::uint8_t flags = 0;   ///< kSpanOpen | kSpanClose | kSpanFlagged
};
static_assert(sizeof(Event) == 80, "trace.h states the per-site ring bytes");

/// The id of the span a record opens: unique across every site of a tracer
/// AND across OS processes (sites are disjoint between forked processes), so
/// the trace files of several processes render together without collisions.
[[nodiscard]] constexpr std::uint64_t span_id(ProcessId site, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(site.value()) << 32) | (seq & 0xFFFFFFFFu);
}

/// A span: an opening record paired with its close.  Derived on demand by
/// spans_of(); never stored.
struct Span {
  std::uint64_t id = 0;      ///< span_id(site, seq of the opening record)
  std::uint64_t trace = 0;   ///< 0 = untraced background work
  std::uint64_t parent = 0;  ///< parent span id, 0 = root
  sim::Time begin = 0;       ///< transport clock at open
  sim::Time end = -1;        ///< transport clock at close; -1 = still open
  std::uint64_t ns_begin = 0;  ///< steady clock (ns) at open
  std::uint64_t ns_end = 0;    ///< steady clock (ns) at close; 0 = still open
  ProcessId site;
  Kind kind = Kind::kKindCount;  ///< the opening record's kind
  std::uint32_t name = 0;        ///< interned string id, 0 = none
  std::uint64_t call = 0, a = 0, b = 0;  ///< the opening record's operands
  bool flagged = false;  ///< e.g. delivery of a duplicated packet

  [[nodiscard]] bool open() const { return ns_end == 0; }
  /// Cost in steady-clock nanoseconds (0 while open).
  [[nodiscard]] std::uint64_t wall_ns() const {
    return ns_end > ns_begin ? ns_end - ns_begin : 0;
  }
};

/// Pairs the opening and closing records of a sequence-ordered history into
/// spans, in open order.  A close whose open is absent (overwritten by a
/// ring wrap) is dropped; an open without a close is reported open.
[[nodiscard]] std::vector<Span> spans_of(const std::vector<Event>& history);

class Tracer;

/// Per-site ring buffer.  Owned by a Tracer; components hold a raw pointer
/// (nullptr = tracing disabled) and record through it.
class SiteTrace {
 public:
  /// Appends a record; overwrites the oldest entry when the ring is full
  /// (dropped() counts the overwritten ones).
  void record(sim::Time time, Kind kind, std::uint64_t call = 0, std::uint64_t a = 0,
              std::uint64_t b = 0, std::uint32_t name = 0) {
    push({.time = time, .call = call, .a = a, .b = b, .name = name, .kind = kind});
  }

  /// Appends a record that opens a span under `parent` (trace inherited from
  /// it) and returns the context the span's children run under:
  /// {parent.trace, id of the new span}.
  SpanCtx open(sim::Time time, Kind kind, const SpanCtx& parent, std::uint64_t call = 0,
               std::uint64_t a = 0, std::uint64_t b = 0, std::uint32_t name = 0,
               bool flagged = false) {
    const Event& e = push({.time = time, .call = call, .a = a, .b = b, .trace = parent.trace,
                           .link = parent.parent, .ns = steady_ns(), .name = name, .kind = kind,
                           .flags = std::uint8_t(kSpanOpen | (flagged ? kSpanFlagged : 0))});
    return SpanCtx{parent.trace, span_id(site_, e.seq)};
  }

  /// Appends a record that closes span `span` (see the Kind comments for
  /// which kinds close one).  `flagged` marks the span, e.g. a send that
  /// failed after it was opened.
  void close(sim::Time time, std::uint64_t span, Kind kind = Kind::kSpanEnd,
             std::uint64_t call = 0, std::uint64_t a = 0, std::uint64_t b = 0,
             bool flagged = false) {
    push({.time = time, .call = call, .a = a, .b = b, .link = span, .ns = steady_ns(),
          .kind = kind, .flags = std::uint8_t(kSpanClose | (flagged ? kSpanFlagged : 0))});
  }

  /// Interns `s` in the owning tracer's string table (for the name field).
  [[nodiscard]] std::uint32_t intern(std::string_view s);

  /// Records currently retained, oldest first.
  [[nodiscard]] std::vector<Event> events() const;
  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  friend class Tracer;
  SiteTrace(Tracer& tracer, ProcessId site, std::size_t capacity)
      : tracer_(tracer), site_(site), capacity_(capacity) {
    ring_.reserve(capacity);
  }

  /// The one append path: stamps `e` with the next sequence number and this
  /// site, and stores it.
  const Event& push(Event e);

  Tracer& tracer_;
  ProcessId site_;
  std::size_t capacity_;
  std::vector<Event> ring_;  ///< grows to capacity_, then wraps
  std::size_t head_ = 0;     ///< next overwrite position once full
  std::uint64_t dropped_ = 0;
};

/// The per-experiment trace collector: a registry of per-site rings, a
/// shared string-intern table, and per-kind counters.
class Tracer {
 public:
  explicit Tracer(std::size_t per_site_capacity = 1 << 15);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The ring of `site`, created on first use.  The reference is stable for
  /// the tracer's lifetime (sites are node-allocated).
  [[nodiscard]] SiteTrace& site(ProcessId site);

  [[nodiscard]] std::uint32_t intern(std::string_view s);
  /// The interned string for `id`; "" for 0 or out of range.
  [[nodiscard]] const std::string& name(std::uint32_t id) const;
  /// The whole intern table: names()[id] is the string for `id`, names()[0]
  /// is "".
  [[nodiscard]] const std::vector<std::string>& names() const { return names_; }

  /// All retained records of all sites merged into one history, ordered by
  /// sequence number (a causal total order in the deterministic simulator).
  [[nodiscard]] std::vector<Event> merged() const;

  /// spans_of(merged()): every span whose opening record is retained.
  [[nodiscard]] std::vector<Span> spans() const { return spans_of(merged()); }

  /// Records made per kind since construction (not capped by ring capacity
  /// -- these are exact counters).
  [[nodiscard]] std::uint64_t count(Kind k) const {
    return counts_[static_cast<std::size_t>(k)];
  }
  /// Total records overwritten across all rings.  A non-zero value means
  /// merged() is an incomplete history (checker results are unreliable);
  /// size the per-site capacity for the experiment instead.
  [[nodiscard]] std::uint64_t total_dropped() const;

 private:
  friend class SiteTrace;

  std::size_t capacity_;
  std::map<ProcessId, std::unique_ptr<SiteTrace>> sites_;
  std::vector<std::string> names_;  ///< names_[0] == ""
  std::unordered_map<std::string, std::uint32_t> name_ids_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t counts_[kKindCount] = {};
};

inline const Event& SiteTrace::push(Event e) {
  e.seq = tracer_.next_seq_++;
  e.site = site_;
  ++tracer_.counts_[static_cast<std::size_t>(e.kind)];
  if (ring_.size() < capacity_) return ring_.emplace_back(e);
  Event& slot = ring_[head_];
  slot = e;
  head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
  ++dropped_;
  return slot;
}

}  // namespace ugrpc::obs
