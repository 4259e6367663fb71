// Per-call distributed spans.
//
// The Tracer's record ring answers "did the configuration keep its semantic
// promises?"; spans answer "where did the time go?".  A span is an interval
// with a parent link, following the Dapper-style trace-context model:
//
//   * trace  -- which end-to-end activity this work belongs to.  Group RPC
//               calls use the CallId as the trace id (already globally
//               unique: client process in the high bits, incarnation +
//               sequence below), so a trace spans client, servers and
//               retransmissions without any id-allocation protocol.
//   * parent -- the span that caused this one: a message-delivery span
//               parents to the *send* span on the other side of the wire
//               (the send span id travels in the frame), a handler span
//               parents to its event-chain span, a timer-fire span to the
//               span that armed the timer.
//
// A span is not stored on its own: it is the record that opens it plus the
// record that closes it, both in the site's one trace ring (trace.h).  Its
// id is derived from the opening record, (site << 32) | (seq & 0xFFFFFFFF),
// and Tracer::spans() pairs the two.  There is no separate span budget: the
// ring's capacity bounds spans and events alike, and a wrapping ring keeps
// the newest of both.
//
// Spans carry two clocks: the transport clock (virtual time over the
// simulated Network, microseconds of real time under UdpTransport) for
// ordering against the other records, and a raw steady-clock nanosecond
// stamp for cost attribution -- in the simulator, virtual handler time is
// always zero, so only the real clock can say what a micro-protocol costs.
// The steady clock is system-wide (CLOCK_MONOTONIC), so spans exported from
// different OS processes on one host share a timebase.
//
// This header defines only the context type and the clock and depends on
// nothing else, so sim/ can keep each fiber's ambient SpanCtx
// (Scheduler::ambient) and net/ can carry one in Packet metadata without
// pulling in the collector.
#pragma once

#include <chrono>
#include <cstdint>

namespace ugrpc::obs {

/// Compact trace context: propagated in wire frames / packet metadata and
/// kept as each fiber's ambient context (sim::Scheduler::ambient).  {0, 0}
/// means "untraced".
struct SpanCtx {
  std::uint64_t trace = 0;   ///< trace id (CallId for call traces), 0 = none
  std::uint64_t parent = 0;  ///< causing span id, 0 = root

  [[nodiscard]] bool active() const { return trace != 0 || parent != 0; }
  friend bool operator==(const SpanCtx&, const SpanCtx&) = default;
};

/// Steady-clock nanoseconds since an arbitrary (boot-stable, system-wide)
/// epoch; the second clock every span carries.
[[nodiscard]] inline std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

}  // namespace ugrpc::obs
