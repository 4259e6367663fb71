// Chrome/Perfetto `trace_event` JSON export of a Tracer's span trees.
//
// Emits the legacy JSON trace format (loadable by ui.perfetto.dev and
// chrome://tracing): one "X" complete event per closed span (pid = site,
// tid = trace id bucket so concurrent calls land on separate tracks), "M"
// metadata naming each site's track, and "s"/"f" flow events linking every
// send span to the deliver span it caused -- flow ids are the send-span ids
// carried on the wire, so fragments exported by *different OS processes*
// merge into one cross-process tree with zero coordination: concatenate the
// fragments and wrap (merge_perfetto_fragments).  Timestamps come from the
// spans' steady-clock nanosecond stamps, which share a timebase across
// processes on one host (CLOCK_MONOTONIC).
#pragma once

#include <string>
#include <vector>

namespace ugrpc::obs {

class Tracer;

/// One process's events as a comma-separated JSON fragment (no enclosing
/// brackets); "" when there are no closed spans.
[[nodiscard]] std::string export_perfetto_fragment(const Tracer& t);

/// A complete standalone trace document for `t`:
/// {"traceEvents":[...],"displayTimeUnit":"ms"}.
[[nodiscard]] std::string export_perfetto(const Tracer& t);

/// Wraps per-process fragments (from export_perfetto_fragment, possibly
/// written by forked children) into one loadable document.
[[nodiscard]] std::string merge_perfetto_fragments(const std::vector<std::string>& fragments);

}  // namespace ugrpc::obs
