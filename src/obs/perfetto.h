// Chrome/Perfetto `trace_event` JSON export of a history's span trees.
//
// It renders a sequence-ordered history plus its intern table: a live
// Tracer's own records, or a flight dump's decoded trace file
// (trace_file.h, `ugrpcstat --perfetto DIR`), so a dump stores the records
// once and the rendering is made offline.
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

#include "obs/trace.h"

namespace ugrpc::obs {

/// The closed spans of `history` (spans_of) as a comma-separated JSON
/// fragment (no enclosing brackets), span names looked up in `names`; ""
/// when there are no closed spans.
[[nodiscard]] std::string export_perfetto_fragment(const std::vector<Event>& history,
                                                   const std::vector<std::string>& names);

/// The fragment of a live tracer: its merged history and intern table.
[[nodiscard]] std::string export_perfetto_fragment(const Tracer& t);

/// A complete standalone trace document for `t`:
/// {"traceEvents":[...],"displayTimeUnit":"ms"}.
[[nodiscard]] std::string export_perfetto(const Tracer& t);

/// Wraps per-process fragments (from export_perfetto_fragment, possibly
/// written by forked children) into one loadable document.
[[nodiscard]] std::string merge_perfetto_fragments(const std::vector<std::string>& fragments);

}  // namespace ugrpc::obs
