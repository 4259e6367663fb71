// Chrome/Perfetto `trace_event` JSON rendering of trace files
// (obs/trace_file.h), made offline by `ugrpcstat --perfetto FILE...`.
//
// One "X" complete event per closed span (pid = site, tid = trace id
// bucket, so concurrent calls land on separate tracks), "M" metadata naming
// each site's track, and "s"/"f" flow events from every send span to the
// deliver span it caused.  Flow ids are the send-span ids carried on the
// wire, and the spans' CLOCK_MONOTONIC stamps share one timebase on a host,
// so the files of different OS processes render into one cross-process
// tree with no coordination between them.
#pragma once

#include <span>
#include <string>

#include "obs/trace_file.h"

namespace ugrpc::tools {

/// One standalone document, {"traceEvents":[...],"displayTimeUnit":"ms"},
/// of the closed spans of every file in `traces`, span names looked up in
/// each file's own name table.
[[nodiscard]] std::string render_perfetto(std::span<const obs::TraceFile> traces);

}  // namespace ugrpc::tools
