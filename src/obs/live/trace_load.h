// Re-hydrates a Tracer::dump_json() document into checker-ready events.
//
// The flight recorder (core/telemetry.h) persists trace rings as JSON so a
// crash dump is self-describing and diffable.  To make the dump *loadable*
// -- runnable back through obs::check() / obs::summarize() by ugrpcstat or a
// post-mortem script -- this inverts dump_json(): kinds are matched by their
// stable kind_name() strings (kind_from_name), operands by field name.
// Events with an unknown kind are skipped and counted, not fatal: a newer
// build must be able to read an older build's dump.  Span fields (trace,
// link, ns, flags) are optional, so a dump written before spans became
// records loads as a span-less history; spans_of() re-derives the spans of
// a newer one.
//
// The `name` field of loaded events is 0: dump_json() stores the interned
// string inline per event, and the checker never reads names -- they exist
// for human display, which post-mortem tools take from the JSON directly.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace ugrpc::obs::live {

struct LoadedTrace {
  /// Sequence-ordered events, as obs::check() expects.
  std::vector<Event> events;
  /// Events whose "kind" string no build of this binary knows.
  std::uint64_t unknown_kinds = 0;
};

/// Parses a dump_json() document.  nullopt (with a diagnostic in `error`
/// when non-null) if the text is not a JSON array of event objects.
[[nodiscard]] std::optional<LoadedTrace> load_trace_json(std::string_view text,
                                                          std::string* error = nullptr);

}  // namespace ugrpc::obs::live
