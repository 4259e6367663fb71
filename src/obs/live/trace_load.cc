#include "obs/live/trace_load.h"

#include <algorithm>

#include "obs/live/json_value.h"

namespace ugrpc::obs::live {

std::optional<LoadedTrace> load_trace_json(std::string_view text, std::string* error) {
  const std::optional<JsonValue> doc = json_parse(text, error);
  if (!doc.has_value()) return std::nullopt;
  if (!doc->is_array()) {
    if (error != nullptr) *error = "trace dump is not a JSON array";
    return std::nullopt;
  }

  LoadedTrace out;
  out.events.reserve(doc->as_array().size());
  for (const JsonValue& item : doc->as_array()) {
    if (!item.is_object()) {
      if (error != nullptr) *error = "trace entry is not an object";
      return std::nullopt;
    }
    const JsonValue& kind = item["kind"];
    if (!kind.is_string()) {
      if (error != nullptr) *error = "trace entry has no \"kind\" string";
      return std::nullopt;
    }
    const Kind k = kind_from_name(kind.as_string());
    if (k == Kind::kKindCount) {
      ++out.unknown_kinds;
      continue;
    }
    Event e;
    e.seq = item["seq"].as_u64();
    e.time = item["t"].as_i64();
    e.site = ProcessId(static_cast<std::uint32_t>(item["site"].as_u64()));
    e.kind = k;
    e.call = item["call"].as_u64();
    e.a = item["a"].as_u64();
    e.b = item["b"].as_u64();
    // Span fields (absent in dumps that predate spans-as-records: 0).
    e.trace = item["trace"].as_u64();
    e.link = item["link"].as_u64();
    e.ns = item["ns"].as_u64();
    e.flags = static_cast<std::uint8_t>(item["flags"].as_u64() &
                                        (kSpanOpen | kSpanClose | kSpanFlagged));
    out.events.push_back(e);
  }

  // dump_json() emits in merged (sequence) order already; re-sort defensively
  // so hand-edited or concatenated dumps still satisfy check()'s contract.
  std::sort(out.events.begin(), out.events.end(),
            [](const Event& x, const Event& y) { return x.seq < y.seq; });
  return out;
}

}  // namespace ugrpc::obs::live
