#include "perfetto.h"

#include <cinttypes>
#include <cstdio>
#include <set>

#include "obs/json.h"

namespace ugrpc::tools {

namespace {

using obs::json_str;
using obs::Kind;
using obs::Span;
using obs::span_kind_name;

/// trace_event timestamps are fractional microseconds.
std::string ts_us(std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u", ns / 1000,
                static_cast<unsigned>(ns % 1000));
  return buf;
}

/// Track id within a process: one track per trace so concurrent calls do not
/// stack into a false nesting; untraced background work goes to track 0.
std::uint64_t tid_of(const Span& s) { return s.trace == 0 ? 0 : 1 + s.trace % 997; }

}  // namespace

std::string render_perfetto(std::span<const obs::TraceFile> traces) {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  const auto emit = [&](const std::string& obj) {
    if (!first) out += ",\n";
    first = false;
    out += obj;
  };
  std::set<std::uint64_t> named_sites;
  for (const obs::TraceFile& file : traces) {
    for (const Span& s : obs::spans_of(file.events)) {
      if (s.open()) continue;  // still running when the file was written; nothing to draw
      const std::uint64_t pid = s.site.value();
      if (named_sites.insert(pid).second) {
        emit("{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
             ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":" +
             json_str("site " + std::to_string(pid)) + "}}");
      }
      const bool named = s.name < file.names.size() && !file.names[s.name].empty();
      const std::string name = named ? file.names[s.name] : std::string(span_kind_name(s.kind));
      std::string obj = "{\"ph\":\"X\",\"pid\":" + std::to_string(pid) +
                        ",\"tid\":" + std::to_string(tid_of(s)) + ",\"ts\":" + ts_us(s.ns_begin) +
                        ",\"dur\":" + ts_us(s.wall_ns()) + ",\"name\":" + json_str(name) +
                        ",\"cat\":" + json_str(span_kind_name(s.kind)) +
                        ",\"args\":{\"span\":" + std::to_string(s.id) +
                        ",\"parent\":" + std::to_string(s.parent) +
                        ",\"trace\":" + std::to_string(s.trace);
      if (s.call != 0) obj += ",\"call\":" + std::to_string(s.call);
      if (s.a != 0) obj += ",\"a\":" + std::to_string(s.a);
      if (s.flagged) obj += ",\"flagged\":true";
      obj += "}}";
      emit(obj);
      // Cross-process edges: the send-span id travels in the wire frame and
      // becomes the deliver span's parent on the far side, so a flow step
      // "s" at every send matched by a finish "f" at every deliver joins the
      // two files without either side knowing about the other.
      if (s.kind == Kind::kMsgSent || s.kind == Kind::kMsgDropped) {
        emit("{\"ph\":\"s\",\"id\":" + std::to_string(s.id) + ",\"pid\":" + std::to_string(pid) +
             ",\"tid\":" + std::to_string(tid_of(s)) + ",\"ts\":" + ts_us(s.ns_begin) +
             ",\"name\":\"msg\",\"cat\":\"flow\"}");
      } else if (s.kind == Kind::kMsgDelivered && s.parent != 0) {
        emit("{\"ph\":\"f\",\"bp\":\"e\",\"id\":" + std::to_string(s.parent) +
             ",\"pid\":" + std::to_string(pid) + ",\"tid\":" + std::to_string(tid_of(s)) +
             ",\"ts\":" + ts_us(s.ns_begin) + ",\"name\":\"msg\",\"cat\":\"flow\"}");
      }
    }
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

}  // namespace ugrpc::tools
