#include "obs/trace_file.h"

#include <utility>

#include "obs/checker.h"

namespace ugrpc::obs {

Buffer encode_trace(const Tracer& t, const TraceHeader& header) {
  const std::vector<Event> history = t.merged();
  const std::vector<std::string>& names = t.names();
  Buffer out;
  Writer w(out);
  w.u32(kTraceFileMagic);
  w.u32(kTraceFileVersion);
  w.str(header.reason);
  w.str(header.config);
  w.u64(t.total_dropped());
  w.u32(static_cast<std::uint32_t>(names.size() - 1));
  for (std::size_t id = 1; id < names.size(); ++id) w.str(names[id]);
  w.u32(static_cast<std::uint32_t>(history.size()));
  for (const Event& e : history) {
    w.u64(e.seq);
    w.i64(e.time);
    w.u64(e.call);
    w.u64(e.a);
    w.u64(e.b);
    w.u64(e.trace);
    w.u64(e.link);
    w.u64(e.ns);
    w.u32(e.site.value());
    w.u32(e.name);
    w.u8(static_cast<std::uint8_t>(e.kind));
    w.u8(e.flags);
  }
  return out;
}

std::optional<TraceFile> decode_trace(std::span<const std::byte> bytes, std::string* error) {
  const auto fail = [error](std::string why) -> std::optional<TraceFile> {
    if (error != nullptr) *error = std::move(why);
    return std::nullopt;
  };
  try {
    Reader r(bytes);
    if (r.u32() != kTraceFileMagic) return fail("bad magic: not a trace file (nor is trace.json)");
    if (const std::uint32_t v = r.u32(); v != kTraceFileVersion) {
      return fail("trace file version " + std::to_string(v) + "; this build reads version " +
                  std::to_string(kTraceFileVersion) + " only");
    }
    TraceFile out;
    out.header.reason = r.str();
    out.header.config = r.str();
    out.dropped = r.u64();
    // Every name takes at least its 4-byte length prefix.
    const std::uint32_t name_count = r.u32();
    if (name_count > r.remaining() / 4) return fail("name count exceeds the file");
    out.names.reserve(std::size_t{name_count} + 1);
    out.names.emplace_back();
    for (std::uint32_t i = 0; i < name_count; ++i) out.names.push_back(r.str());
    const std::uint32_t count = r.u32();
    if (r.remaining() != std::size_t{count} * kTraceRecordBytes) {
      return fail("record count " + std::to_string(count) + " does not match the " +
                  std::to_string(r.remaining()) + " bytes left");
    }
    out.events.reserve(count);
    std::uint64_t last_seq = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      Event e;
      e.seq = r.u64();
      e.time = r.i64();
      e.call = r.u64();
      e.a = r.u64();
      e.b = r.u64();
      e.trace = r.u64();
      e.link = r.u64();
      e.ns = r.u64();
      e.site = ProcessId(r.u32());
      e.name = r.u32();
      const std::uint8_t kind = r.u8();
      e.flags = r.u8() & (kSpanOpen | kSpanClose | kSpanFlagged);
      if (e.seq <= last_seq) return fail("record " + std::to_string(i) + " is out of order");
      last_seq = e.seq;
      if (e.time < 0 || e.time >= kTimeLimit) {
        return fail("record " + std::to_string(i) + " has time outside [0, 2^60) us");
      }
      if (e.name >= out.names.size()) {
        return fail("record " + std::to_string(i) + " names unknown id " + std::to_string(e.name));
      }
      if (kind >= kKindCount) {
        ++out.unknown_kinds;
        continue;
      }
      e.kind = static_cast<Kind>(kind);
      out.events.push_back(e);
    }
    return out;
  } catch (const CodecError& e) {
    return fail(std::string("truncated trace file: ") + e.what());
  }
}

}  // namespace ugrpc::obs
