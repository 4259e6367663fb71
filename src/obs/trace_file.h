// The trace file: the one form in which a trace leaves a process (a flight
// dump's trace.bin, core/telemetry.h, or each process's file of a traced
// `udp_group_call --trace-dir` run).  Its header names the site's
// configuration by its Config::describe() line, so `ugrpcstat
// --check-flight FILE` reads the line back (core::Config::parse), derives
// what it promises (core::expectations_from) and replays the records
// through obs::check() with nothing beside the file; `ugrpcstat --perfetto
// FILE...` renders it offline.  Layout, every integer little-endian at
// fixed width (common/buffer.h's Writer, read back with its bounds-checked
// Reader):
//
//   u32 magic "UGTR"   u32 version (kTraceFileVersion)
//   header: str reason ("" for a run's trace), str config line
//   u64 records overwritten by ring wraps before the dump (total_dropped)
//   u32 name count N, then N length-prefixed strings: interned ids 1..N
//   u32 record count M, then M records of kTraceRecordBytes each:
//     u64 seq, i64 time, u64 call, u64 a, u64 b, u64 trace, u64 link,
//     u64 ns, u32 site, u32 name, u8 kind, u8 flags
//
// Records are written field by field, never as the Event struct, whose
// padding bytes are indeterminate.  Kind values are stored as numbers,
// which is why trace.h's enum is append-only.  The decoder trusts nothing:
// lengths and counts are checked against the bytes left before anything
// is reserved, a name id must index the table, records must come in
// increasing sequence order, every record's time must lie in [0,
// kTimeLimit) us (so obs::check's sums cannot overflow), and a kind this
// build does not know is skipped and counted, so a newer build's dump
// still loads.  The config line is kept as text: a line this build cannot
// parse fails --check-flight instead, since checking a trace against less
// than it promised would call it clean.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "obs/trace.h"

namespace ugrpc::obs {

/// The trace file's name inside a flight dump directory.
inline constexpr const char* kTraceFileName = "trace.bin";
inline constexpr std::uint32_t kTraceFileMagic = 0x52544755;  // "UGTR" on disk
inline constexpr std::uint32_t kTraceFileVersion = 3;
inline constexpr std::size_t kTraceRecordBytes = 8 * 8 + 4 + 4 + 1 + 1;

/// Why a trace was written and by which configuration.
struct TraceHeader {
  std::string reason;  ///< why the trace was written; "" for a run's trace
  std::string config;  ///< the site's Config::describe() line
};

/// A decoded trace file.
struct TraceFile {
  TraceHeader header;
  std::vector<Event> events;       ///< in sequence order; `name` indexes `names`
  std::vector<std::string> names;  ///< names[0] == ""
  std::uint64_t dropped = 0;        ///< records overwritten before the dump
  std::uint64_t unknown_kinds = 0;  ///< records skipped: kind unknown to this build
};

/// `header`, then `t`'s merged history, dropped count and name table, as a
/// trace file.
[[nodiscard]] Buffer encode_trace(const Tracer& t, const TraceHeader& header);

/// Decodes a trace file.  nullopt, with a one-line reason in `error` when
/// non-null, if `bytes` is not a well-formed file of this version.
[[nodiscard]] std::optional<TraceFile> decode_trace(std::span<const std::byte> bytes,
                                                    std::string* error = nullptr);

}  // namespace ugrpc::obs
