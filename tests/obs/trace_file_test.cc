// The trace file (obs/trace_file.h), the one form in which a trace leaves a
// process.  A round trip on a seeded lossy, duplicating run must give back
// its header, merged() field by field, the same names, the same checker
// verdict and a Perfetto rendering of every closed span.  A dump is bytes
// from disk, so a seeded mutation campaign over a real dump -- truncation at
// every length, byte flips, lying lengths and counts, unknown expect flags,
// bad name ids, bad magic or version, unknown kinds -- must see each input
// rejected with a reason or loaded into a history spans_of() accepts and the
// renderer draws, never a crash (ASan/UBSan in CI).
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "core/config_builder.h"
#include "core/observe.h"
#include "core/scenario.h"
#include "obs/checker.h"
#include "obs/trace_file.h"
#include "perfetto.h"

namespace ugrpc::obs {
namespace {

/// Offsets into a file with an empty header (no reason, no config line, no
/// termination bound) and no names: magic, version, header, dropped, counts.
constexpr std::size_t kVersionAt = 4;
constexpr std::size_t kReasonAt = 8;
constexpr std::size_t kConfigAt = 12;
constexpr std::size_t kFlagsAt = 16;
constexpr std::size_t kNameCountAt = 33;
constexpr std::size_t kRecordCountAt = 37;  // with no names
constexpr std::size_t kFirstRecordAt = 41;  // with no names
/// Offsets within a record.
constexpr std::size_t kNameIdAt = 68;
constexpr std::size_t kKindAt = 72;

/// A seeded at-least-once run of several calls that wait for all three
/// servers, over a lossy, duplicating network: retransmissions, duplicate
/// deliveries and duplicate executions all appear in its trace.
void lossy_run(Tracer& tracer) {
  core::ScenarioParams p;
  p.num_servers = 3;
  p.config = core::ConfigBuilder::at_least_once().acceptance_limit(3).build();
  p.faults.drop_prob = 0.2;
  p.faults.dup_prob = 0.3;
  p.seed = 29;
  p.tracer = &tracer;
  core::Scenario s(std::move(p));
  s.run_client(0, [&](core::Client& c) -> sim::Task<> {
    for (int i = 0; i < 8; ++i) (void)co_await c.call(s.group(), OpId{1}, Buffer{});
  });
  s.run_until_quiescent();
}

/// Where the name count of a file with header `h` sits: after the magic, the
/// version, the header and the dropped count.
std::size_t name_count_at(const TraceHeader& h) {
  return 8 + 4 + h.reason.size() + 4 + h.config.size() + 1 +
         (h.expect.termination_bound.has_value() ? 8 : 0) + 8 + 8;
}

/// The header a site running `config` writes.
TraceHeader header_of(const core::Config& config, std::string reason) {
  return {std::move(reason), config.describe(), core::expectations_from(config)};
}

/// A real dump: one exactly-once call to two servers over a duplicating link.
Buffer real_dump() {
  Tracer tracer;
  core::ScenarioParams p;
  p.num_servers = 2;
  p.config = core::ConfigBuilder::exactly_once().build();
  p.faults.dup_prob = 0.5;
  p.seed = 11;
  p.tracer = &tracer;
  core::Scenario s(std::move(p));
  s.run_client(0, [&](core::Client& c) -> sim::Task<> {
    (void)co_await c.call(s.group(), OpId{1}, Buffer{});
  });
  s.run_until_quiescent();
  return encode_trace(tracer, header_of(core::ConfigBuilder::exactly_once().build(), "watchdog"));
}

std::vector<std::byte> bytes_of(const Buffer& b) { return {b.bytes().begin(), b.bytes().end()}; }

void put_u32(std::vector<std::byte>& bytes, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) bytes.at(at + i) = static_cast<std::byte>(v >> (8 * i));
}

void put_i64(std::vector<std::byte>& bytes, std::size_t at, std::int64_t v) {
  const auto u = static_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) bytes.at(at + i) = static_cast<std::byte>(u >> (8 * i));
}

/// Decodes `bytes` and checks the decoder's contract, and replays what
/// loads through the checker against its header's Expect; returns whether
/// it loaded.
bool decode_checked(const std::vector<std::byte>& bytes) {
  std::string error;
  const auto file = decode_trace(bytes, &error);
  if (!file.has_value()) {
    EXPECT_FALSE(error.empty()) << "a rejected dump must say why";
    return false;
  }
  for (std::size_t i = 1; i < file->events.size(); ++i) {
    EXPECT_LT(file->events[i - 1].seq, file->events[i].seq);
  }
  for (const Event& e : file->events) {
    EXPECT_LT(static_cast<std::size_t>(e.kind), kKindCount);
    EXPECT_LT(e.name, file->names.size());
  }
  (void)spans_of(file->events);  // deriving spans from any loaded history is safe
  (void)tools::render_perfetto(std::span(&*file, 1));
  (void)check(file->events, file->header.expect);  // and so is checking it
  return true;
}

/// A one-record file with no names whose record has kind `kind`.
std::vector<std::byte> one_record(Kind kind) {
  Tracer tracer;
  tracer.site(ProcessId{1}).record(sim::usec(1), kind, 7);
  return bytes_of(encode_trace(tracer, {}));
}

TEST(TraceFile, RoundTripEqualsMergedHistoryCheckerAndPerfetto) {
  Tracer tracer;
  lossy_run(tracer);
  ASSERT_GT(tracer.count(Kind::kRetransmit), 0u);
  ASSERT_GT(tracer.count(Kind::kMsgDuplicated), 0u);

  const core::Config config = core::ConfigBuilder::at_least_once().acceptance_limit(3).build();
  std::string error;
  const auto file = decode_trace(bytes_of(encode_trace(tracer, header_of(config, ""))), &error);
  ASSERT_TRUE(file.has_value()) << error;
  EXPECT_EQ(file->header.reason, "");
  EXPECT_EQ(file->header.config, config.describe());
  EXPECT_FALSE(file->header.expect.unique_execution) << "at-least-once promises no uniqueness";
  EXPECT_EQ(file->dropped, 0u);
  EXPECT_EQ(file->unknown_kinds, 0u);
  const std::vector<Event> want = tracer.merged();
  ASSERT_EQ(file->events.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const Event& g = file->events[i];
    const Event& w = want[i];
    EXPECT_EQ(g.seq, w.seq);
    EXPECT_EQ(g.time, w.time);
    EXPECT_EQ(g.call, w.call);
    EXPECT_EQ(g.a, w.a);
    EXPECT_EQ(g.b, w.b);
    EXPECT_EQ(g.trace, w.trace);
    EXPECT_EQ(g.link, w.link);
    EXPECT_EQ(g.ns, w.ns);
    EXPECT_EQ(g.site, w.site);
    EXPECT_EQ(g.name, w.name);
    EXPECT_EQ(g.kind, w.kind);
    EXPECT_EQ(g.flags, w.flags);
    EXPECT_EQ(file->names.at(g.name), tracer.name(w.name)) << "record " << i;
  }
  EXPECT_EQ(file->names, tracer.names());

  // Demand more than at-least-once promises, so the verdict has violations.
  Expect strict;
  strict.unique_execution = true;
  const Report got = check(file->events, strict);
  const Report ref = check(want, strict);
  EXPECT_FALSE(ref.ok()) << "duplicate executions must show as violations";
  ASSERT_EQ(got.violations.size(), ref.violations.size());
  for (std::size_t i = 0; i < ref.violations.size(); ++i) {
    EXPECT_EQ(got.violations[i].invariant, ref.violations[i].invariant);
    EXPECT_EQ(got.violations[i].site, ref.violations[i].site);
    EXPECT_EQ(got.violations[i].call, ref.violations[i].call);
    EXPECT_EQ(got.violations[i].time, ref.violations[i].time);
    EXPECT_EQ(got.violations[i].detail, ref.violations[i].detail);
  }
  EXPECT_EQ(got.summary, ref.summary);
  EXPECT_EQ(got.summary.calls_issued, 8u);
  EXPECT_GT(got.summary.retransmissions, 0u);

  // The rendering draws one complete event per closed span of the run.
  const std::string doc = tools::render_perfetto(std::span(&*file, 1));
  std::size_t drawn = 0;
  for (std::size_t at = 0; (at = doc.find("\"ph\":\"X\"", at)) != std::string::npos; ++at) ++drawn;
  std::size_t closed = 0;
  for (const Span& span : tracer.spans()) closed += span.open() ? 0 : 1;
  EXPECT_GT(closed, 0u);
  EXPECT_EQ(drawn, closed);
}

TEST(TraceFile, HeaderRoundTripsEveryExpectation) {
  Tracer tracer;
  tracer.site(ProcessId{1}).record(sim::usec(1), Kind::kCheckpoint, 7);
  TraceHeader every{"signal:SIGABRT", "a config line", {}};
  every.expect = {true, true, sim::msec(250), sim::usec(1500), true, true, true};
  for (const TraceHeader& want : {TraceHeader{}, every}) {
    std::string error;
    const auto file = decode_trace(bytes_of(encode_trace(tracer, want)), &error);
    ASSERT_TRUE(file.has_value()) << error;
    const Expect& got = file->header.expect;
    EXPECT_EQ(file->header.reason, want.reason);
    EXPECT_EQ(file->header.config, want.config);
    EXPECT_EQ(got.unique_execution, want.expect.unique_execution);
    EXPECT_EQ(got.atomic_execution, want.expect.atomic_execution);
    EXPECT_EQ(got.termination_bound, want.expect.termination_bound);
    EXPECT_EQ(got.termination_slack, want.expect.termination_slack);
    EXPECT_EQ(got.fifo_order, want.expect.fifo_order);
    EXPECT_EQ(got.total_order, want.expect.total_order);
    EXPECT_EQ(got.terminate_orphans, want.expect.terminate_orphans);
    EXPECT_EQ(file->events.size(), 1u);
  }
}

TEST(TraceFile, MalformedHeaderIsRejected) {
  const std::vector<std::byte> base = one_record(Kind::kCheckpoint);
  std::string error;
  for (const std::size_t at : {kReasonAt, kConfigAt}) {
    for (const std::uint32_t lie : {std::uint32_t{5000}, UINT32_MAX}) {
      std::vector<std::byte> length = base;
      put_u32(length, at, lie);
      EXPECT_FALSE(decode_trace(length, &error).has_value()) << at << " " << lie;
      EXPECT_NE(error.find("truncated"), std::string::npos) << error;
    }
  }
  for (const int bit : {6, 7}) {
    std::vector<std::byte> flags = base;
    flags[kFlagsAt] |= static_cast<std::byte>(1 << bit);
    EXPECT_FALSE(decode_trace(flags, &error).has_value()) << bit;
    EXPECT_NE(error.find("expect flags"), std::string::npos) << error;
  }
  // A bound flagged present in a file cut off inside it.
  Tracer tracer;
  tracer.site(ProcessId{1}).record(sim::usec(1), Kind::kCallIssued, 7);
  TraceHeader bounded;
  bounded.expect.termination_bound = sim::msec(100);
  const std::vector<std::byte> whole = bytes_of(encode_trace(tracer, bounded));
  ASSERT_TRUE(decode_trace(whole).has_value());
  const std::vector<std::byte> cut(whole.begin(), whole.begin() + kFlagsAt + 1 + 4);
  EXPECT_FALSE(decode_trace(cut, &error).has_value());
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;

  // A bound, a slack or a record time that obs::check's sums could overflow
  // (INT64_MAX stopped the checker under UBSan), or a negative one, which
  // its -1 "never issued" sentinel could meet.  The bound sits right after
  // the flags, the slack after it, and a record's time after its seq.
  const std::size_t time_at = whole.size() - kTraceRecordBytes + 8;
  for (const std::int64_t lie : {INT64_MAX, std::int64_t{1} << 60, std::int64_t{-1}, INT64_MIN}) {
    for (const std::size_t at : {kFlagsAt + 1, kFlagsAt + 1 + 8, time_at}) {
      std::vector<std::byte> bytes = whole;
      put_i64(bytes, at, lie);
      EXPECT_FALSE(decode_trace(bytes, &error).has_value()) << at << " " << lie;
      EXPECT_NE(error.find("outside [0, 2^60) us"), std::string::npos) << error;
    }
  }
  for (const std::size_t at : {kFlagsAt + 1, kFlagsAt + 1 + 8, time_at}) {
    std::vector<std::byte> bytes = whole;
    put_i64(bytes, at, (std::int64_t{1} << 60) - 1);
    EXPECT_TRUE(decode_checked(bytes)) << "the largest legal value loads and checks, at " << at;
  }
}

TEST(TraceFile, HeaderCarriesTheDroppedCount) {
  Tracer tracer(/*per_site_capacity=*/4);
  SiteTrace& st = tracer.site(ProcessId{2});
  for (int i = 0; i < 10; ++i) st.record(sim::usec(i), Kind::kRetransmit, 1);
  const auto file = decode_trace(bytes_of(encode_trace(tracer, {})));
  ASSERT_TRUE(file.has_value());
  EXPECT_EQ(file->dropped, 6u);
  ASSERT_EQ(file->events.size(), 4u);
  EXPECT_EQ(file->events.front().seq, 7u) << "the newest records are the ones kept";
}

TEST(TraceFile, CountsBeyondTheFileAreRejectedBeforeReserving) {
  const std::vector<std::byte> base = one_record(Kind::kCheckpoint);
  for (const std::uint32_t lie : {std::uint32_t{2}, std::uint32_t{1} << 24, UINT32_MAX}) {
    std::vector<std::byte> records = base;
    put_u32(records, kRecordCountAt, lie);
    std::string error;
    EXPECT_FALSE(decode_trace(records, &error).has_value()) << lie;
    EXPECT_NE(error.find("record count"), std::string::npos) << error;

    std::vector<std::byte> names = base;
    put_u32(names, kNameCountAt, lie == 2 ? 40 : lie);
    EXPECT_FALSE(decode_trace(names, &error).has_value()) << lie;
    EXPECT_NE(error.find("name count"), std::string::npos) << error;
  }
  std::vector<std::byte> trailing = base;
  trailing.push_back(std::byte{0});
  EXPECT_FALSE(decode_trace(trailing).has_value()) << "bytes after the last record";
}

TEST(TraceFile, BadMagicVersionOrNameIdIsRejected) {
  const std::vector<std::byte> base = one_record(Kind::kCheckpoint);
  ASSERT_TRUE(decode_checked(base));
  std::string error;

  std::vector<std::byte> magic = base;
  magic[0] = std::byte{'['};
  EXPECT_FALSE(decode_trace(magic, &error).has_value());
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
  const std::string old_json = "[\n  {\"seq\":1,\"t\":0,\"site\":1,\"kind\":\"checkpoint\"}\n]";
  EXPECT_FALSE(decode_trace(std::as_bytes(std::span(old_json)), &error).has_value())
      << "a trace.json dump from an older build does not load";

  std::vector<std::byte> version = base;
  put_u32(version, kVersionAt, kTraceFileVersion + 1);
  EXPECT_FALSE(decode_trace(version, &error).has_value());
  EXPECT_NE(error.find("version"), std::string::npos) << error;
  // A version-1 file, which has no header, is named as such.
  put_u32(version, kVersionAt, 1);
  EXPECT_FALSE(decode_trace(version, &error).has_value());
  EXPECT_NE(error.find("version 1;"), std::string::npos) << error;

  std::vector<std::byte> name = base;
  put_u32(name, kFirstRecordAt + kNameIdAt, 1);  // the table holds only id 0
  EXPECT_FALSE(decode_trace(name, &error).has_value());
  EXPECT_NE(error.find("unknown id"), std::string::npos) << error;
}

TEST(TraceLoadFuzz, RealDumpRoundTripsItsSpans) {
  Tracer tracer;
  SiteTrace& st = tracer.site(ProcessId{3});
  const SpanCtx chain = st.open(sim::usec(1), Kind::kEventTriggered, SpanCtx{8, 0});
  const SpanCtx send = st.open(sim::usec(2), Kind::kMsgSent, chain, 0, 4, 1);
  st.close(sim::usec(3), send.parent, Kind::kSpanEnd, 0, 0, 0, /*flagged=*/true);
  st.close(sim::usec(4), chain.parent);
  const auto loaded = decode_trace(bytes_of(encode_trace(tracer, {})));
  ASSERT_TRUE(loaded.has_value());
  const auto want = tracer.spans();
  const auto got = spans_of(loaded->events);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id);
    EXPECT_EQ(got[i].parent, want[i].parent);
    EXPECT_EQ(got[i].trace, want[i].trace);
    EXPECT_EQ(got[i].kind, want[i].kind);
    EXPECT_EQ(got[i].ns_end, want[i].ns_end);
    EXPECT_EQ(got[i].flagged, want[i].flagged);
  }
  EXPECT_TRUE(decode_checked(bytes_of(real_dump())));
}

TEST(TraceLoadFuzz, MutatedDumpsAreRejectedOrLoadedNeverCrash) {
  const std::vector<std::byte> base = bytes_of(real_dump());
  ASSERT_GT(base.size(), 1000u);

  // Truncation at every prefix length: only the whole file loads.
  for (std::size_t n = 0; n < base.size(); ++n) {
    EXPECT_FALSE(decode_checked({base.begin(), base.begin() + static_cast<std::ptrdiff_t>(n)}))
        << "prefix of " << n << " bytes";
  }

  // Where the records start: after the header and the name table.
  const auto file = decode_trace(base);
  ASSERT_TRUE(file.has_value());
  ASSERT_FALSE(file->header.expect.termination_bound.has_value()) << "case 6 finds the flags";
  const std::size_t names_at = name_count_at(file->header);
  const std::size_t records_at = base.size() - file->events.size() * kTraceRecordBytes;
  const std::size_t record_count = file->events.size();

  std::mt19937_64 rng(20261019);
  const auto pick = [&rng](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  const std::vector<std::uint32_t> hostile = {
      0, 1, 2, 255, 256, 0xFFFF, 0x10000, 0x7FFFFFFF, 0x80000000, UINT32_MAX - 1, UINT32_MAX};
  std::size_t loaded = 0;
  std::size_t rejected = 0;
  constexpr int kRounds = 3000;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::byte> bytes = base;
    const std::size_t record = records_at + pick(record_count) * kTraceRecordBytes;
    switch (round % 8) {
      case 0:  // byte flips anywhere
        for (int i = 0; i < 1 + static_cast<int>(pick(8)); ++i) {
          bytes[pick(bytes.size())] = static_cast<std::byte>(pick(256));
        }
        break;
      case 1:  // a hostile name count or record count
        put_u32(bytes, pick(2) == 0 ? names_at : records_at - 4, hostile[pick(hostile.size())]);
        break;
      case 2:  // a record naming an id past the table
        put_u32(bytes, record + kNameIdAt,
                static_cast<std::uint32_t>(file->names.size() + pick(1000)));
        break;
      case 3:  // bad magic or version
        put_u32(bytes, pick(2) == 0 ? 0 : kVersionAt, hostile[pick(hostile.size())]);
        break;
      case 4:  // unknown kinds: skipped and counted
        for (int i = 0; i < 1 + static_cast<int>(pick(4)); ++i) {
          bytes[records_at + pick(record_count) * kTraceRecordBytes + kKindAt] =
              static_cast<std::byte>(kKindCount + pick(256 - kKindCount));
        }
        break;
      case 5:  // a hostile reason or config length
        put_u32(bytes, pick(2) == 0 ? kReasonAt : kReasonAt + 4 + file->header.reason.size(),
                hostile[pick(hostile.size())]);
        break;
      case 6:  // any expect flags byte: unknown bits, or a bound that is not there
        bytes[names_at - 8 - 8 - 1] = static_cast<std::byte>(pick(256));
        break;
      default:  // flips inside one record's fields, span flags included
        for (int i = 0; i < 1 + static_cast<int>(pick(4)); ++i) {
          bytes[record + pick(kTraceRecordBytes)] = static_cast<std::byte>(pick(256));
        }
        break;
    }
    if (decode_checked(bytes)) {
      ++loaded;
    } else {
      ++rejected;
    }
  }
  // The campaign exercised both outcomes.
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(TraceLoadFuzz, UnknownKindsAreCountedNotFatal) {
  Tracer tracer;
  SiteTrace& st = tracer.site(ProcessId{1});
  st.record(sim::usec(1), Kind::kCheckpoint, 0, 9);
  st.record(sim::usec(2), Kind::kRetransmit, 4, 2);
  std::vector<std::byte> bytes = bytes_of(encode_trace(tracer, {}));
  bytes[kFirstRecordAt + kKindAt] = static_cast<std::byte>(kKindCount);  // from a newer build
  bytes[kFirstRecordAt + kTraceRecordBytes + kKindAt + 1] = std::byte{0xFF};  // unknown flags
  const auto loaded = decode_trace(bytes);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->unknown_kinds, 1u);
  ASSERT_EQ(loaded->events.size(), 1u);
  EXPECT_EQ(loaded->events[0].kind, Kind::kRetransmit);
  EXPECT_EQ(loaded->events[0].call, 4u);
  EXPECT_EQ(loaded->events[0].flags, kSpanOpen | kSpanClose | kSpanFlagged)
      << "flag bits this build does not know are masked";
}

}  // namespace
}  // namespace ugrpc::obs
