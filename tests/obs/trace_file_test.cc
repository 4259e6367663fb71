// The trace file (obs/trace_file.h), the one form in which a trace leaves a
// process.  A round trip on a seeded lossy, duplicating run must give back
// its header, merged() field by field, the same names, the same checker
// verdict and a Perfetto rendering of every closed span.  A dump is bytes
// from disk, so a seeded mutation campaign over a real dump -- truncation at
// every length, byte flips, lying lengths and counts, mutated config lines,
// bad name ids, bad magic or version, unknown kinds -- must see each input
// rejected with a reason or loaded into a history spans_of() accepts, the
// renderer draws and, when its config line parses, the checker replays,
// never a crash (ASan/UBSan in CI).
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

/// Offsets into a file with an empty header (no reason, no config line) and
/// no names: magic, version, header, dropped, counts.
constexpr std::size_t kVersionAt = 4;
constexpr std::size_t kReasonAt = 8;
constexpr std::size_t kConfigAt = 12;
constexpr std::size_t kNameCountAt = 24;
constexpr std::size_t kRecordCountAt = 28;  // with no names
constexpr std::size_t kFirstRecordAt = 32;  // with no names
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
  return 8 + 4 + h.reason.size() + 4 + h.config.size() + 8;
}

/// The header a site running `config` writes.
TraceHeader header_of(const core::Config& config, std::string reason) {
  return {std::move(reason), config.describe()};
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
/// loads through the checker against what its config line promises, when
/// the line parses; returns whether it loaded.
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
  std::string bad_token;
  if (const auto config = core::Config::parse(file->header.config, &bad_token)) {
    (void)check(file->events, core::expectations_from(*config));  // and so is checking it
  } else {
    EXPECT_FALSE(bad_token.empty()) << "a line that does not parse names its token";
  }
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
  const auto parsed = core::Config::parse(file->header.config);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(core::expectations_from(*parsed).unique_execution)
      << "at-least-once promises no uniqueness";
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
  // A record time that obs::check's sums could overflow (INT64_MAX stopped
  // the checker under UBSan), or a negative one, which its -1 "never
  // issued" sentinel could meet, is rejected.  The same values as the
  // config line's termination bound load, but the line does not parse.
  Tracer tracer;
  tracer.site(ProcessId{1}).record(sim::usec(1), Kind::kCallIssued, 7);
  const std::vector<std::byte> whole = bytes_of(encode_trace(tracer, {}));
  const std::size_t time_at = whole.size() - kTraceRecordBytes + 8;
  for (const std::int64_t lie : {INT64_MAX, std::int64_t{1} << 60, std::int64_t{-1}, INT64_MIN}) {
    std::vector<std::byte> bytes = whole;
    put_i64(bytes, time_at, lie);
    EXPECT_FALSE(decode_trace(bytes, &error).has_value()) << lie;
    EXPECT_NE(error.find("outside [0, 2^60) us"), std::string::npos) << error;

    core::Config config;
    config.termination_bound = lie;
    const auto file = decode_trace(bytes_of(encode_trace(tracer, header_of(config, ""))));
    ASSERT_TRUE(file.has_value());
    std::string bad_token;
    EXPECT_FALSE(core::Config::parse(file->header.config, &bad_token).has_value()) << lie;
    EXPECT_EQ(bad_token, "bounded=" + std::to_string(lie) + "us");
  }
  // The largest legal value loads, parses and checks, as a time and a bound.
  core::Config config;
  config.termination_bound = (std::int64_t{1} << 60) - 1;
  std::vector<std::byte> largest = bytes_of(encode_trace(tracer, header_of(config, "")));
  put_i64(largest, largest.size() - kTraceRecordBytes + 8, (std::int64_t{1} << 60) - 1);
  ASSERT_TRUE(core::Config::parse(config.describe()).has_value());
  EXPECT_TRUE(decode_checked(largest));
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
  // A version-1 file (no header) and a version-2 file (an Expect beside the
  // config line) are named as such.
  for (const std::uint32_t old : {1u, 2u}) {
    put_u32(version, kVersionAt, old);
    EXPECT_FALSE(decode_trace(version, &error).has_value());
    EXPECT_NE(error.find("version " + std::to_string(old) + ";"), std::string::npos) << error;
  }

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
  const std::size_t config_at = kReasonAt + 4 + file->header.reason.size() + 4;
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
      case 6:  // the config line's bytes: unknown tokens, repeats, bad numbers
        for (int i = 0; i < 1 + static_cast<int>(pick(3)); ++i) {
          bytes[config_at + pick(file->header.config.size())] = static_cast<std::byte>(pick(256));
        }
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
