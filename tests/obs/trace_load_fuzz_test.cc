// Seeded mutation test for obs::live::load_trace_json, the loader that
// re-hydrates flight-recorder trace.json dumps.  A dump is bytes from disk:
// whatever a truncated write, a flipped bit or a hand edit leaves behind must
// be rejected with an error or loaded (unknown kinds skipped and counted) --
// never a crash, under ASan/UBSan in CI.  Starts from a real dump of a traced
// call, which carries span fields, and also pins that a dump in the format
// without span fields still loads.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/config_builder.h"
#include "core/scenario.h"
#include "obs/live/trace_load.h"
#include "obs/trace.h"

namespace ugrpc::obs::live {
namespace {

/// A real dump: one exactly-once call to two servers over a duplicating link.
std::string real_dump() {
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
  return tracer.dump_json();
}

/// `dump` without its span fields: the format written before spans were
/// records.
std::string strip_span_fields(std::string dump) {
  for (const std::string field : {",\"trace\":", ",\"link\":", ",\"ns\":", ",\"flags\":"}) {
    for (std::size_t at; (at = dump.find(field)) != std::string::npos;) {
      dump.erase(at, dump.find_first_not_of("0123456789", at + field.size()) - at);
    }
  }
  return dump;
}

/// Loads `text` and checks the loader's contract; returns whether it loaded.
bool load_checked(const std::string& text) {
  std::string error;
  const auto loaded = load_trace_json(text, &error);
  if (!loaded.has_value()) {
    EXPECT_FALSE(error.empty()) << "a rejected dump must say why";
    return false;
  }
  for (std::size_t i = 1; i < loaded->events.size(); ++i) {
    EXPECT_LE(loaded->events[i - 1].seq, loaded->events[i].seq);
  }
  for (const Event& e : loaded->events) EXPECT_LT(static_cast<std::size_t>(e.kind), kKindCount);
  (void)spans_of(loaded->events);  // deriving spans from any loaded history is safe
  return true;
}

TEST(TraceLoadFuzz, RealDumpRoundTripsItsSpans) {
  Tracer tracer;
  SiteTrace& st = tracer.site(ProcessId{3});
  const SpanCtx chain = st.open(sim::usec(1), Kind::kEventTriggered, SpanCtx{8, 0});
  const SpanCtx send = st.open(sim::usec(2), Kind::kMsgSent, chain, 0, 4, 1);
  st.close(sim::usec(3), send.parent, Kind::kSpanEnd, 0, 0, 0, /*flagged=*/true);
  st.close(sim::usec(4), chain.parent);
  const auto loaded = load_trace_json(tracer.dump_json());
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
  EXPECT_TRUE(load_checked(real_dump()));
}

TEST(TraceLoadFuzz, DumpWithoutSpanFieldsStillLoads) {
  const std::string dump = real_dump();
  const std::string old_format = strip_span_fields(dump);
  ASSERT_NE(old_format, dump);
  ASSERT_EQ(old_format.find("\"link\""), std::string::npos);
  const auto now = load_trace_json(dump);
  const auto old = load_trace_json(old_format);
  ASSERT_TRUE(now.has_value());
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(old->events.size(), now->events.size());
  EXPECT_EQ(old->unknown_kinds, 0u);
  EXPECT_TRUE(spans_of(old->events).empty()) << "no span fields, no spans";
  EXPECT_FALSE(spans_of(now->events).empty());
}

TEST(TraceLoadFuzz, MutatedDumpsAreRejectedOrLoadedNeverCrash) {
  const std::string base = real_dump();
  ASSERT_GT(base.size(), 100u);
  // Values that stress the number path and the type checks.
  const std::vector<std::string> hostile = {
      "\"s\"",  "[]",   "{}",    "null", "true", "-1",  "1.5",
      "1e999",  "-1e999", "18446744073709551616", "99999999999999999999999999",
      "-9223372036854775809", "1e19", "-0", "4294967296", "255", "256",
  };
  std::mt19937_64 rng(20261017);
  const auto pick = [&rng](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  std::size_t loaded = 0;
  std::size_t rejected = 0;
  constexpr int kRounds = 3000;
  for (int round = 0; round < kRounds; ++round) {
    std::string text = base;
    switch (round % 6) {
      case 0:  // truncation
        text.resize(pick(text.size()));
        break;
      case 1:  // byte flips
        for (int i = 0; i < 1 + static_cast<int>(pick(8)); ++i) {
          text[pick(text.size())] = static_cast<char>(pick(256));
        }
        break;
      case 2:  // a field value replaced by one of the wrong type or range
      case 3: {
        const std::size_t colon = text.find(':', pick(text.size()));
        if (colon == std::string::npos) break;
        std::size_t end = colon + 1;
        while (end < text.size() && text[end] != ',' && text[end] != '}') ++end;
        text.replace(colon + 1, end - colon - 1, hostile[pick(hostile.size())]);
        break;
      }
      case 4: {  // deep nesting in place of a value, or around the document
        const std::size_t depth = 1 + pick(5000);
        const std::string nested = std::string(depth, '[') + std::string(depth, ']');
        const std::size_t colon = text.find(':', pick(text.size()));
        if (colon == std::string::npos || pick(2) == 0) {
          text = std::string(depth, '[') + text + std::string(depth, ']');
        } else {
          text.insert(colon + 1, nested + ",\"x\":");
        }
        break;
      }
      default:  // an unknown kind name
        if (const std::size_t at = text.find("\"kind\":\"", pick(text.size()));
            at != std::string::npos) {
          text.insert(at + 8, "future_");
        }
        break;
    }
    if (load_checked(text)) {
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
  const std::string text =
      "[{\"seq\":1,\"t\":0,\"site\":1,\"kind\":\"from_the_future\",\"link\":3},"
      "{\"seq\":2,\"t\":1,\"site\":1,\"kind\":\"span_end\",\"link\":1e999,\"flags\":255}]";
  const auto loaded = load_trace_json(text);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->unknown_kinds, 1u);
  ASSERT_EQ(loaded->events.size(), 1u);
  EXPECT_EQ(loaded->events[0].kind, Kind::kSpanEnd);
  EXPECT_EQ(loaded->events[0].link, 0u) << "an out-of-range number reads as absent";
  EXPECT_EQ(loaded->events[0].flags, kSpanOpen | kSpanClose | kSpanFlagged);
}

}  // namespace
}  // namespace ugrpc::obs::live
