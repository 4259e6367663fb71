// Seeded mutation test for tools/json_value.h's json_parse, which reads
// bytes from the network: ugrpcstat parses whatever a /introspect endpoint
// answers.  Starting from a real introspection document, truncation, byte
// flips, values of the wrong type or range and deep nesting must each be
// rejected with a diagnostic or parsed into a tree every accessor reads
// safely -- never a crash, under ASan/UBSan in CI.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "core/telemetry.h"
#include "json_value.h"
#include "obs/trace.h"

namespace ugrpc::tools {
namespace {

/// The introspection document of a client with one call still pending.
std::string real_document() {
  obs::Tracer tracer;
  core::ScenarioParams p;
  p.num_servers = 2;
  p.tracer = &tracer;
  core::Scenario s(std::move(p));
  core::SiteTelemetry telemetry(s.client_site(0));
  s.run_client(0, [&](core::Client& c) -> sim::Task<> {
    (void)co_await c.call_async(s.group(), OpId{1}, Buffer{});
  }, sim::usec(150));
  return telemetry.introspection_json();
}

/// Reads every value of `v` through every accessor; returns the node count.
std::size_t walk(const JsonValue& v) {
  (void)v.as_bool();
  (void)v.as_u64();
  (void)v.as_i64();
  (void)v.as_string();
  (void)v["missing"];
  std::size_t nodes = 1;
  for (const JsonValue& item : v.as_array()) nodes += walk(item);
  for (const auto& [key, member] : v.as_object()) nodes += walk(member);
  return nodes;
}

/// Parses `text` and checks the parser's contract; returns whether it parsed.
bool parse_checked(const std::string& text) {
  std::string error;
  const auto doc = json_parse(text, &error);
  if (!doc.has_value()) {
    EXPECT_FALSE(error.empty()) << "a rejected document must say why";
    return false;
  }
  EXPECT_GE(walk(*doc), 1u);
  return true;
}

TEST(JsonParseFuzz, RealIntrospectionParses) {
  const std::string text = real_document();
  const auto doc = json_parse(text);
  ASSERT_TRUE(doc.has_value()) << text;
  EXPECT_TRUE((*doc)["up"].as_bool());
  EXPECT_FALSE((*doc)["micro_protocols"].as_array().empty());
  EXPECT_GT(walk(*doc), 10u);
}

TEST(JsonParseFuzz, MutatedDocumentsAreRejectedOrParsedNeverCrash) {
  const std::string base = real_document();
  ASSERT_GT(base.size(), 100u);
  // Values that stress the number path and the type checks.
  const std::vector<std::string> hostile = {
      "\"s\"",  "[]",   "{}",    "null", "true", "-1",  "1.5",
      "1e999",  "-1e999", "18446744073709551616", "99999999999999999999999999",
      "-9223372036854775809", "1e19", "-0", "4294967296", "255", "256", "\"\\ud800\"",
  };
  std::mt19937_64 rng(20261017);
  const auto pick = [&rng](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  constexpr int kRounds = 3000;
  for (int round = 0; round < kRounds; ++round) {
    std::string text = base;
    switch (round % 5) {
      case 0:  // truncation
        text.resize(pick(text.size()));
        break;
      case 1:  // byte flips
        for (int i = 0; i < 1 + static_cast<int>(pick(8)); ++i) {
          text[pick(text.size())] = static_cast<char>(pick(256));
        }
        break;
      case 2:  // a member value replaced by one of the wrong type or range
      case 3: {
        const std::size_t colon = text.find(':', pick(text.size()));
        if (colon == std::string::npos) break;
        std::size_t end = colon + 1;
        while (end < text.size() && text[end] != ',' && text[end] != '}') ++end;
        text.replace(colon + 1, end - colon - 1, hostile[pick(hostile.size())]);
        break;
      }
      default: {  // deep nesting in place of a value, or around the document
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
    }
    if (parse_checked(text)) {
      ++parsed;
    } else {
      ++rejected;
    }
  }
  // The campaign exercised both outcomes.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(JsonParseFuzz, OutOfRangeNumbersReadAsTheFallback) {
  const auto doc = json_parse(
      "{\"huge\":1e999,\"neg\":-1,\"big\":18446744073709551616,\"str\":\"7\",\"max\":"
      "18446744073709551615}");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ((*doc)["huge"].as_u64(), 0u) << "an out-of-range number reads as absent";
  EXPECT_EQ((*doc)["huge"].as_i64(7), 7);
  EXPECT_EQ((*doc)["neg"].as_u64(3), 3u);
  EXPECT_EQ((*doc)["neg"].as_i64(), -1);
  EXPECT_EQ((*doc)["big"].as_u64(5), 5u);
  EXPECT_EQ((*doc)["str"].as_u64(), 0u) << "a string is not a number";
  EXPECT_EQ((*doc)["max"].as_u64(), UINT64_MAX);
  EXPECT_FALSE(json_parse(std::string(100, '[') + std::string(100, ']')).has_value())
      << "nesting is capped";
}

TEST(JsonParseFuzz, UnicodeEscapesDecodeToUtf8) {
  const auto text = json_parse("\"\\u00e9\\uD83D\\ude00\\ud800x\"");
  ASSERT_TRUE(text.has_value());
  EXPECT_EQ(text->as_string(), "\xc3\xa9\xf0\x9f\x98\x80\xef\xbf\xbdx")
      << "a pair combines, a lone surrogate reads as U+FFFD";
  for (const char* bad : {"\"\\u+0e9\"", "\"\\u-0e9\"", "\"\\u0e9\"", "\"\\u 0e9\""}) {
    EXPECT_FALSE(json_parse(bad).has_value()) << bad;
  }
}

}  // namespace
}  // namespace ugrpc::tools
