// Tests of the Configurator: dependency validation (paper Figure 4), the
// configuration-space enumeration (the paper's 198 services), and the one
// configuration text, describe() and the parse() that reads it back.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/config_builder.h"
#include "core/micro/acceptance.h"

namespace ugrpc::core {
namespace {

Config base_valid() {
  Config c;  // minimal: sync + ignore orphans + plain + nothing optional
  return c;
}

TEST(ConfigValidation, MinimalConfigIsValid) {
  EXPECT_TRUE(is_valid(base_valid()));
}

TEST(ConfigValidation, UniqueRequiresReliable) {
  Config c = base_valid();
  c.unique_execution = true;
  auto errors = validate(c);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].code, Rule::kUniqueRequiresReliable);
  EXPECT_EQ(errors[0].rule, "UniqueExecution->ReliableCommunication");
  c.reliable_communication = true;
  EXPECT_TRUE(is_valid(c));
}

TEST(ConfigValidation, FifoRequiresReliable) {
  Config c = base_valid();
  c.ordering = Ordering::kFifo;
  auto errors = validate(c);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].code, Rule::kFifoRequiresReliable);
  EXPECT_EQ(errors[0].rule, "FifoOrder->ReliableCommunication");
  c.reliable_communication = true;
  EXPECT_TRUE(is_valid(c));
}

TEST(ConfigValidation, TotalRequiresReliableUniqueAndUnbounded) {
  Config c = base_valid();
  c.ordering = Ordering::kTotal;
  c.termination_bound = sim::seconds(1);
  auto errors = validate(c);
  std::set<Rule> rules;
  for (const auto& e : errors) rules.insert(e.code);
  EXPECT_TRUE(rules.contains(Rule::kTotalRequiresReliable));
  EXPECT_TRUE(rules.contains(Rule::kTotalRequiresUnique));
  EXPECT_TRUE(rules.contains(Rule::kTotalExcludesBounded));
  c.reliable_communication = true;
  c.unique_execution = true;
  c.termination_bound.reset();
  EXPECT_TRUE(is_valid(c));
}

TEST(ConfigValidation, AcceptanceLimitMustBePositive) {
  Config c = base_valid();
  c.acceptance_limit = 0;
  auto errors = validate(c);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].code, Rule::kAcceptanceLimitPositive);
}

TEST(ConfigValidation, NonPositiveTimeoutsRejected) {
  Config c = base_valid();
  c.reliable_communication = true;
  c.retrans_timeout = 0;
  auto errors = validate(c);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].code, Rule::kRetransTimeoutPositive);
  c.retrans_timeout = sim::msec(10);
  c.termination_bound = sim::Duration{0};
  errors = validate(c);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].code, Rule::kTerminationBoundPositive);
}

TEST(ConfigValidation, MembershipHeartbeatIsPositiveAndShorterThanTheFailureTimeout) {
  for (const membership::Params bad : {membership::Params{sim::msec(20), sim::msec(20)},
                                       membership::Params{0, sim::msec(100)}}) {
    Config c = base_valid();
    c.membership_params = bad;
    EXPECT_TRUE(is_valid(c)) << "the durations matter only with membership";
    c.use_membership = true;
    auto errors = validate(c);
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_EQ(errors[0].code, Rule::kMembershipTimeouts);
    EXPECT_EQ(errors[0].rule, "Membership.timeouts");
    c.membership_params = {sim::usec(1), sim::usec(2)};
    EXPECT_TRUE(is_valid(c));
  }
}

TEST(ConfigValidation, RuleStringsMatchCodes) {
  // The string field is derived from the code, so the two can never drift.
  for (Rule r : {Rule::kUniqueRequiresReliable, Rule::kFifoRequiresReliable,
                 Rule::kTotalRequiresReliable, Rule::kTotalRequiresUnique,
                 Rule::kTotalExcludesBounded, Rule::kAcceptanceLimitPositive,
                 Rule::kRetransTimeoutPositive, Rule::kTerminationBoundPositive,
                 Rule::kMembershipTimeouts}) {
    EXPECT_NE(to_string(r), "<invalid>");
  }
}

TEST(ConfigSpace, PaperReports198Services) {
  const ConfigSpace space = config_space();
  EXPECT_EQ(space.call_variants, 2);
  EXPECT_EQ(space.orphan_variants, 3);
  EXPECT_EQ(space.execution_variants, 3);
  EXPECT_EQ(space.comm_combinations, 11)
      << "unique x reliable x termination x ordering prunes 24 raw combos to 11";
  EXPECT_EQ(space.total, 198) << "2 x 3 x 3 x 11 = 198 (paper section 5)";
}

TEST(ConfigSpace, EnumerationContainsOnlyValidAndDistinctConfigs) {
  const auto configs = enumerate_valid_configs();
  ASSERT_EQ(configs.size(), 198u);
  std::set<std::string> seen;
  for (const Config& c : configs) {
    EXPECT_TRUE(is_valid(c)) << c.describe();
    EXPECT_TRUE(seen.insert(c.describe()).second) << "duplicate: " << c.describe();
  }
}

TEST(ConfigSpace, ElevenCommCombinationsBreakDownAsExpected)
{
  // none: unreliable x {unique? no} x bounded? -> 2; reliable x unique x
  // bounded -> 4  => 6.  fifo: reliable, unique x bounded -> 4.  total: 1.
  const auto configs = enumerate_valid_configs();
  int none = 0;
  int fifo = 0;
  int total = 0;
  for (const Config& c : configs) {
    if (c.call != CallSemantics::kSynchronous || c.orphan != OrphanHandling::kIgnore ||
        c.execution != ExecutionMode::kPlain) {
      continue;  // fix the other dimensions
    }
    switch (c.ordering) {
      case Ordering::kNone: ++none; break;
      case Ordering::kFifo: ++fifo; break;
      case Ordering::kTotal: ++total; break;
    }
  }
  EXPECT_EQ(none, 6);
  EXPECT_EQ(fifo, 4);
  EXPECT_EQ(total, 1);
}

TEST(ConfigDescribe, SummarizesChoices) {
  Config c;
  c.call = CallSemantics::kAsynchronous;
  c.ordering = Ordering::kFifo;
  c.reliable_communication = true;
  c.termination_bound = sim::seconds(1);
  EXPECT_EQ(c.describe(), "async|ignore-orphans|plain|non-unique|reliable=50ms|fifo|bounded=1s|"
                          "acceptance=1|no-membership|group=1");
}

/// Every field describe() covers; the retransmission timeout and the
/// membership durations count only where their property is configured.
void expect_same_fields(const Config& got, const Config& want) {
  EXPECT_EQ(got.call, want.call);
  EXPECT_EQ(got.orphan, want.orphan);
  EXPECT_EQ(got.execution, want.execution);
  EXPECT_EQ(got.unique_execution, want.unique_execution);
  EXPECT_EQ(got.reliable_communication, want.reliable_communication);
  if (want.reliable_communication) {
    EXPECT_EQ(got.retrans_timeout, want.retrans_timeout);
  }
  EXPECT_EQ(got.ordering, want.ordering);
  EXPECT_EQ(got.termination_bound, want.termination_bound);
  EXPECT_EQ(got.acceptance_limit, want.acceptance_limit);
  EXPECT_EQ(got.use_membership, want.use_membership);
  if (want.use_membership) {
    EXPECT_EQ(got.membership_params.heartbeat_interval, want.membership_params.heartbeat_interval);
    EXPECT_EQ(got.membership_params.failure_timeout, want.membership_params.failure_timeout);
  }
  EXPECT_EQ(got.group.value(), want.group.value());
}

void expect_round_trip(const Config& c) {
  const std::string line = c.describe();
  SCOPED_TRACE(line);
  std::string bad_token;
  const std::optional<Config> parsed = Config::parse(line, &bad_token);
  ASSERT_TRUE(parsed.has_value()) << "bad token " << bad_token;
  expect_same_fields(*parsed, c);
  EXPECT_EQ(parsed->describe(), line);
}

TEST(ConfigParse, ReadsBackEveryEnumeratedConfig) {
  for (const Config& c : enumerate_valid_configs()) expect_round_trip(c);
}

TEST(ConfigParse, ReadsBackThePresets) {
  for (const ConfigBuilder& preset :
       {ConfigBuilder::at_least_once(), ConfigBuilder::exactly_once(),
        ConfigBuilder::at_most_once(), ConfigBuilder::read_optimized()}) {
    expect_round_trip(preset.build());
  }
  EXPECT_EQ(ConfigBuilder::read_optimized().build().describe(),
            "sync|ignore-orphans|plain|non-unique|reliable=25ms|no-order|bounded=1s|"
            "acceptance=1|no-membership|group=1");
}

TEST(ConfigParse, ReadsBackNonDefaultValues) {
  constexpr sim::Duration kLargest = (sim::Duration{1} << 60) - 1;
  for (const sim::Duration d : {sim::usec(1), sim::usec(1500), sim::msec(250), sim::seconds(3),
                                sim::seconds(1) + 1, kLargest}) {
    Config c;
    c.reliable_communication = true;
    c.retrans_timeout = d;
    c.termination_bound = d;
    c.use_membership = true;
    c.membership_params = {d / 2 + 1, d};
    expect_round_trip(c);
  }
  for (const int limit : {1, 2, kAll}) {
    Config c;
    c.acceptance_limit = limit;
    expect_round_trip(c);
  }
  for (const std::uint32_t group : {0u, 7u, UINT32_MAX}) {
    Config c;
    c.group = GroupId{group};
    expect_round_trip(c);
  }
  Config all;
  all.acceptance_limit = kAll;
  EXPECT_NE(all.describe().find("|acceptance=all|"), std::string::npos) << all.describe();
}

TEST(ConfigParse, LeftOutFieldsKeepTheirDefaults) {
  const std::optional<Config> c = Config::parse("total|unique|reliable=20ms");
  ASSERT_TRUE(c.has_value());
  Config want;
  want.ordering = Ordering::kTotal;
  want.unique_execution = true;
  want.reliable_communication = true;
  want.retrans_timeout = sim::msec(20);
  expect_same_fields(*c, want);
}

TEST(ConfigParse, RejectsNamingTheOffendingToken) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"", "(empty)"},
      {"sync||plain", "(empty)"},
      {"total|", "(empty)"},
      {"synch", "synch"},
      {"SYNC", "SYNC"},
      {"sync=1", "sync=1"},
      {"sync|async", "async"},                        // a repeated field
      {"unique|plain|non-unique", "non-unique"},
      {"reliable=50ms|unreliable", "unreliable"},
      {"unbounded|bounded=1s", "bounded=1s"},
      {"no-membership|membership=20ms/100ms", "membership=20ms/100ms"},
      {"acceptance=1|acceptance=1", "acceptance=1"},
      {"reliable", "reliable"},                       // malformed numbers
      {"reliable=", "reliable="},
      {"reliable=50", "reliable=50"},
      {"reliable=50m", "reliable=50m"},
      {"reliable=+5ms", "reliable=+5ms"},
      {"reliable= 5ms", "reliable= 5ms"},
      {"reliable=5ms ", "reliable=5ms "},
      {"reliable=0us", "reliable=0us"},
      {"bounded=1.5s", "bounded=1.5s"},
      {"bounded=1152921504606847s", "bounded=1152921504606847s"},
      {"bounded=99999999999999999999us", "bounded=99999999999999999999us"},
      {"acceptance=2147483648", "acceptance=2147483648"},
      {"acceptance=-1", "acceptance=-1"},
      {"acceptance=ALL", "acceptance=ALL"},
      {"membership=20ms", "membership=20ms"},
      {"membership=20ms/", "membership=20ms/"},
      {"membership=/100ms", "membership=/100ms"},
      {"membership=20ms/100ms/1ms", "membership=20ms/100ms/1ms"},
      {"group=4294967296", "group=4294967296"},
      {"group=", "group="},
  };
  for (const auto& [line, token] : cases) {
    std::string bad_token;
    EXPECT_FALSE(Config::parse(line, &bad_token).has_value()) << "'" << line << "'";
    EXPECT_EQ(bad_token, token) << "'" << line << "'";
  }
}

// The bounds a trace file's header guarded before the line replaced it:
// every duration lies in (0, 2^60) us, so obs::check's sums cannot overflow.
TEST(ConfigParse, DurationsOutsideTheCheckersRangeAreRejected) {
  constexpr sim::Duration kLimit = sim::Duration{1} << 60;
  for (const sim::Duration lie : {INT64_MAX, kLimit, sim::Duration{-1}, INT64_MIN, kLimit - 1}) {
    for (int field = 0; field < 4; ++field) {
      Config c;
      c.reliable_communication = field == 0;
      if (field == 0) c.retrans_timeout = lie;
      if (field == 1) c.termination_bound = lie;
      c.use_membership = field >= 2;
      if (field == 2) c.membership_params.heartbeat_interval = lie;
      if (field == 3) c.membership_params.failure_timeout = lie;
      std::string bad_token;
      const std::optional<Config> parsed = Config::parse(c.describe(), &bad_token);
      if (lie == kLimit - 1) {
        EXPECT_TRUE(parsed.has_value()) << c.describe() << ": the largest legal duration";
      } else {
        EXPECT_FALSE(parsed.has_value()) << c.describe();
        EXPECT_NE(bad_token.find(std::to_string(lie) + "us"), std::string::npos) << bad_token;
      }
    }
  }
}

// A config line is bytes from a trace file: a seeded campaign of byte
// overwrites, insertions, deletions, changed numbers and pieces of other
// lines must see each line rejected with its token named, or parsed into a
// configuration whose own line reads back to itself, never a crash.
TEST(ConfigParse, MutatedLinesAreRejectedOrReadBackStably) {
  std::vector<std::string> lines;
  for (const Config& c : enumerate_valid_configs()) lines.push_back(c.describe());
  const Config rich = ConfigBuilder::at_most_once().membership().acceptance_limit(kAll).build();
  lines.push_back(rich.describe());
  const std::string alphabet = "|=/-+ 0123456789usmabcdeflnoprtyzALL\xff";
  std::mt19937_64 rng(20261022);
  const auto pick = [&rng](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  std::size_t parsed_count = 0;
  std::size_t rejected = 0;
  for (int round = 0; round < 20000; ++round) {
    std::string m = lines[pick(lines.size())];
    for (int i = 0; i < 1 + static_cast<int>(pick(2)); ++i) {
      const std::size_t at = pick(m.size() + 1);
      switch (pick(5)) {
        case 0:  // overwrite a byte
          if (at < m.size()) m[at] = alphabet[pick(alphabet.size())];
          break;
        case 1:  // insert a byte
          m.insert(m.begin() + static_cast<std::ptrdiff_t>(at), alphabet[pick(alphabet.size())]);
          break;
        case 2:  // delete a run of bytes
          m.erase(std::min(at, m.size()), 1 + pick(12));
          break;
        case 4:  // another number: any digit, or a digit run cut short
          if (at < m.size() && m[at] >= '0' && m[at] <= '9') {
            m[at] = static_cast<char>('0' + pick(10));
            if (pick(2) == 0) m.erase(at, 1);
          }
          break;
        default:  // splice in a piece of another line
          const std::string& other = lines[pick(lines.size())];
          const std::size_t from = pick(other.size());
          m.insert(std::min(at, m.size()), other.substr(from, 1 + pick(24)));
          break;
      }
    }
    std::string bad_token;
    const std::optional<Config> c = Config::parse(m, &bad_token);
    if (!c.has_value()) {
      EXPECT_FALSE(bad_token.empty()) << "'" << m << "'";
      ++rejected;
      continue;
    }
    ++parsed_count;
    const std::string line = c->describe();
    const std::optional<Config> again = Config::parse(line);
    ASSERT_TRUE(again.has_value()) << "'" << m << "' -> '" << line << "'";
    EXPECT_EQ(again->describe(), line) << "'" << m << "'";
  }
  EXPECT_GT(parsed_count, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace ugrpc::core
