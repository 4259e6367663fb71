// ConfigBuilder: fluent construction, Figure 1 presets, and build()-time
// validation against the Figure 4 dependency graph.
#include <gtest/gtest.h>

#include "core/config_builder.h"
#include "core/micro/acceptance.h"

namespace ugrpc::core {
namespace {

TEST(ConfigBuilder, DefaultBuildMatchesDefaultConfig) {
  const Config built = ConfigBuilder().build();
  const Config plain;
  EXPECT_EQ(built.describe(), plain.describe());
  EXPECT_TRUE(is_valid(built));
}

TEST(ConfigBuilder, PresetsAreValidAndEncodeFigure1Rows) {
  const Config alo = ConfigBuilder::at_least_once().build();
  EXPECT_TRUE(validate(alo).empty());
  EXPECT_TRUE(alo.reliable_communication);
  EXPECT_FALSE(alo.unique_execution);

  const Config eo = ConfigBuilder::exactly_once().build();
  EXPECT_TRUE(validate(eo).empty());
  EXPECT_TRUE(eo.reliable_communication);
  EXPECT_TRUE(eo.unique_execution);

  const Config amo = ConfigBuilder::at_most_once().build();
  EXPECT_TRUE(validate(amo).empty());
  EXPECT_TRUE(amo.reliable_communication);
  EXPECT_TRUE(amo.unique_execution);
  EXPECT_EQ(amo.execution, ExecutionMode::kSerialAtomic);

  const Config ro = ConfigBuilder::read_optimized().build();
  EXPECT_TRUE(validate(ro).empty());
  EXPECT_EQ(ro.call, CallSemantics::kSynchronous);
  EXPECT_EQ(ro.acceptance_limit, 1);
  EXPECT_TRUE(ro.reliable_communication);
  EXPECT_EQ(ro.retrans_timeout, sim::msec(25));
  ASSERT_TRUE(ro.termination_bound.has_value());
  EXPECT_EQ(*ro.termination_bound, sim::seconds(1));
}

TEST(ConfigBuilder, FluentSettersCompose) {
  const Config c = ConfigBuilder()
                       .asynchronous()
                       .orphan_handling(OrphanHandling::kTerminateOrphans)
                       .execution(ExecutionMode::kSerial)
                       .reliable_communication(sim::msec(10))
                       .unique_execution()
                       .fifo_order()
                       .acceptance_limit(kAll)
                       .group(GroupId{7})
                       .build();
  EXPECT_EQ(c.call, CallSemantics::kAsynchronous);
  EXPECT_EQ(c.orphan, OrphanHandling::kTerminateOrphans);
  EXPECT_EQ(c.execution, ExecutionMode::kSerial);
  EXPECT_EQ(c.retrans_timeout, sim::msec(10));
  EXPECT_TRUE(c.unique_execution);
  EXPECT_EQ(c.ordering, Ordering::kFifo);
  EXPECT_EQ(c.acceptance_limit, kAll);
  EXPECT_EQ(c.group, GroupId{7});
}

TEST(ConfigBuilder, BuildThrowsConfigErrorWithRuleCodes) {
  // Total order without its prerequisites violates three edges at once.
  ConfigBuilder b;
  b.total_order().termination_bound(sim::seconds(1));
  try {
    (void)b.build();
    FAIL() << "build() must reject an invalid configuration";
  } catch (const ConfigError& e) {
    ASSERT_EQ(e.errors().size(), 3u);
    bool saw_unique = false;
    for (const ValidationError& err : e.errors()) {
      if (err.code == Rule::kTotalRequiresUnique) saw_unique = true;
      EXPECT_EQ(err.rule, to_string(err.code));
    }
    EXPECT_TRUE(saw_unique);
    EXPECT_NE(std::string(e.what()).find("TotalOrder->UniqueExecution"), std::string::npos)
        << "what() must name the violated edges";
  }
}

TEST(ConfigBuilder, InvalidConfigIsBuiltOnlyByHand) {
  // The builder refuses the combination; the aggregate holds it unchanged,
  // which is how a harness studying broken configurations gets one.
  EXPECT_THROW((void)ConfigBuilder().unique_execution().build(), ConfigError);
  Config c;
  c.unique_execution = true;
  EXPECT_FALSE(is_valid(c)) << "a hand-built config keeps the invalid combination";
}

TEST(ConfigBuilder, StartsFromExistingConfig) {
  Config base = ConfigBuilder::exactly_once().build();
  const Config tweaked = ConfigBuilder(base).total_order().build();
  EXPECT_EQ(tweaked.ordering, Ordering::kTotal);
  EXPECT_TRUE(tweaked.unique_execution) << "builder must preserve the base config's choices";
}

TEST(ConfigBuilder, EveryPresetBuildsEveryEnumeratedConfigStaysValid) {
  // Round-trip: wrapping any enumerated valid config in a builder and
  // rebuilding must not throw.
  for (const Config& c : enumerate_valid_configs()) {
    EXPECT_NO_THROW((void)ConfigBuilder(c).build()) << c.describe();
  }
}

}  // namespace
}  // namespace ugrpc::core
