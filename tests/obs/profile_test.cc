// obs::Profile: self-time vs children-time accounting, exact percentiles,
// component grouping by handler-name prefix, kind grouping and JSON
// emission -- all on hand-built span sets with known timestamps.
#include "obs/profile.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/trace.h"

namespace ugrpc::obs {
namespace {

Span make_span(std::uint64_t id, std::uint64_t parent, std::uint64_t ns_begin,
               std::uint64_t ns_end, Kind kind, std::uint32_t name = 0) {
  Span s;
  s.id = id;
  s.trace = 1;
  s.parent = parent;
  s.ns_begin = ns_begin;
  s.ns_end = ns_end;
  s.site = ProcessId{1};
  s.kind = kind;
  s.name = name;
  return s;
}

TEST(Profile, SelfTimeExcludesDirectChildren) {
  Tracer names;
  const std::uint32_t handler = names.site(ProcessId{1}).intern("Comp.handler");
  std::vector<Span> spans;
  // Parent [0, 1000] with two direct children [100, 400] and [500, 600]:
  // wall 1000, children 400, self 600.
  spans.push_back(make_span(10, 0, 0, 1000, Kind::kEventHandled, handler));
  spans.push_back(make_span(11, 10, 100, 400, Kind::kMsgSent));
  spans.push_back(make_span(12, 10, 500, 600, Kind::kMsgSent));
  Profile prof;
  prof.add(spans, names);

  const auto comp = prof.by_component();
  ASSERT_EQ(comp.count("Comp"), 1u);
  const Profile::Stats& st = comp.at("Comp");
  EXPECT_EQ(st.count, 1u);
  EXPECT_EQ(st.wall_total, 1000u);
  EXPECT_EQ(st.self_total, 600u);
  EXPECT_EQ(st.children_total(), 400u);

  const auto kinds = prof.by_kind();
  ASSERT_EQ(kinds.count("send"), 1u);
  EXPECT_EQ(kinds.at("send").count, 2u);
  EXPECT_EQ(kinds.at("send").wall_total, 400u);
  // Leaf spans have no children: self == wall.
  EXPECT_EQ(kinds.at("send").self_total, 400u);
}

TEST(Profile, SelfTimeClampsAtZeroWhenChildrenOverlap) {
  // Two "children" each as long as the parent (concurrent fibers charged to
  // the same parent): children sum beyond wall must clamp self at 0, not
  // wrap around.
  Tracer names;
  const std::uint32_t handler = names.site(ProcessId{1}).intern("Comp.h");
  std::vector<Span> spans;
  spans.push_back(make_span(10, 0, 0, 100, Kind::kEventHandled, handler));
  spans.push_back(make_span(11, 10, 0, 100, Kind::kMsgSent));
  spans.push_back(make_span(12, 10, 0, 100, Kind::kMsgSent));
  Profile prof;
  prof.add(spans, names);
  EXPECT_EQ(prof.by_component().at("Comp").self_total, 0u);
}

TEST(Profile, OpenSpansAreSkipped) {
  Tracer names;
  const std::uint32_t handler = names.site(ProcessId{1}).intern("Comp.h");
  std::vector<Span> spans;
  spans.push_back(make_span(10, 0, 0, 0, Kind::kEventHandled, handler));  // still open
  Profile prof;
  prof.add(spans, names);
  EXPECT_TRUE(prof.empty());
  EXPECT_EQ(prof.by_component().count("Comp"), 0u);
}

TEST(Profile, PercentilesAreExactOnKnownSamples) {
  Tracer names;
  const std::uint32_t handler = names.site(ProcessId{1}).intern("C.h");
  std::vector<Span> spans;
  for (std::uint64_t i = 1; i <= 100; ++i) {
    spans.push_back(make_span(100 + i, 0, 0, i, Kind::kEventHandled, handler));
  }
  Profile prof;
  prof.add(spans, names);
  const Profile::Stats st = prof.by_component().at("C");
  EXPECT_EQ(st.count, 100u);
  // rank = round(q * (n-1)) on the sorted samples 1..100.
  EXPECT_EQ(st.wall_p50, 51u);
  EXPECT_EQ(st.wall_p95, 95u);
  EXPECT_EQ(st.wall_p99, 99u);
  EXPECT_EQ(st.wall_max, 100u);
  EXPECT_EQ(st.wall_total, 5050u);
}

TEST(Profile, ComponentIsPrefixBeforeFirstDot) {
  Tracer names;
  SiteTrace& st = names.site(ProcessId{1});
  std::vector<Span> spans;
  spans.push_back(make_span(1, 0, 0, 10, Kind::kEventHandled, st.intern("Acceptance.msg")));
  spans.push_back(make_span(2, 0, 0, 20, Kind::kEventHandled, st.intern("Acceptance.new_call")));
  spans.push_back(make_span(3, 0, 0, 30, Kind::kTimerFired, st.intern("ReliableComm.timeout")));
  spans.push_back(make_span(4, 0, 0, 40, Kind::kEventHandled, st.intern("nodot")));
  Profile prof;
  prof.add(spans, names);
  const auto comp = prof.by_component();
  ASSERT_EQ(comp.size(), 3u);
  EXPECT_EQ(comp.at("Acceptance").count, 2u);
  EXPECT_EQ(comp.at("ReliableComm").count, 1u) << "timer spans attribute to their component";
  EXPECT_EQ(comp.at("nodot").count, 1u);
  EXPECT_EQ(prof.by_handler().at("Acceptance.msg").count, 1u);
}

TEST(Profile, ToJsonEscapesKeysAndContainsEveryField) {
  Tracer names;
  const std::uint32_t evil = names.site(ProcessId{1}).intern("Evil\"Comp.h");
  std::vector<Span> spans;
  spans.push_back(make_span(1, 0, 0, 10, Kind::kEventHandled, evil));
  Profile prof;
  prof.add(spans, names);
  const std::string json = prof.to_json();
  EXPECT_NE(json.find("\"by_component\""), std::string::npos);
  EXPECT_NE(json.find("\"by_kind\""), std::string::npos);
  EXPECT_NE(json.find("\"by_handler\""), std::string::npos);
  EXPECT_NE(json.find("Evil\\\"Comp"), std::string::npos) << "keys must be JSON-escaped";
  for (const char* field : {"\"count\":", "\"wall_total_ns\":", "\"wall_p50_ns\":",
                            "\"wall_p99_ns\":", "\"self_total_ns\":", "\"self_p50_ns\":",
                            "\"self_p99_ns\":", "\"children_total_ns\":"}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
}

TEST(Profile, AddFoldsTracerSpansDirectly) {
  Tracer tracer;
  SiteTrace& st = tracer.site(ProcessId{3});
  const SpanCtx h =
      st.open(sim::Time{1}, Kind::kEventHandled, SpanCtx{1, 0}, 0, 0, 0, st.intern("X.h"));
  st.close(sim::Time{2}, h.parent);
  Profile prof;
  prof.add(tracer.spans(), tracer);
  EXPECT_EQ(prof.by_component().at("X").count, 1u);
}

}  // namespace
}  // namespace ugrpc::obs
