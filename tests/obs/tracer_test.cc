// Unit tests for the obs::Tracer / obs::SiteTrace ring recorder: ring-wrap
// retention, global sequence ordering across sites, string interning,
// exact per-kind counters, span open/close records and the spans derived
// from them, the trace file's fields, and the kind numbers a dump stores.
#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <string>
#include <string_view>
#include <utility>

#include "obs/trace.h"
#include "obs/trace_file.h"

namespace ugrpc::obs {
namespace {

constexpr ProcessId kSiteA{1};
constexpr ProcessId kSiteB{2};

TEST(SiteTrace, RecordsInOrderWithGlobalSequence) {
  Tracer tracer;
  SiteTrace& a = tracer.site(kSiteA);
  SiteTrace& b = tracer.site(kSiteB);
  a.record(sim::usec(10), Kind::kCallIssued, /*call=*/7);
  b.record(sim::usec(11), Kind::kExecStarted, /*call=*/7);
  a.record(sim::usec(20), Kind::kCallCompleted, /*call=*/7);

  const auto merged = tracer.merged();
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].kind, Kind::kCallIssued);
  EXPECT_EQ(merged[1].kind, Kind::kExecStarted);
  EXPECT_EQ(merged[2].kind, Kind::kCallCompleted);
  EXPECT_EQ(merged[0].site, kSiteA);
  EXPECT_EQ(merged[1].site, kSiteB);
  // Sequence numbers are strictly increasing across sites.
  EXPECT_LT(merged[0].seq, merged[1].seq);
  EXPECT_LT(merged[1].seq, merged[2].seq);
}

TEST(SiteTrace, SiteReferenceIsStable) {
  Tracer tracer;
  SiteTrace& first = tracer.site(kSiteA);
  // Creating many other sites must not invalidate the first reference.
  for (std::uint32_t i = 10; i < 60; ++i) (void)tracer.site(ProcessId{i});
  EXPECT_EQ(&first, &tracer.site(kSiteA));
}

TEST(SiteTrace, RingWrapKeepsNewestAndCountsDropped) {
  Tracer tracer(/*per_site_capacity=*/4);
  SiteTrace& s = tracer.site(kSiteA);
  for (std::uint64_t i = 1; i <= 10; ++i) s.record(sim::usec(static_cast<sim::Time>(i)), Kind::kMsgSent, /*call=*/i);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.dropped(), 6u);
  EXPECT_EQ(tracer.total_dropped(), 6u);
  const auto events = s.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first, and only the newest four survive.
  EXPECT_EQ(events[0].call, 7u);
  EXPECT_EQ(events[3].call, 10u);
  for (std::size_t i = 1; i < events.size(); ++i) EXPECT_LT(events[i - 1].seq, events[i].seq);
}

TEST(SiteTrace, PerKindCountersAreExactDespiteWrap) {
  Tracer tracer(/*per_site_capacity=*/2);
  SiteTrace& s = tracer.site(kSiteA);
  for (int i = 0; i < 9; ++i) s.record(0, Kind::kMsgDelivered);
  s.record(0, Kind::kMsgDropped);
  // The ring only holds 2 events but the counters saw all 10.
  EXPECT_EQ(tracer.count(Kind::kMsgDelivered), 9u);
  EXPECT_EQ(tracer.count(Kind::kMsgDropped), 1u);
  EXPECT_EQ(tracer.count(Kind::kMsgSent), 0u);
}

TEST(Tracer, InternDeduplicatesAndResolves) {
  Tracer tracer;
  const std::uint32_t a = tracer.intern("RPCMain.msg_from_user");
  const std::uint32_t b = tracer.intern("Acceptance.handle_new_call");
  const std::uint32_t a2 = tracer.intern("RPCMain.msg_from_user");
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, a2);
  EXPECT_EQ(tracer.name(a), "RPCMain.msg_from_user");
  EXPECT_EQ(tracer.name(0), "");
  EXPECT_EQ(tracer.name(9999), "");
  // SiteTrace::intern goes through the shared table.
  EXPECT_EQ(tracer.site(kSiteA).intern("RPCMain.msg_from_user"), a);
}

/// `t`'s records as the trace file gives them back.
TraceFile reload(const Tracer& t) {
  std::string error;
  auto file = decode_trace(encode_trace(t, {}).bytes(), &error);
  EXPECT_TRUE(file.has_value()) << error;
  return file.value_or(TraceFile{});
}

TEST(Tracer, TraceFileNamesKindsAndFields) {
  Tracer tracer;
  SiteTrace& s = tracer.site(kSiteA);
  s.record(sim::usec(42), Kind::kExecCommitted, /*call=*/3, /*a=*/1, /*b=*/2,
           s.intern("two_step"));
  const TraceFile file = reload(tracer);
  ASSERT_EQ(file.events.size(), 1u);
  const Event& e = file.events[0];
  EXPECT_EQ(e.kind, Kind::kExecCommitted);
  EXPECT_EQ(e.time, sim::usec(42));
  EXPECT_EQ(e.call, 3u);
  EXPECT_EQ(e.a, 1u);
  EXPECT_EQ(e.b, 2u);
  EXPECT_EQ(e.site, kSiteA);
  EXPECT_EQ(file.names.at(e.name), "two_step");
}

TEST(SiteTrace, SpansAreRecordsInTheOneRing) {
  Tracer tracer;
  SiteTrace& a = tracer.site(kSiteA);
  SiteTrace& b = tracer.site(kSiteB);
  a.record(sim::usec(1), Kind::kCheckpoint);                             // seq 1
  const SpanCtx chain = a.open(sim::usec(2), Kind::kEventTriggered, SpanCtx{7, 0});  // seq 2
  b.record(sim::usec(3), Kind::kRetransmit);                             // seq 3
  a.close(sim::usec(4), chain.parent);                                   // seq 4
  // One store and one sequence: the opening record's seq names the span.
  EXPECT_EQ(chain.trace, 7u);
  EXPECT_EQ(chain.parent, span_id(kSiteA, 2));
  EXPECT_EQ(chain.parent, (std::uint64_t{1} << 32) | 2u);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(tracer.count(Kind::kEventTriggered), 1u);
  EXPECT_EQ(tracer.count(Kind::kSpanEnd), 1u);
  const auto events = a.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[1].flags, kSpanOpen);
  EXPECT_EQ(events[1].trace, 7u);
  EXPECT_NE(events[1].ns, 0u);
  EXPECT_EQ(events[2].kind, Kind::kSpanEnd);
  EXPECT_EQ(events[2].flags, kSpanClose);
  EXPECT_EQ(events[2].link, chain.parent);
  EXPECT_EQ(events[0].flags, 0u) << "a plain record carries no span fields";
  EXPECT_EQ(events[0].ns, 0u);
}

TEST(Tracer, SpansPairOpensWithTheirCloses) {
  Tracer tracer;
  SiteTrace& s = tracer.site(kSiteA);
  const SpanCtx call = s.open(sim::usec(1), Kind::kCallIssued, SpanCtx{42, 0}, /*call=*/42,
                              /*a=*/3, /*b=*/1);
  const SpanCtx send = s.open(sim::usec(2), Kind::kMsgSent, call, 0, /*a=*/2, /*b=*/1);
  s.close(sim::usec(3), send.parent, Kind::kSpanEnd, 0, 0, 0, /*flagged=*/true);
  const SpanCtx dup = s.open(sim::usec(4), Kind::kMsgDelivered, send, 0, 2, 1, 0,
                             /*flagged=*/true);
  // A fact that ends an interval closes its span itself.
  s.close(sim::usec(5), call.parent, Kind::kCallCompleted, /*call=*/42);
  s.close(sim::usec(6), span_id(kSiteA, 999));  // unknown span: ignored

  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].id, call.parent);
  EXPECT_EQ(spans[0].kind, Kind::kCallIssued);
  EXPECT_EQ(span_kind_name(spans[0].kind), "call");
  EXPECT_EQ(spans[0].trace, 42u);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[0].call, 42u);
  EXPECT_EQ(spans[0].a, 3u);
  EXPECT_EQ(spans[0].begin, sim::usec(1));
  EXPECT_EQ(spans[0].end, sim::usec(5));
  EXPECT_FALSE(spans[0].open());
  EXPECT_GE(spans[0].wall_ns(), 1u);
  EXPECT_FALSE(spans[0].flagged);
  EXPECT_EQ(spans[1].parent, call.parent);
  EXPECT_TRUE(spans[1].flagged) << "a flag on the close marks the span";
  EXPECT_EQ(spans[2].parent, send.parent);
  EXPECT_EQ(spans[2].id, dup.parent);
  EXPECT_TRUE(spans[2].flagged) << "a flag on the open marks the span";
  EXPECT_TRUE(spans[2].open());
  EXPECT_EQ(spans[2].end, -1);
}

TEST(Tracer, SpanKindNamesNameTheInterval) {
  EXPECT_EQ(span_kind_name(Kind::kEventTriggered), "chain");
  EXPECT_EQ(span_kind_name(Kind::kEventHandled), "handler");
  EXPECT_EQ(span_kind_name(Kind::kTimerFired), "timer");
  EXPECT_EQ(span_kind_name(Kind::kMsgSent), "send");
  EXPECT_EQ(span_kind_name(Kind::kMsgDropped), "send");
  EXPECT_EQ(span_kind_name(Kind::kMsgDelivered), "deliver");
  EXPECT_EQ(span_kind_name(Kind::kCallIssued), "call");
  EXPECT_EQ(span_kind_name(Kind::kExecStarted), "exec");
}

TEST(Tracer, TraceFileCarriesSpanFields) {
  Tracer tracer;
  SiteTrace& s = tracer.site(kSiteA);
  const SpanCtx h = s.open(sim::usec(1), Kind::kEventHandled, SpanCtx{5, 9});
  s.close(sim::usec(2), h.parent, Kind::kSpanEnd, 0, 0, 0, /*flagged=*/true);
  const TraceFile file = reload(tracer);
  ASSERT_EQ(file.events.size(), 2u);
  EXPECT_EQ(file.events[0].trace, 5u);
  EXPECT_EQ(file.events[0].link, 9u);
  EXPECT_NE(file.events[0].ns, 0u);
  EXPECT_EQ(file.events[0].flags, kSpanOpen);
  EXPECT_EQ(file.events[1].link, h.parent);
  EXPECT_GE(file.events[1].ns, file.events[0].ns);
  EXPECT_EQ(file.events[1].flags, kSpanClose | kSpanFlagged);
}

TEST(Tracer, KindNamesCoverEveryKind) {
  std::set<std::string_view> names;
  for (std::size_t k = 0; k < kKindCount; ++k) {
    const Kind kind = static_cast<Kind>(k);
    EXPECT_FALSE(kind_name(kind).empty()) << "kind " << k;
    EXPECT_NE(kind_name(kind), "<invalid>") << "kind " << k;
    EXPECT_TRUE(names.insert(kind_name(kind)).second) << "kind " << k << " repeats a name";
  }
  EXPECT_EQ(kind_name(Kind::kMsgMalformed), "msg_malformed");
}

TEST(Tracer, KindNumbersArePinned) {
  // Flight dumps store kinds as these numbers: a reorder or a kind inserted
  // before kSpanEnd would make every older dump read wrong.
  const std::pair<int, std::string_view> pinned[] = {
      {0, "call_issued"},      {1, "call_completed"},   {2, "event_triggered"},
      {3, "event_handled"},    {4, "msg_sent"},         {5, "msg_delivered"},
      {6, "msg_dropped"},      {7, "msg_duplicated"},   {8, "msg_unroutable"},
      {9, "msg_malformed"},    {10, "timer_armed"},     {11, "timer_fired"},
      {12, "timer_cancelled"}, {13, "exec_started"},    {14, "exec_committed"},
      {15, "dup_suppressed"},  {16, "retransmit"},      {17, "checkpoint"},
      {18, "state_restored"},  {19, "orphan_killed"},   {20, "call_deferred"},
      {21, "stale_dropped"},   {22, "call_held"},       {23, "call_released"},
      {24, "serial_acquired"}, {25, "serial_released"}, {26, "deadline_expired"},
      {27, "site_crashed"},    {28, "site_recovered"},  {29, "span_end"},
  };
  ASSERT_EQ(kKindCount, std::size(pinned)) << "a new kind needs a pinned number here";
  for (const auto& [number, name] : pinned) {
    EXPECT_EQ(kind_name(static_cast<Kind>(number)), name) << "kind " << number;
  }
}

}  // namespace
}  // namespace ugrpc::obs
