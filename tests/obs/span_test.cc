// Span correctness: nesting and parenting under re-entrant event dispatch,
// cross-process context propagation over UdpTransport (including
// dropped-then-retransmitted and duplicated packets), ring wrap (spans share
// the site ring with every other record), clear() reset, the disabled path,
// and Perfetto-export escaping.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/config_builder.h"
#include "core/scenario.h"
#include "core/telemetry.h"
#include "net/network.h"
#include "net/udp_transport.h"
#include "json_value.h"
#include "obs/trace.h"
#include "obs/trace_file.h"
#include "perfetto.h"
#include "runtime/framework.h"

namespace ugrpc {
namespace {

using obs::SpanCtx;
using obs::Kind;
using obs::Span;

// ---- helpers ----

std::vector<Span> run_traced_call(obs::Tracer& tracer, core::Config config,
                                  net::FaultSpec faults = {}) {
  core::ScenarioParams p;
  p.num_servers = 3;
  p.config = std::move(config);
  p.faults = faults;
  p.tracer = &tracer;
  core::Scenario s(std::move(p));
  s.run_client(0, [&](core::Client& c) -> sim::Task<> {
    const core::CallResult r = co_await c.call(s.group(), OpId{1}, Buffer{});
    EXPECT_TRUE(r.ok());
  });
  // Drain in-flight traffic (e.g. a duplicated reply whose original is still
  // in transit when the call completes) so the span set is complete.
  s.run_until_quiescent();
  return tracer.spans();
}

const Span* find_by_id(const std::vector<Span>& spans, std::uint64_t id) {
  for (const Span& s : spans) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

std::vector<const Span*> of_kind(const std::vector<Span>& spans, Kind kind) {
  std::vector<const Span*> out;
  for (const Span& s : spans) {
    if (s.kind == kind) out.push_back(&s);
  }
  return out;
}

// ---- call-trace structure in the simulator ----

TEST(Span, CallSpanRootsItsOwnTrace) {
  obs::Tracer tracer;
  const auto spans = run_traced_call(tracer, core::ConfigBuilder::exactly_once().build());
  const auto calls = of_kind(spans, Kind::kCallIssued);
  ASSERT_EQ(calls.size(), 1u);
  const Span& call = *calls.front();
  EXPECT_EQ(call.trace, call.call) << "trace id must be the call id";
  EXPECT_NE(call.trace, 0u);
  EXPECT_FALSE(call.open()) << "completion must close the root span";
  EXPECT_GE(call.wall_ns(), 1u);
}

TEST(Span, HandlerSpansParentToTheirEventChain) {
  obs::Tracer tracer;
  const auto spans = run_traced_call(tracer, core::ConfigBuilder::exactly_once().build());
  const auto handlers = of_kind(spans, Kind::kEventHandled);
  ASSERT_FALSE(handlers.empty());
  for (const Span* h : handlers) {
    ASSERT_NE(h->parent, 0u);
    const Span* parent = find_by_id(spans, h->parent);
    ASSERT_NE(parent, nullptr) << "handler parent must be recorded";
    EXPECT_EQ(parent->kind, Kind::kEventTriggered);
    EXPECT_EQ(parent->site, h->site) << "a handler runs on its chain's site";
    EXPECT_EQ(parent->trace, h->trace);
  }
}

TEST(Span, DeliverSpansParentToSendSpansAcrossSites) {
  obs::Tracer tracer;
  const auto spans = run_traced_call(tracer, core::ConfigBuilder::exactly_once().build());
  const auto delivers = of_kind(spans, Kind::kMsgDelivered);
  ASSERT_FALSE(delivers.empty());
  int cross_site = 0;
  for (const Span* d : delivers) {
    if (d->parent == 0) continue;  // untraced background traffic
    const Span* parent = find_by_id(spans, d->parent);
    ASSERT_NE(parent, nullptr) << "deliver parent (the send span) must be recorded";
    EXPECT_EQ(parent->kind, Kind::kMsgSent);
    EXPECT_EQ(parent->trace, d->trace) << "the send's context travels with the packet";
    if (parent->site != d->site) ++cross_site;
  }
  EXPECT_GT(cross_site, 0) << "client->server hops must link across sites";
}

TEST(Span, EveryParentLinkResolvesAndNests) {
  obs::Tracer tracer;
  const auto spans = run_traced_call(tracer, core::ConfigBuilder::at_most_once().build());
  ASSERT_FALSE(spans.empty());
  int resolved = 0;
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const Span* parent = find_by_id(spans, s.parent);
    ASSERT_NE(parent, nullptr) << "dangling parent id " << s.parent;
    EXPECT_NE(parent->id, s.id);
    EXPECT_LE(parent->ns_begin, s.ns_begin) << "a child cannot begin before its parent";
    ++resolved;
  }
  EXPECT_GT(resolved, 0);
}

// ---- re-entrant dispatch ----

TEST(Span, ReentrantTriggerNestsInnerChainUnderOuterHandler) {
  sim::Scheduler sched;
  net::Network net{sched};
  obs::Tracer tracer;
  runtime::Framework fw{net, DomainId{1}, &tracer.site(ProcessId{1})};
  constexpr runtime::EventId kOuter{1};
  constexpr runtime::EventId kInner{2};
  fw.define_event(kOuter, "OUTER");
  fw.define_event(kInner, "INNER");
  fw.register_handler(kInner, "Inner.h", [](runtime::EventContext&) -> sim::Task<> { co_return; });
  fw.register_handler(kOuter, "Outer.h", [&fw](runtime::EventContext&) -> sim::Task<> {
    int x = 0;
    co_await fw.trigger(kInner, runtime::EventArg::ref(x));
  });
  int arg = 0;
  sched.spawn([](runtime::Framework& f, int& a) -> sim::Task<> {
    co_await f.trigger(runtime::EventId{1}, runtime::EventArg::ref(a));
  }(fw, arg));
  sched.run();

  const auto spans = tracer.spans();
  const Span* outer_chain = nullptr;
  const Span* inner_chain = nullptr;
  const Span* outer_handler = nullptr;
  const Span* inner_handler = nullptr;
  for (const Span& s : spans) {
    const std::string& name = tracer.name(s.name);
    if (s.kind == Kind::kEventTriggered && name == "OUTER") outer_chain = &s;
    if (s.kind == Kind::kEventTriggered && name == "INNER") inner_chain = &s;
    if (s.kind == Kind::kEventHandled && name == "Outer.h") outer_handler = &s;
    if (s.kind == Kind::kEventHandled && name == "Inner.h") inner_handler = &s;
  }
  ASSERT_NE(outer_chain, nullptr);
  ASSERT_NE(inner_chain, nullptr);
  ASSERT_NE(outer_handler, nullptr);
  ASSERT_NE(inner_handler, nullptr);
  EXPECT_EQ(outer_handler->parent, outer_chain->id);
  EXPECT_EQ(inner_chain->parent, outer_handler->id)
      << "a trigger from inside a handler must nest under that handler";
  EXPECT_EQ(inner_handler->parent, inner_chain->id);
  EXPECT_FALSE(outer_chain->open());
  EXPECT_FALSE(inner_chain->open());
}

// ---- faults: duplicates and retransmissions stay on the original trace ----

TEST(Span, DuplicatedPacketsAreFlaggedAndKeepTheOriginalContext) {
  obs::Tracer tracer;
  net::FaultSpec faults;
  faults.dup_prob = 1.0;  // every delivery happens twice
  const auto spans = run_traced_call(tracer, core::ConfigBuilder::exactly_once().build(), faults);
  const auto delivers = of_kind(spans, Kind::kMsgDelivered);
  std::vector<const Span*> flagged;
  for (const Span* d : delivers) {
    if (d->flagged) flagged.push_back(d);
  }
  ASSERT_FALSE(flagged.empty()) << "dup_prob=1 must flag duplicate deliveries";
  for (const Span* dup : flagged) {
    // The duplicate carries the same wire context as the original delivery:
    // same trace, same send-span parent -- and the original is not flagged.
    const auto twin = std::find_if(delivers.begin(), delivers.end(), [&](const Span* d) {
      return !d->flagged && d->parent == dup->parent && d->site == dup->site;
    });
    if (twin == delivers.end()) {
      std::string diag = "dup id=" + std::to_string(dup->id) + " parent=" +
                         std::to_string(dup->parent) + " site=" + std::to_string(dup->site.value()) +
                         " trace=" + std::to_string(dup->trace) + "\nall delivers:\n";
      for (const Span* d : delivers) {
        diag += "  id=" + std::to_string(d->id) + " parent=" + std::to_string(d->parent) +
                " site=" + std::to_string(d->site.value()) + " trace=" + std::to_string(d->trace) +
                " flagged=" + std::to_string(d->flagged) + " open=" + std::to_string(d->open()) +
                "\n";
      }
      ADD_FAILURE() << "duplicate without an original delivery\n" << diag;
      continue;
    }
    EXPECT_EQ((*twin)->trace, dup->trace);
  }
}

TEST(Span, RetransmissionsJoinTheOriginalCallTrace) {
  obs::Tracer tracer;
  // Deterministic retransmission without loss: every link delay exceeds the
  // 50 ms retransmission timeout, so Reliable Communication always re-sends
  // before the first acknowledgement can arrive.
  net::FaultSpec faults;
  faults.min_delay = sim::msec(60);
  faults.max_delay = sim::msec(60);
  const auto spans = run_traced_call(tracer, core::ConfigBuilder::exactly_once().build(), faults);
  const auto calls = of_kind(spans, Kind::kCallIssued);
  ASSERT_EQ(calls.size(), 1u);
  const Span& call = *calls.front();
  // Retransmitted datagrams re-enter the call's context from the timer
  // fiber, so like the initial multicast they parent directly to the root
  // call span.  The initial multicast accounts for exactly 3 such sends
  // (one per server); anything beyond that is a retransmission.
  int call_rooted_sends = 0;
  for (const Span* s : of_kind(spans, Kind::kMsgSent)) {
    if (s->parent == call.id && s->trace == call.trace) ++call_rooted_sends;
  }
  EXPECT_GT(call_rooted_sends, 3) << "delay > retrans timeout must force a retransmission";
  // And a timer span fired on the client on some trace-carrying context.
  EXPECT_FALSE(of_kind(spans, Kind::kTimerFired).empty());
}

// ---- UDP propagation ----

/// Two UDP transports ("hosts") sharing one collector, cross-introduced.
struct UdpPair {
  obs::Tracer tracer;
  net::UdpTransport ta;
  net::UdpTransport tb;
  net::Endpoint& a;
  net::Endpoint& b;
  std::vector<net::Packet> received;

  static constexpr ProcessId kA{1};
  static constexpr ProcessId kB{2};
  static constexpr ProtocolId kProto{7};

  UdpPair() : a(ta.attach(kA, DomainId{1})), b(tb.attach(kB, DomainId{2})) {
    ta.set_tracer(&tracer);
    tb.set_tracer(&tracer);
    ta.add_peer(kB, "127.0.0.1", tb.local_port(kB));
    tb.add_peer(kA, "127.0.0.1", ta.local_port(kA));
    b.set_handler(kProto, [this](net::Packet p) -> sim::Task<> {
      received.push_back(std::move(p));
      co_return;
    });
  }

  bool drive_until_received(std::size_t n) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (received.size() < n) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      ta.poll_once(sim::usec(500));
      tb.poll_once(0);
    }
    return true;
  }
};

/// Sends `payload` from A to B `copies` times, from a fiber on A's executor
/// whose ambient context is `ctx`.  The fiber runs on A's next poll.
void send_from_fiber(UdpPair& pair, SpanCtx ctx, const Buffer& payload, int copies = 1) {
  static constexpr auto body = [](UdpPair* p, SpanCtx c, Buffer b, int n) -> sim::Task<> {
    p->ta.executor().set_ambient(c);
    for (int i = 0; i < n; ++i) p->a.send(UdpPair::kB, UdpPair::kProto, b);
    co_return;
  };
  pair.ta.spawn(body(&pair, ctx, payload, copies), DomainId{1});
}

TEST(Span, UdpCarriesContextAcrossTheWire) {
  UdpPair pair;
  Buffer payload;
  Writer(payload).u32(0xabcd);
  send_from_fiber(pair, SpanCtx{77, 5}, payload);  // the sender works on trace 77
  ASSERT_TRUE(pair.drive_until_received(1));

  // The receiver's packet metadata carries {trace, send-span} -- not the
  // sender's own parent: the wire context is re-rooted at the send span.
  const auto spans = pair.tracer.spans();
  const auto sends = of_kind(spans, Kind::kMsgSent);
  ASSERT_EQ(sends.size(), 1u);
  EXPECT_EQ(sends[0]->trace, 77u);
  EXPECT_EQ(sends[0]->parent, 5u);
  EXPECT_EQ(pair.received.at(0).ctx.trace, 77u);
  EXPECT_EQ(pair.received.at(0).ctx.parent, sends[0]->id);

  const auto delivers = of_kind(spans, Kind::kMsgDelivered);
  ASSERT_EQ(delivers.size(), 1u);
  EXPECT_EQ(delivers[0]->trace, 77u);
  EXPECT_EQ(delivers[0]->parent, sends[0]->id);
  EXPECT_EQ(delivers[0]->site, UdpPair::kB);
}

TEST(Span, UdpDroppedSendIsFlaggedAndRetransmitJoinsTrace) {
  UdpPair pair;
  int drops_left = 1;
  pair.ta.set_send_fault([&drops_left](ProcessId, ProcessId, ProtocolId) {
    return drops_left-- > 0;  // swallow exactly the first datagram
  });
  Buffer payload;
  Writer(payload).u32(1);
  // The first copy is dropped, the second is the "retransmission".
  send_from_fiber(pair, SpanCtx{99, 0}, payload, 2);
  ASSERT_TRUE(pair.drive_until_received(1));
  EXPECT_EQ(pair.ta.stats().dropped, 1u);

  const auto spans = pair.tracer.spans();
  const auto sends = of_kind(spans, Kind::kMsgSent);
  ASSERT_EQ(sends.size(), 2u);
  const Span* dropped = sends[0]->flagged ? sends[0] : sends[1];
  const Span* resent = sends[0]->flagged ? sends[1] : sends[0];
  EXPECT_TRUE(dropped->flagged) << "the swallowed datagram's send span must be flagged";
  EXPECT_FALSE(resent->flagged);
  EXPECT_EQ(dropped->trace, 99u);
  EXPECT_EQ(resent->trace, 99u) << "the retransmission stays on the original trace";
  const auto delivers = of_kind(spans, Kind::kMsgDelivered);
  ASSERT_EQ(delivers.size(), 1u);
  EXPECT_EQ(delivers[0]->trace, 99u);
  EXPECT_EQ(delivers[0]->parent, resent->id);
}

// ---- lifecycle: ring wrap, clear, disabled path ----

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// `tracer`'s spans as a Perfetto document, rendered from its trace file.
std::string perfetto_of(const obs::Tracer& tracer) {
  const Buffer bytes = obs::encode_trace(tracer, {});
  const auto file = obs::decode_trace(bytes.bytes());
  EXPECT_TRUE(file.has_value());
  return file ? tools::render_perfetto(std::span(&*file, 1)) : std::string();
}

/// Runs tools/check_perfetto.py on `json`; its exit status.
int check_perfetto(const std::string& json, const std::string& flags) {
  const std::filesystem::path file =
      std::filesystem::path(testing::TempDir()) / "ugrpc_span_test_perfetto.json";
  std::ofstream(file) << json;
  const std::string cmd = "python3 " UGRPC_SOURCE_DIR "/tools/check_perfetto.py " +
                          file.string() + " " + flags + " > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  std::filesystem::remove(file);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(Span, RingWrapDropsSpansWhoseOpenWasOverwritten) {
  obs::Tracer tracer(/*per_site_capacity=*/6);
  obs::SiteTrace& st = tracer.site(ProcessId{9});
  const SpanCtx root = st.open(sim::Time{1}, Kind::kEventTriggered, SpanCtx{1, 0});  // seq 1
  const SpanCtx first = st.open(sim::Time{2}, Kind::kEventHandled, root);           // seq 2
  st.close(sim::Time{3}, first.parent);                                             // seq 3
  const SpanCtx second = st.open(sim::Time{4}, Kind::kEventHandled, root);          // seq 4
  st.close(sim::Time{5}, second.parent);                                            // seq 5
  const SpanCtx unclosed = st.open(sim::Time{6}, Kind::kMsgSent, second);           // seq 6
  st.close(sim::Time{7}, root.parent);  // overwrites seq 1, the root's open
  st.record(sim::Time{8}, Kind::kRetransmit);  // overwrites seq 2, the first handler's open
  EXPECT_EQ(st.dropped(), 2u);

  // The root and the first handler lost their opens: their closes (seq 3
  // and 7, both still retained) must not resurrect them.
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].id, second.parent);
  EXPECT_EQ(spans[0].parent, root.parent) << "the parent link survives, dangling";
  EXPECT_FALSE(spans[0].open());
  EXPECT_EQ(spans[1].id, unclosed.parent);
  EXPECT_TRUE(spans[1].open()) << "an open without a close is reported open";
  EXPECT_EQ(spans[1].parent, second.parent);

  // The export of a wrapped ring is a partial tree: valid under --partial
  // (a mid-run flight dump), rejected by the strict check.
  if (std::system("python3 --version > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "python3 not available to run check_perfetto.py";
  }
  const std::string json = perfetto_of(tracer);
  EXPECT_EQ(check_perfetto(json, "--partial"), 0) << json;
  EXPECT_EQ(check_perfetto(json, ""), 1) << "the dangling root parent must be visible";
}

TEST(Span, LongRunningSiteKeepsItsNewestSpans) {
  // Regression: spans used to live in a second store that stopped accepting
  // spans once full, so a long-running site's span view froze at its first
  // calls while the record ring moved on.  Run far more calls than the rings
  // hold: the newest spans must belong to the newest calls, a flight dump
  // must say its history is incomplete, and the Perfetto rendering of the
  // dump must reach its newest records.
  obs::Tracer tracer(/*per_site_capacity=*/2048);
  core::ScenarioParams p;
  p.num_servers = 3;
  p.config = core::ConfigBuilder::exactly_once().build();
  p.tracer = &tracer;
  core::Scenario s(std::move(p));
  std::vector<std::uint64_t> calls;
  s.run_client(0, [&](core::Client& c) -> sim::Task<> {
    for (int i = 0; i < 300; ++i) {
      const core::CallResult r = co_await c.call(s.group(), OpId{1}, Buffer{});
      EXPECT_TRUE(r.ok());
      calls.push_back(r.id.value());
    }
  });
  s.run_until_quiescent();
  ASSERT_GT(tracer.total_dropped(), 0u) << "the run must wrap the rings";

  const auto spans = tracer.spans();
  const auto call_spans = of_kind(spans, Kind::kCallIssued);
  ASSERT_FALSE(call_spans.empty());
  EXPECT_EQ(call_spans.back()->call, calls.back()) << "the newest call span is the last call's";
  EXPECT_FALSE(call_spans.back()->open());

  core::SiteTelemetry telemetry(s.client_site(0));
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "ugrpc_span_wrap_flight";
  std::filesystem::remove_all(dir);
  telemetry.set_flight_dir(dir.string());
  std::string error;
  const auto dump = telemetry.trip("ring-wrap", &error);
  ASSERT_TRUE(dump.has_value()) << error;

  // The dump reports the wrap.  Every span its Perfetto rendering draws
  // opens in the dump's window, and the newest one is among its newest
  // records.
  const std::string bytes = slurp(std::filesystem::path(*dump) / obs::kTraceFileName);
  const auto trace = obs::decode_trace(std::as_bytes(std::span(bytes)), &error);
  ASSERT_TRUE(trace.has_value()) << error;
  EXPECT_GT(trace->dropped, 0u) << "the dump must say its history is incomplete";
  EXPECT_EQ(trace->dropped, tracer.total_dropped());
  std::set<std::uint64_t> opens;
  for (const obs::Event& e : trace->events) {
    if ((e.flags & obs::kSpanOpen) != 0) opens.insert(obs::span_id(e.site, e.seq));
  }
  const auto doc = tools::json_parse(tools::render_perfetto(std::span(&*trace, 1)), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  std::uint64_t exported = 0;
  std::uint64_t newest_seq = 0;
  for (const tools::JsonValue& ev : (*doc)["traceEvents"].as_array()) {
    if (ev["ph"].as_string() != "X") continue;
    const std::uint64_t id = ev["args"]["span"].as_u64();
    EXPECT_TRUE(opens.contains(id)) << "span " << id << " is outside the dump's window";
    newest_seq = std::max(newest_seq, id & 0xFFFFFFFFu);
    ++exported;
  }
  EXPECT_GT(exported, 0u);
  ASSERT_FALSE(trace->events.empty());
  EXPECT_GT(newest_seq, trace->events[trace->events.size() / 2].seq)
      << "the rendering must reach the newest half of the dump";
  std::filesystem::remove_all(dir);
}

TEST(Span, DisabledPathRecordsNothingAndPreservesBehaviour) {
  // Identical workload with and without a tracer: same result, and the
  // traced run's spans do not alter scheduling (same completion status).
  core::ScenarioParams p1;
  p1.config = core::ConfigBuilder::exactly_once().build();
  core::Scenario untraced(std::move(p1));
  core::CallResult r1;
  untraced.run_client(0, [&](core::Client& c) -> sim::Task<> {
    r1 = co_await c.call(untraced.group(), OpId{1}, Buffer{});
  });

  obs::Tracer tracer;
  core::ScenarioParams p2;
  p2.config = core::ConfigBuilder::exactly_once().build();
  p2.tracer = &tracer;
  core::Scenario traced(std::move(p2));
  core::CallResult r2;
  traced.run_client(0, [&](core::Client& c) -> sim::Task<> {
    r2 = co_await c.call(traced.group(), OpId{1}, Buffer{});
  });

  EXPECT_TRUE(r1.ok());
  EXPECT_TRUE(r2.ok());
  EXPECT_EQ(r1.status, r2.status);
  EXPECT_FALSE(tracer.spans().empty());
}

// ---- export escaping ----

TEST(Span, PerfettoExportEscapesHostileNames) {
  obs::Tracer tracer;
  obs::SiteTrace& st = tracer.site(ProcessId{1});
  const std::uint32_t evil = st.intern("evil\"name\\with\nnewline");
  const SpanCtx h = st.open(sim::Time{1}, Kind::kEventHandled, SpanCtx{1, 0}, 0, 0, 0, evil);
  st.close(sim::Time{2}, h.parent);
  const std::string json = perfetto_of(tracer);
  EXPECT_NE(json.find("evil\\\"name\\\\with\\nnewline"), std::string::npos)
      << "quotes, backslashes and control characters must be escaped";
  // No raw control characters may survive inside the document.
  for (const char c : json) EXPECT_NE(c, '\r');
  EXPECT_EQ(json.find("evil\"name"), std::string::npos) << "unescaped quote leaked";
}

}  // namespace
}  // namespace ugrpc
