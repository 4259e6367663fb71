// The three workloads: what they run, how they are timed, and the
// correctness gate each run must pass.  See NOTES.md for why each exists.
//
// Every workload runs in episodes.  An episode builds fresh sites (timed:
// setup_s), runs a fixed number of calls, times a fixed-size measured
// segment of them, and checks every result.  A run repeats episodes until
// --seconds is used and reports medians over them.  Fixed-size episodes keep
// the work a run measures independent of how fast the code is: per-call
// cost and memory both grow with the calls a site has served (NOTES.md), so
// a duration-defined run would measure a different workload on a faster
// commit.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/config_builder.h"
#include "core/micro/acceptance.h"
#include "core/micro/atomic_execution.h"
#include "core/micro/reliable_communication.h"
#include "core/micro/unique_execution.h"
#include "core/scenario.h"
#include "core/service.h"
#include "net/udp_transport.h"
#include "perfbench.h"

namespace perfbench {
namespace {

using namespace ugrpc;

constexpr OpId kOp{1};
constexpr GroupId kGroup{1};
constexpr int kServers = 3;

// write_ordered_sim: 4 clients x 500 calls per episode, one episode per
// sub-seed of the run seed, kSimSeedsPerRound sub-seeds per round, so one
// run averages over several loss patterns.
constexpr int kSimClients = 4;
constexpr int kSimCallsPerClient = 500;
constexpr int kSimSeedsPerRound = 8;
constexpr std::size_t kSimArgs = 64;
constexpr sim::Duration kSimVirtualLimit = sim::seconds(3600);

/// Longest a UDP episode may take to reach its call count.
constexpr std::int64_t kUdpEpisodeLimitNs = 30'000'000'000;
/// How long the UDP drain may take once the clients are told to stop.
constexpr std::int64_t kDrainNs = 5'000'000'000;

double ns_to_us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

// ---- server applications ----

/// write_ordered_sim's replicated state: an order-sensitive hash of every
/// write applied, and the number of writes.  Replicas that applied the same
/// writes in the same order agree on both.
struct Register {
  std::uint64_t hash = 1469598103934665603ULL;
  std::uint64_t count = 0;
};

struct ServerApp {
  bool corrupt_echo = false;
  SpanLog* spans = nullptr;    ///< set in traced episodes
  std::vector<Register> regs;  ///< one per server (write_ordered_sim only)
};

std::uint64_t fnv1a(std::span<const std::byte> bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::byte b : bytes) h = (h ^ std::to_integer<std::uint64_t>(b)) * 1099511628211ULL;
  return h;
}

/// The server procedure: apply the write (when the server keeps a register)
/// and echo the request bytes back as the result.
sim::Task<> serve(ServerApp* app, Register* reg, Buffer& args) {
  const std::int64_t t0 = app->spans != nullptr ? now_ns() : 0;
  if (reg != nullptr) {
    reg->hash = (reg->hash ^ fnv1a(args.bytes())) * 1099511628211ULL;
    ++reg->count;
  }
  if (app->corrupt_echo && args_tag(args) == kCorruptTag) corrupt(args);
  if (app->spans != nullptr) app->spans->add_tagged("server.procedure", args_tag(args), t0, now_ns());
  co_return;
}

core::Site::AppSetup server_setup(ServerApp* app, bool with_register) {
  return [app, with_register](core::UserProtocol& user, core::Site& site) {
    Register* reg = with_register ? &app->regs.at(site.id().value() - 1) : nullptr;
    user.set_procedure([app, reg](OpId, Buffer& args) { return serve(app, reg, args); });
    if (reg == nullptr) return;
    user.set_state_hooks(
        [reg] {
          Buffer b;
          Writer w(b);
          w.u64(reg->hash);
          w.u64(reg->count);
          return b;
        },
        [reg](const Buffer& b) {
          Reader r(b);
          reg->hash = r.u64();
          reg->count = r.u64();
        });
  };
}

// ---- per-call bookkeeping ----

/// Calls issued, their outcomes, and the latency samples of the measured
/// segment: the calls issued after the `begin_after`-th completion and
/// completed by the `end_after`-th.
struct CallLog {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::string first_error;
  int finished_fibers = 0;
  bool stop = false;  ///< set when the segment ends: clients issue no more calls

  std::uint64_t begin_after = 0;
  std::uint64_t end_after = 0;
  bool measuring = false;
  std::int64_t seg_start = 0, seg_end = 0;
  std::int64_t cpu_start = 0, cpu_end = 0;
  std::vector<double> lat_us;   ///< real latency, issue to result
  std::vector<double> vlat_us;  ///< the same on the transport's clock

  SpanLog* spans = nullptr;
  /// (completed calls, process CPU ns) every `cpu_stride` completions in
  /// traced episodes: the late/early per-call cost ratio.
  std::uint64_t cpu_stride = 0;
  std::vector<std::pair<std::uint64_t, std::int64_t>> cpu_marks;

  void begin(std::int64_t t) {
    measuring = true;
    seg_start = t;
    cpu_start = cpu_ns();
  }

  void finish(const core::CallResult& r, const Buffer& args, std::int64_t w0, sim::Time v0,
              sim::Time v1) {
    const std::int64_t w1 = now_ns();
    if (!r.ok()) {
      ++failed;
      if (first_error.empty()) first_error = "call failed with status " + std::to_string(static_cast<int>(r.status));
      return;
    }
    if (!(r.result == args)) {
      ++failed;
      ++wrong;
      if (first_error.empty()) first_error = "echoed bytes differ from the bytes sent";
      return;
    }
    ++completed;
    if (measuring && w0 >= seg_start) {
      lat_us.push_back(ns_to_us(w1 - w0));
      vlat_us.push_back(static_cast<double>(v1 - v0));
    }
    if (spans != nullptr) {
      spans->add("call", r.id.value(), w0, w1);
      spans->map_tag(args_tag(args), r.id.value());
    }
    if (cpu_stride != 0 && completed % cpu_stride == 0) cpu_marks.emplace_back(completed, cpu_ns());
    if (!measuring && completed == begin_after && seg_start == 0) {
      begin(w1);
    } else if (measuring && completed == end_after) {
      measuring = false;
      stop = true;
      seg_end = w1;
      cpu_end = cpu_ns();
    }
  }
};

/// CPU per call over the last tenth of the marked calls divided by CPU per
/// call over the first tenth: above 1 when per-call cost grows with the
/// calls already served.
double late_early_ratio(const std::vector<std::pair<std::uint64_t, std::int64_t>>& marks) {
  if (marks.size() < 20) return 0;
  const std::size_t tenth = marks.size() / 10;
  const auto per_call = [&](std::size_t a, std::size_t b) {
    return static_cast<double>(marks[b].second - marks[a].second) /
           static_cast<double>(marks[b].first - marks[a].first);
  };
  const double early = per_call(0, tenth);
  const double late = per_call(marks.size() - 1 - tenth, marks.size() - 1);
  return early > 0 ? late / early : 0;
}

// ---- per-layer numbers, from public counters ----

struct LayerTotals {
  std::uint64_t calls = 0;
  std::uint64_t steps = 0;
  std::uint64_t handlers = 0;
  std::uint64_t datagrams = 0;
  std::uint64_t bytes = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t dups_suppressed = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t executions = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t polls = 0;
  std::uint64_t empty_polls = 0;
  std::int64_t poll_busy_ns = 0;
  std::int64_t poll_idle_ns = 0;
  std::int64_t segment_ns = 0;
  double old_calls = 0;
  double snapshot_bytes = 0;
  double snapshot_build_us = 0;
  std::vector<double> late_early;
  std::size_t chain = 0;
};

/// Adds the sites' micro-protocol counters (fresh sites: counted from zero).
void harvest(const std::vector<core::Site*>& sites, LayerTotals& l) {
  for (core::Site* s : sites) {
    core::GrpcComposite& g = s->grpc();
    if (g.reliable() != nullptr) l.retransmissions += g.reliable()->retransmissions();
    if (g.unique() != nullptr) {
      l.dups_suppressed += g.unique()->duplicates_suppressed();
      l.acks_sent += g.unique()->ack_messages_sent();
    }
    if (g.atomic() != nullptr) l.checkpoints += g.atomic()->checkpoints_taken();
    l.executions += s->total_executions();
  }
}

std::size_t msg_from_network_chain(core::Site& server) {
  std::size_t n = 0;
  for (const auto& r : server.grpc().framework().registrations()) n += r.event == "MSG_FROM_NETWORK";
  return n;
}

/// Atomic Execution's checkpoint as stored (its size), and the time to
/// build the same snapshot again from the public pieces it is made of: the
/// user state hooks plus every checkpoint participant's encode_state().
/// (AtomicExecution::build_snapshot() itself is private.)
void snapshot_probe(core::Site& server, SpanLog* spans, LayerTotals& l) {
  core::GrpcComposite& g = server.grpc();
  if (g.atomic() == nullptr) return;
  if (const auto addr = server.stable().var("atomic.current")) {
    if (const auto snap = server.stable().load_checkpoint(storage::StableAddress{*addr})) {
      l.snapshot_bytes = static_cast<double>(snap->size());
    }
  }
  const core::GrpcState& st = g.state();
  std::vector<double> times;
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t t0 = now_ns();
    Buffer snapshot;
    Writer w(snapshot);
    const Buffer user_state = st.user != nullptr ? st.user->snapshot_state() : Buffer{};
    w.raw(user_state.bytes());
    w.u32(static_cast<std::uint32_t>(st.checkpoint_participants.size()));
    for (const core::CheckpointParticipant* p : st.checkpoint_participants) {
      Buffer part;
      Writer pw(part);
      p->encode_state(pw);
      w.raw(part.bytes());
    }
    const std::int64_t t1 = now_ns();
    if (spans != nullptr) spans->add("probe.storage.snapshot_build", 0, t0, t1);
    times.push_back(ns_to_us(t1 - t0));
  }
  l.snapshot_build_us = median(times);
}

/// What every traced episode adds, once its calls are done.
void collect_layers(LayerTotals& l, const std::vector<core::Site*>& sites, core::Site& server,
                    net::Transport& transport, const CallLog& log, SpanLog* spans) {
  l.calls += log.completed;
  l.datagrams += transport.stats().sent;
  l.bytes += transport.stats().bytes_sent;
  harvest(sites, l);
  if (core::UniqueExecution* u = server.grpc().unique()) {
    l.old_calls = static_cast<double>(u->old_calls());
  }
  snapshot_probe(server, spans, l);
  l.late_early.push_back(late_early_ratio(log.cpu_marks));
  l.chain = msg_from_network_chain(server);
}

/// Counts handler invocations on every site while an episode is traced.
void observe_handlers(const std::vector<core::Site*>& sites, std::uint64_t* handlers) {
  for (core::Site* s : sites) {
    if (handlers == nullptr) {
      s->grpc().framework().set_trace_observer(nullptr);
    } else {
      s->grpc().framework().set_trace_observer(
          [handlers](sim::Time, const std::string&, const std::string&) { ++*handlers; });
    }
  }
}

double per_call(double v, std::uint64_t calls) {
  return calls == 0 ? 0 : v / static_cast<double>(calls);
}

void account_calls(Outcome& out, const CallLog& log) {
  out.attempted += log.attempted;
  out.failed += log.failed;
  if (log.wrong != 0) {
    out.correct = false;
    out.violations.push_back(std::to_string(log.wrong) + " wrong results; first: " + log.first_error);
  } else if (log.failed != 0) {
    out.violations.push_back(std::to_string(log.failed) + " calls failed; first: " + log.first_error);
  }
}

// ---- episodes and the run loop ----

/// A fixed-size uniform sample of a stream of values (reservoir sampling,
/// seeded), from which a run takes its latency percentiles.  Its memory is
/// touched up front and does not grow with the calls a run completes, so
/// peak_rss_mb does not depend on how fast the code is.
class Reservoir {
 public:
  static constexpr std::size_t kCap = std::size_t{1} << 16;

  explicit Reservoir(std::uint64_t seed) : values_(kCap, 0.0), state_(seed) {}

  void add(double v) {
    if (seen_ < kCap) {
      values_[seen_++] = v;
      return;
    }
    const std::uint64_t j = next() % ++seen_;
    if (j < kCap) values_[j] = v;
  }
  /// The sample: every value so far, or kCap of them chosen uniformly.
  [[nodiscard]] std::vector<double> values() const {
    const auto n = static_cast<std::ptrdiff_t>(std::min<std::uint64_t>(seen_, kCap));
    return {values_.begin(), values_.begin() + n};
  }
  [[nodiscard]] std::uint64_t seen() const { return seen_; }

 private:
  std::uint64_t next() {  // splitmix64
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::vector<double> values_;
  std::uint64_t state_;
  std::uint64_t seen_ = 0;
};

struct Episode {
  /// How much slower than the reference host the host ran around this
  /// episode.  Every timed value below is reported divided by it (NOTES.md).
  double slowdown = 1;
  double setup_s = 0;
  std::int64_t wall_ns = 0;  ///< measured segment
  std::int64_t cpu_ns = 0;   ///< process CPU over the segment
  std::uint64_t calls = 0;   ///< completions in the segment
  std::vector<double> lat_us;   ///< the segment's real latencies
  std::vector<double> vlat_us;  ///< the same on the transport's clock

  /// Frees the latency samples once they are pooled: episodes are kept
  /// for the whole run, and `= {}` would keep the capacity.
  void release_samples() {
    std::vector<double>().swap(lat_us);
    std::vector<double>().swap(vlat_us);
  }

  /// Timed calls per second, scaled to the reference host.
  [[nodiscard]] double rate() const {
    return slowdown * static_cast<double>(calls) /
           (static_cast<double>(std::max<std::int64_t>(wall_ns, 1)) / 1e9);
  }
};

void summarise(Episode& ep, CallLog& log) {
  ep.wall_ns = log.seg_end - log.seg_start;
  ep.cpu_ns = log.cpu_end - log.cpu_start;
  ep.calls = log.end_after - log.begin_after;
  ep.lat_us = std::move(log.lat_us);
  ep.vlat_us = std::move(log.vlat_us);
}

/// Runs one episode; `index` selects its inputs (episodes with the same
/// index run the same inputs).  `spans`/`layer` are set for traced ones.
using EpisodeFn = std::function<Episode(int index, Outcome&, SpanLog*, LayerTotals*)>;

struct Workload {
  EpisodeFn episode;
  int round;           ///< distinct episode indices; a run covers whole rounds
  bool deterministic;  ///< virtual latency repeats exactly per index
  bool sockets;        ///< timed against the loopback kernel as well
  std::size_t payload;
};

Outcome run_workload(const Options& opt, const Workload& wl) {
  Outcome out;
  const std::int64_t budget = static_cast<std::int64_t>(opt.seconds) * 1'000'000'000;
  const std::int64_t start = now_ns();
  std::vector<Episode> plain, traced;
  std::vector<std::vector<double>> first_vlat(static_cast<std::size_t>(wl.round));
  SpanLog spans;
  LayerTotals layer;
  bool diverged = false;
  // Every timed call's latency, scaled by its episode's slowdown; the
  // simulator's virtual latencies are exact and kept apart in first_vlat.
  Reservoir lat(opt.seed), vlat(opt.seed + 1);
  // The reference kernels run between episodes.  An episode's slowdown is
  // the mean of their slowdowns just before and just after it; a workload
  // on sockets takes the geometric mean of the hash-map and loopback
  // kernels, the simulator the hash-map kernel alone.
  std::vector<double> slowdowns;
  const auto host_slowdown = [&] {
    const double map = reference_kernel_us() / kReferenceKernelUs;
    if (!wl.sockets) return map;
    const double loopback = reference_loopback_us();
    if (loopback <= 0) {
      out.violate("the reference loopback kernel could not use 127.0.0.1");
      return map;
    }
    return std::sqrt(map * loopback / kReferenceLoopbackUs);
  };
  double before = host_slowdown();
  const auto time_host = [&](Episode& e) {
    const double after = host_slowdown();
    e.slowdown = (before + after) / 2;
    before = after;
    slowdowns.push_back(e.slowdown);
  };
  for (int i = 0; now_ns() - start < budget || i % wl.round != 0; ++i) {
    // Traced runs alternate plain and traced episodes on the same inputs,
    // so the tracing overhead is not confounded with drift in the host.
    Episode ep = wl.episode(i % wl.round, out, nullptr, nullptr);
    time_host(ep);
    if (wl.deterministic) {
      auto& ref = first_vlat[static_cast<std::size_t>(i % wl.round)];
      if (ref.empty()) {
        ref = ep.vlat_us;
      } else if (ep.vlat_us != ref && !diverged) {
        diverged = true;
        out.violate("virtual latencies differ between episodes with the same inputs");
      }
    }
    for (double v : ep.lat_us) lat.add(v / ep.slowdown);
    if (!wl.deterministic) {
      for (double v : ep.vlat_us) vlat.add(v / ep.slowdown);
    }
    ep.release_samples();
    plain.push_back(std::move(ep));
    if (opt.trace) {
      Episode tr = wl.episode(i % wl.round, out, &spans, &layer);
      time_host(tr);
      tr.release_samples();
      traced.push_back(std::move(tr));
    }
  }
  out.host_slowdown = median(slowdowns);

  const auto med = [](const std::vector<Episode>& eps, auto field) {
    std::vector<double> v;
    for (const Episode& e : eps) v.push_back(field(e));
    return median(v);
  };
  const std::uint64_t n = plain.size();
  if (!opt.trace) {
    out.add("calls_per_s", med(plain, [](const Episode& e) { return e.rate(); }), "1/s", n);
    out.add("latency_p50_us", quantile(lat.values(), 0.50), "us", lat.seen());
    out.add("latency_p99_us", quantile(lat.values(), 0.99), "us", lat.seen());
    if (wl.deterministic) {
      // One value per seed: the first round's virtual latencies, pooled;
      // every later round repeated them exactly.
      std::vector<double> pooled;
      for (const auto& v : first_vlat) pooled.insert(pooled.end(), v.begin(), v.end());
      out.add("vlatency_p50_us", quantile(pooled, 0.50), "us", pooled.size());
      out.add("vlatency_p99_us", quantile(pooled, 0.99), "us", pooled.size());
    } else {
      // The transport's clock is the host's: scaled like real latency.
      out.add("vlatency_p50_us", quantile(vlat.values(), 0.50), "us", vlat.seen());
      out.add("vlatency_p99_us", quantile(vlat.values(), 0.99), "us", vlat.seen());
    }
    out.add("cpu_us_per_call", med(plain, [](const Episode& e) {
              return ns_to_us(e.cpu_ns) / static_cast<double>(std::max<std::uint64_t>(e.calls, 1)) /
                     e.slowdown;
            }), "us", n);
    out.add("setup_s", med(plain, [](const Episode& e) { return e.setup_s / e.slowdown; }), "s", n);
    out.add("peak_rss_mb", peak_rss_mb(), "MiB");
    return out;
  }

  const std::uint64_t c = layer.calls;
  const auto pc = [c](std::uint64_t v) { return per_call(static_cast<double>(v), c); };
  out.add("storage.checkpoints_per_call", pc(layer.checkpoints), "count", c);
  out.add("storage.snapshot_bytes", layer.snapshot_bytes, "bytes");
  out.add("storage.snapshot_build_us", layer.snapshot_build_us, "us", 5);
  out.add("core.unique_old_calls", layer.old_calls, "count");
  out.add("core.late_early_cost_ratio", median(layer.late_early), "ratio", layer.late_early.size());
  out.add("core.retransmissions_per_call", pc(layer.retransmissions), "count", c);
  out.add("core.dup_suppressed_per_call", pc(layer.dups_suppressed), "count", c);
  out.add("core.acks_per_call", pc(layer.acks_sent), "count", c);
  out.add("core.executions_per_call", pc(layer.executions), "count", c);
  out.add("sim.steps_per_call", pc(layer.steps), "count", c);
  out.add("runtime.handlers_per_call", pc(layer.handlers), "count", c);
  out.add("net.datagrams_per_call", pc(layer.datagrams), "count", c);
  out.add("net.bytes_per_call", pc(layer.bytes), "bytes", c);
  // Poll-loop numbers cover the measured segments only; the simulator has
  // no sockets, so they stay 0 there.
  std::uint64_t seg_calls = 0;
  for (const Episode& e : traced) seg_calls += e.calls;
  const auto ps = [seg_calls](double v) { return per_call(v, seg_calls); };
  out.add("net.poll_calls_per_call", ps(static_cast<double>(layer.polls)), "count", seg_calls);
  out.add("net.poll_busy_us_per_call", ps(ns_to_us(layer.poll_busy_ns)), "us", seg_calls);
  out.add("net.poll_idle_us_per_call", ps(ns_to_us(layer.poll_idle_ns)), "us", seg_calls);
  out.add("net.empty_poll_ratio", per_call(static_cast<double>(layer.empty_polls), layer.polls), "ratio", layer.polls);
  out.add("net.poll_wall_share",
          layer.segment_ns == 0 ? 0
                                : static_cast<double>(layer.poll_busy_ns + layer.poll_idle_ns) /
                                      static_cast<double>(layer.segment_ns),
          "ratio", layer.polls);

  const ProbeResults p = run_probes(layer.chain, wl.payload, opt.seed, &spans);
  out.add("sim.spawn_run_ns", p.spawn_run_ns, "ns", 5);
  out.add("runtime.trigger_ns", p.trigger_ns, "ns", 5);
  out.add("runtime.timeout_register_cancel_ns", p.timeout_register_cancel_ns, "ns", 5);
  out.add("net.wire_encode_ns", p.wire_encode_ns, "ns", 5);
  out.add("net.wire_decode_ns", p.wire_decode_ns, "ns", 5);
  out.add("net.msg_codec_ns", p.msg_codec_ns, "ns", 5);
  out.add("net.timer_wheel_add_cancel_ns", p.timer_wheel_add_cancel_ns, "ns", 5);
  out.add("common.buffer_append_ns", p.buffer_append_ns, "ns", 5);
  out.add("core.composite_vs_p2p_ratio", p.composite_vs_p2p_ratio, "ratio", 3);

  const double base = med(plain, [](const Episode& e) { return e.rate(); });
  const double with = med(traced, [](const Episode& e) { return e.rate(); });
  out.add("obs.trace_overhead_pct", base > 0 ? 100.0 * (base - with) / base : 0, "%",
          plain.size() + traced.size());

  if (!opt.trace_out.empty()) {
    if (spans.write(opt.trace_out)) {
      std::printf("spans: %zu written to %s (%llu over the cap not kept)\n", spans.size(),
                  opt.trace_out.c_str(), static_cast<unsigned long long>(spans.dropped()));
    } else {
      out.violate("cannot write spans to " + opt.trace_out);
    }
  }
  return out;
}

// ==== write_ordered_sim ====

sim::Task<> sim_client(core::Client& client, sim::Scheduler& sched, CallLog& log,
                       std::uint64_t seed, std::uint32_t cid) {
  for (std::uint64_t k = 1; k <= kSimCallsPerClient; ++k) {
    Buffer args = make_args(seed, cid, k, kSimArgs);
    ++log.attempted;
    const sim::Time v0 = sched.now();
    const std::int64_t w0 = now_ns();
    const core::CallResult r = co_await client.call(kGroup, kOp, args);
    log.finish(r, args, w0, v0, sched.now());
  }
  ++log.finished_fibers;
}

/// One episode: fresh scenario, every client runs its calls, then the
/// correctness gate: replicas agree, and each completed call executed
/// exactly once at each server.
Episode sim_episode(const Options& opt, int index, Outcome& out, SpanLog* spans,
                    LayerTotals* layer) {
  const std::uint64_t seed = opt.seed * kSimSeedsPerRound + static_cast<std::uint64_t>(index);
  // Everything the sites, fibers and observers point at outlives `sc`.
  Episode ep;
  ServerApp app;
  app.corrupt_echo = opt.corrupt_echo;
  app.spans = spans;
  app.regs.resize(kServers);
  CallLog log;
  log.spans = spans;
  log.cpu_stride = layer != nullptr ? 1 : 0;
  log.end_after = kSimClients * kSimCallsPerClient;
  std::uint64_t handlers = 0;

  const std::int64_t s0 = now_ns();
  core::ScenarioParams p;
  p.num_servers = kServers;
  p.num_clients = kSimClients;
  p.config = core::ConfigBuilder::at_most_once().total_order().acceptance_limit(core::kAll).build();
  p.faults.drop_prob = 0.02;
  p.faults.dup_prob = 0.01;
  p.seed = seed;
  p.server_app = server_setup(&app, true);
  core::Scenario sc(std::move(p));
  ep.setup_s = static_cast<double>(now_ns() - s0) / 1e9;

  std::vector<core::Site*> sites;
  for (int i = 0; i < kServers; ++i) sites.push_back(&sc.server(i));
  for (int c = 0; c < kSimClients; ++c) sites.push_back(&sc.client_site(c));
  if (layer != nullptr) observe_handlers(sites, &handlers);

  sim::Scheduler& sched = sc.scheduler();
  for (int c = 0; c < kSimClients; ++c) {
    sched.spawn(sim_client(sc.client(c), sched, log, seed, static_cast<std::uint32_t>(c + 1)),
                sc.client_site(c).domain());
  }

  std::uint64_t steps = 0;
  std::int64_t batch_start = now_ns();
  log.begin(batch_start);
  while (log.finished_fibers < kSimClients && sched.now() < kSimVirtualLimit && sched.step()) {
    ++steps;
    if (spans != nullptr && (steps & 1023) == 0) {
      const std::int64_t t = now_ns();
      spans->add("sim.step_batch", 0, batch_start, t);
      batch_start = t;
    }
  }
  if (log.measuring) {  // a call failed: the segment never reached its end
    log.measuring = false;
    log.seg_end = now_ns();
    log.cpu_end = cpu_ns();
  }
  summarise(ep, log);
  std::sort(ep.vlat_us.begin(), ep.vlat_us.end());

  // ---- correctness gate ----
  account_calls(out, log);
  if (log.finished_fibers != kSimClients) {
    out.violate("clients did not finish within the virtual time limit");
  }
  const Register& ref = app.regs[0];
  for (int i = 1; i < kServers; ++i) {
    const Register& r = app.regs[static_cast<std::size_t>(i)];
    if (r.hash != ref.hash || r.count != ref.count) {
      out.violate("server " + std::to_string(i + 1) + " register disagrees with server 1");
    }
  }
  if (ref.count != log.completed) {
    out.violate("register holds " + std::to_string(ref.count) + " writes, " +
                std::to_string(log.completed) + " calls completed");
  }
  const std::uint64_t execs = sc.total_server_executions();
  if (execs != log.completed * kServers) {
    out.violate("total_executions() = " + std::to_string(execs) + ", expected " +
                std::to_string(log.completed * kServers));
  }

  if (layer != nullptr) {
    observe_handlers(sites, nullptr);
    layer->steps += steps;
    layer->handlers += handlers;
    collect_layers(*layer, sites, sc.server(0), sc.transport(), log, spans);
  }
  return ep;
}

// ==== UDP workloads ====

struct UdpSpec {
  core::Config config;
  int clients;          ///< client sites
  int window;           ///< calls each client keeps outstanding
  bool async;           ///< call_async + get() instead of call()
  std::size_t payload;  ///< argument bytes, echoed back
  std::uint64_t warmup_calls;
  std::uint64_t measured_calls;
};

/// Every site -- 3 servers and the clients -- on ONE UdpTransport: a single
/// poll() covers every socket, so the loop never sleeps on one socket while
/// another has datagrams queued.  Each site still has its own socket and
/// every message crosses the loopback interface.
struct UdpTopology {
  explicit UdpTopology(std::uint64_t seed) : transport(options(seed)) {}
  static net::UdpTransport::Options options(std::uint64_t seed) {
    net::UdpTransport::Options o;
    o.seed = seed;
    return o;
  }
  net::UdpTransport transport;  // declared first: destroyed after the sites
  std::vector<std::unique_ptr<core::Site>> servers;
  std::vector<std::unique_ptr<core::Site>> clients;
  std::vector<std::unique_ptr<core::Client>> handles;

  [[nodiscard]] std::vector<core::Site*> sites() const {
    std::vector<core::Site*> out;
    for (const auto& s : servers) out.push_back(s.get());
    for (const auto& s : clients) out.push_back(s.get());
    return out;
  }
};

std::unique_ptr<UdpTopology> build_udp(std::uint64_t seed, const UdpSpec& spec, ServerApp* app) {
  auto topo = std::make_unique<UdpTopology>(seed);
  std::set<ProcessId> known;
  std::vector<ProcessId> members;
  for (int i = 0; i < kServers; ++i) {
    members.push_back(ProcessId{static_cast<std::uint32_t>(i + 1)});
    known.insert(members.back());
  }
  for (int c = 0; c < spec.clients; ++c) {
    known.insert(ProcessId{static_cast<std::uint32_t>(kServers + c + 1)});
  }
  topo->transport.define_group(kGroup, members);
  for (ProcessId id : members) {
    topo->servers.push_back(std::make_unique<core::Site>(topo->transport, id, spec.config, known));
    topo->servers.back()->set_app(server_setup(app, false));
    topo->servers.back()->boot();
  }
  for (int c = 0; c < spec.clients; ++c) {
    const ProcessId id{static_cast<std::uint32_t>(kServers + c + 1)};
    topo->clients.push_back(std::make_unique<core::Site>(topo->transport, id, spec.config, known));
    topo->clients.back()->boot();
    topo->handles.push_back(std::make_unique<core::Client>(*topo->clients.back()));
  }
  return topo;
}

sim::Task<> udp_client(core::Client& client, net::UdpTransport& t, CallLog& log,
                       const UdpSpec& spec, std::uint64_t seed, std::uint32_t cid,
                       std::uint64_t& next_seq) {
  while (!log.stop) {
    Buffer args = make_args(seed, cid, ++next_seq, spec.payload);
    ++log.attempted;
    const std::int64_t w0 = now_ns();
    const sim::Time v0 = t.now();
    core::CallResult r;
    if (spec.async) {
      core::CallHandle h = co_await client.call_async(kGroup, kOp, args);
      r = co_await h.get();
    } else {
      r = co_await client.call(kGroup, kOp, args);
    }
    log.finish(r, args, w0, v0, t.now());
  }
  ++log.finished_fibers;
}

/// One episode: fresh topology, warm-up calls, the measured segment, then a
/// drain so every call issued is accounted for.  In traced episodes each
/// poll_once() of the segment is timed and classified by whether it
/// received a datagram.
Episode udp_episode(const Options& opt, const UdpSpec& spec, Outcome& out, SpanLog* spans,
                    LayerTotals* layer) {
  // Everything the sites, fibers and observers point at outlives `topo`.
  Episode ep;
  ServerApp app;
  app.corrupt_echo = opt.corrupt_echo;
  app.spans = spans;
  CallLog log;
  log.spans = spans;
  log.cpu_stride = layer != nullptr ? 64 : 0;
  log.begin_after = spec.warmup_calls;
  log.end_after = spec.warmup_calls + spec.measured_calls;
  std::vector<std::uint64_t> next_seq(static_cast<std::size_t>(spec.clients), 0);
  std::uint64_t handlers = 0;

  const std::int64_t s0 = now_ns();
  const std::unique_ptr<UdpTopology> topo = build_udp(opt.seed, spec, &app);
  ep.setup_s = static_cast<double>(now_ns() - s0) / 1e9;
  net::UdpTransport& t = topo->transport;
  const std::vector<core::Site*> sites = topo->sites();
  if (layer != nullptr) observe_handlers(sites, &handlers);
  for (int c = 0; c < spec.clients; ++c) {
    const auto ci = static_cast<std::size_t>(c);
    for (int j = 0; j < spec.window; ++j) {
      t.spawn(udp_client(*topo->handles[ci], t, log, spec, opt.seed,
                         static_cast<std::uint32_t>(c + 1), next_seq[ci]),
              topo->clients[ci]->domain());
    }
  }

  const std::int64_t limit = now_ns() + kUdpEpisodeLimitNs;
  std::int64_t t0 = now_ns();
  while (!log.stop && t0 < limit) {
    const bool in_segment = log.measuring;
    const std::uint64_t rx0 = t.stats().delivered + t.stats().dropped;
    t.poll_once(sim::msec(1));
    const std::int64_t t1 = now_ns();
    if (layer != nullptr && in_segment) {
      ++layer->polls;
      if (t.stats().delivered + t.stats().dropped == rx0) {
        ++layer->empty_polls;
        layer->poll_idle_ns += t1 - t0;
      } else {
        layer->poll_busy_ns += t1 - t0;
      }
      spans->add("net.poll_once", 0, t0, t1);
    }
    t0 = t1;
  }
  const bool reached = log.stop;
  log.stop = true;
  const int fibers = spec.clients * spec.window;
  const std::int64_t drain_end = now_ns() + kDrainNs;
  while (log.finished_fibers < fibers && now_ns() < drain_end) t.poll_once(sim::msec(1));

  // ---- correctness gate ----
  account_calls(out, log);
  if (!reached) out.violate("episode did not reach its call count in time");
  if (log.finished_fibers < fibers) out.violate("calls still outstanding after the drain");
  if (!reached) return ep;
  summarise(ep, log);

  if (layer != nullptr) {
    observe_handlers(sites, nullptr);
    layer->handlers += handlers;
    layer->segment_ns += ep.wall_ns;
    collect_layers(*layer, sites, *topo->servers[0], t, log, spans);
  }
  return ep;
}

Outcome run_udp(const Options& opt, const UdpSpec& spec) {
  return run_workload(opt, Workload{[&opt, &spec](int, Outcome& out, SpanLog* spans,
                                                   LayerTotals* layer) {
                                      return udp_episode(opt, spec, out, spans, layer);
                                    },
                                    1, false, true, spec.payload});
}

}  // namespace

Outcome run_write_ordered_sim(const Options& opt) {
  return run_workload(opt, Workload{[&opt](int index, Outcome& out, SpanLog* spans,
                                           LayerTotals* layer) {
                                      return sim_episode(opt, index, out, spans, layer);
                                    },
                                    kSimSeedsPerRound, true, false, kSimArgs});
}

Outcome run_read_fanout_udp(const Options& opt) {
  return run_udp(opt, UdpSpec{core::ConfigBuilder::read_optimized().build(), 4, 1, false, 64,
                              1'000, 5'000});
}

Outcome run_bulk_echo_udp(const Options& opt) {
  return run_udp(opt, UdpSpec{core::ConfigBuilder::exactly_once()
                                  .asynchronous()
                                  .acceptance_limit(core::kAll)
                                  .build(),
                              1, 2, true, 8 * 1024, 500, 2'500});
}

}  // namespace perfbench
