// Post-run probes: isolated calls into one layer each, timed from outside.
// Every probe repeats a fixed batch of operations five times and reports the
// median batch, in nanoseconds per operation.
#include <functional>
#include <string>
#include <vector>

#include "core/p2p_rpc.h"
#include "core/scenario.h"
#include "net/message.h"
#include "net/sim_transport.h"
#include "net/timer_wheel.h"
#include "net/wire.h"
#include "perfbench.h"
#include "runtime/framework.h"

namespace perfbench {
namespace {

using namespace ugrpc;

constexpr int kReps = 5;
constexpr runtime::EventId kProbeEvent{1};

/// Keeps results observable so the optimiser cannot drop the timed work.
volatile std::uint64_t g_sink = 0;

/// Median over kReps of (time of `batch` / ops).  `batch` returns the
/// number of operations it performed.
double ns_per_op(const char* span, SpanLog* spans, const std::function<std::uint64_t()>& batch) {
  std::vector<double> per_op;
  for (int rep = 0; rep < kReps; ++rep) {
    const std::int64_t t0 = now_ns();
    const std::uint64_t ops = batch();
    const std::int64_t t1 = now_ns();
    if (spans != nullptr) spans->add(span, 0, t0, t1);
    per_op.push_back(static_cast<double>(t1 - t0) / static_cast<double>(std::max<std::uint64_t>(ops, 1)));
  }
  return median(per_op);
}

sim::Task<> noop_fiber() { co_return; }

sim::Task<> trigger_loop(runtime::Framework& fw, int n) {
  for (int i = 0; i < n; ++i) co_await fw.trigger(kProbeEvent);
}

sim::Task<> composite_calls(core::Client& client, GroupId group, int n) {
  for (int i = 0; i < n; ++i) {
    const core::CallResult r = co_await client.call(group, OpId{1}, Buffer{});
    g_sink = g_sink + static_cast<std::uint64_t>(r.status);
  }
}

sim::Task<> p2p_calls(core::P2pRpc& rpc, int n) {
  for (int i = 0; i < n; ++i) {
    const core::CallResult r = co_await rpc.call(ProcessId{2}, OpId{1}, Buffer{});
    g_sink = g_sink + static_cast<std::uint64_t>(r.status);
  }
}

/// Wall time per call of one single-server composite call vs the compact
/// point-to-point protocol, both reliable + unique execution, over the
/// simulator: the modularity tax.
double composite_vs_p2p(std::uint64_t seed, SpanLog* spans) {
  constexpr int kCalls = 2000;
  std::vector<double> ratios;
  for (int rep = 0; rep < 3; ++rep) {
    core::ScenarioParams p;
    p.num_servers = 1;
    p.seed = seed;
    p.config.acceptance_limit = 1;
    p.config.reliable_communication = true;
    p.config.unique_execution = true;
    core::Scenario s(std::move(p));
    s.scheduler().spawn(composite_calls(s.client(0), s.group(), kCalls), s.client_site(0).domain());
    const std::int64_t c0 = now_ns();
    s.scheduler().run();
    const std::int64_t c1 = now_ns();

    sim::Scheduler sched{seed};
    net::Network net{sched};
    net::SimTransport transport{net};
    net::Endpoint& client_ep = net.attach(ProcessId{1}, DomainId{1});
    net::Endpoint& server_ep = net.attach(ProcessId{2}, DomainId{2});
    core::UserProtocol client_user;
    core::UserProtocol server_user;
    server_user.set_procedure([](OpId, Buffer&) -> sim::Task<> { co_return; });
    core::P2pRpc client(transport, client_ep, ProcessId{1}, client_user, {});
    core::P2pRpc server(transport, server_ep, ProcessId{2}, server_user, {});
    sched.spawn(p2p_calls(client, kCalls), DomainId{1});
    const std::int64_t p0 = now_ns();
    sched.run();
    const std::int64_t p1 = now_ns();
    if (spans != nullptr) {
      spans->add("probe.core.composite_calls", 0, c0, c1);
      spans->add("probe.core.p2p_calls", 0, p0, p1);
    }
    ratios.push_back(static_cast<double>(c1 - c0) / static_cast<double>(std::max<std::int64_t>(p1 - p0, 1)));
  }
  return median(ratios);
}

}  // namespace

ProbeResults run_probes(std::size_t handlers, std::size_t payload, std::uint64_t seed,
                        SpanLog* spans) {
  ProbeResults r;

  {
    sim::Scheduler sched{seed};
    r.spawn_run_ns = ns_per_op("probe.sim.spawn_run", spans, [&] {
      constexpr int kOps = 20000;
      for (int i = 0; i < kOps; ++i) {
        sched.spawn(noop_fiber());
        sched.run();
      }
      return std::uint64_t{kOps};
    });
  }

  {
    sim::Scheduler sched{seed};
    net::Network net{sched};
    net::SimTransport transport{net};
    runtime::Framework fw(transport, DomainId{1});
    for (std::size_t i = 0; i < handlers; ++i) {
      std::string name = "h";
      name += std::to_string(i);
      fw.register_handler(kProbeEvent, std::move(name), static_cast<int>(i),
                          [](runtime::EventContext&) -> sim::Task<> { co_return; });
    }
    r.trigger_ns = ns_per_op("probe.runtime.trigger", spans, [&] {
      constexpr int kOps = 20000;
      sched.spawn(trigger_loop(fw, kOps));
      sched.run();
      return std::uint64_t{kOps};
    });
    r.timeout_register_cancel_ns = ns_per_op("probe.runtime.timeout_register_cancel", spans, [&] {
      constexpr int kOps = 20000;
      for (int i = 0; i < kOps; ++i) {
        const TimerId id = fw.register_timeout("probe", sim::msec(50),
                                               []() -> sim::Task<> { co_return; });
        fw.cancel_timeout(id);
      }
      return std::uint64_t{kOps};
    });
  }

  const Buffer body = make_args(seed, 1, 1, payload);
  const net::WireFrame frame{ProcessId{1}, ProcessId{2}, ProtocolId{1}, 1, 7, 9, body};
  const Buffer encoded = frame.encode();
  const int codec_ops = payload > 1024 ? 2000 : 20000;
  r.wire_encode_ns = ns_per_op("probe.net.wire_encode", spans, [&] {
    for (int i = 0; i < codec_ops; ++i) g_sink = g_sink + frame.encode().size();
    return static_cast<std::uint64_t>(codec_ops);
  });
  r.wire_decode_ns = ns_per_op("probe.net.wire_decode", spans, [&] {
    for (int i = 0; i < codec_ops; ++i) g_sink = g_sink + net::WireFrame::decode(encoded.bytes())->payload.size();
    return static_cast<std::uint64_t>(codec_ops);
  });
  net::NetMessage msg;
  msg.type = net::MsgType::kCall;
  msg.id = CallId{(std::uint64_t{4} << 40) | 1};
  msg.op = OpId{1};
  msg.args = body;
  msg.server = GroupId{1};
  msg.sender = ProcessId{4};
  msg.inc = 1;
  r.msg_codec_ns = ns_per_op("probe.net.msg_codec", spans, [&] {
    for (int i = 0; i < codec_ops; ++i) {
      g_sink = g_sink + net::NetMessage::decode(msg.encode()).args.size();
    }
    return static_cast<std::uint64_t>(codec_ops);
  });
  r.buffer_append_ns = ns_per_op("probe.common.buffer_append", spans, [&] {
    for (int i = 0; i < codec_ops; ++i) {
      Buffer b;
      b.append(body.bytes());
      g_sink = g_sink + b.size();
    }
    return static_cast<std::uint64_t>(codec_ops);
  });

  {
    net::TimerWheel wheel;
    r.timer_wheel_add_cancel_ns = ns_per_op("probe.net.timer_wheel_add_cancel", spans, [&] {
      constexpr int kOps = 20000;
      for (int i = 0; i < kOps; ++i) {
        wheel.cancel(wheel.add(sim::msec(50) + i, [] {}, DomainId{1}));
      }
      return std::uint64_t{kOps};
    });
  }

  const std::int64_t t0 = now_ns();
  r.composite_vs_p2p_ratio = composite_vs_p2p(seed, spans);
  if (spans != nullptr) spans->add("probe.core.composite_vs_p2p", 0, t0, now_ns());
  return r;
}

}  // namespace perfbench
