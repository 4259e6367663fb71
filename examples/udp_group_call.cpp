// Group RPC over real UDP between separate OS processes.
//
// The exact protocol stack the simulator runs -- Site, GrpcComposite, the
// micro-protocols -- booted over net::UdpTransport instead of the simulated
// fabric.  The parent process forks one OS process per server, exchanges
// the ephemeral UDP ports over pipes (no fixed ports, so parallel runs
// cannot collide), then acts as the client: it multicasts each call to the
// server group over 127.0.0.1 and waits for the exactly-once preset's
// accepted reply.
//
//   usage: udp_group_call [--servers N] [--calls N] [--timeout-sec N]
//                         [--trace-dir DIR] [--force-retransmit]
//                         [--telemetry-port N] [--port-file PATH]
//                         [--stats-out PATH] [--serve-sec N]
//                         [--flight-dir DIR] [--stall-bound-us N]
//
// A numeric flag that is not a whole decimal number in range ("2x", a
// sign, a port above 65535) exits 2 before any process is forked.
//
// --trace-dir DIR enables span tracing in every process, and every process,
// the parent included, writes its own trace file DIR/trace-site<id>.bin
// (obs/trace_file.h): its site's records under its configuration line.
// `ugrpcstat --check-flight` replays any one of them against what that line
// promises, and
// `ugrpcstat --perfetto DIR/*` renders them into one Chrome/Perfetto
// document whose span tree crosses the real process boundary (see README
// "Profiling a call").
// --force-retransmit drops the first call datagram to every server before
// it reaches the socket, so the first call completes only after a
// retransmission, whatever the number of servers, and the trace
// demonstrably covers one (loopback UDP never drops on its own).
//
// Live telemetry plane: --telemetry-port serves the client site's
// SiteTelemetry over HTTP from a timer on the transport's loop (0 =
// ephemeral; the chosen port is printed and, with --port-file, written for
// scripts -- scrape /metrics with curl or watch live with tools/ugrpcstat).
// --serve-sec keeps the client serving that many seconds after the calls
// finish.  --stats-out writes the final /metrics exposition.  --flight-dir
// arms the flight recorder (watchdog trips and crash signals dump there);
// --stall-bound-us tightens the stall watchdog's bound, and with it the
// sweep period (half the bound), so a run with --force-retransmit provably
// trips it (the CI telemetry-smoke job).
//
// Exit status 0 iff every call completed OK with the echoed payload and
// every server process shut down cleanly.  The CI smoke job runs
// `udp_group_call --servers 1 --calls 100` under a hard timeout.
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/decimal.h"
#include "core/config_builder.h"
#include "core/grpc_state.h"
#include "core/service.h"
#include "core/site.h"
#include "core/telemetry.h"
#include "net/udp_transport.h"
#include "obs/trace.h"
#include "obs/trace_file.h"

namespace {

using namespace ugrpc;

constexpr GroupId kGroup{1};
constexpr OpId kEcho{7};
/// Each server is a forked process; more than this is a typo, not a test.
constexpr std::uint64_t kMaxServers = 64;

ProcessId server_id(int i) { return ProcessId{static_cast<std::uint32_t>(i + 1)}; }

struct Cli {
  int servers = 2;
  int calls = 20;
  int timeout_sec = 30;
  std::string trace_dir;          ///< empty = tracing off
  bool force_retransmit = false;  ///< drop the first call datagram to each server
  int telemetry_port = -1;        ///< -1 = off, 0 = ephemeral
  std::string port_file;          ///< write the bound telemetry port here
  std::string stats_out;          ///< write the final /metrics text here
  int serve_sec = 0;              ///< keep serving after the calls finish
  std::string flight_dir;         ///< arm the flight recorder
  std::int64_t stall_bound_us = 0;  ///< 0 = config-derived watchdog bound

  /// Any flag that needs the client's SiteTelemetry?
  [[nodiscard]] bool telemetry_on() const {
    return telemetry_port >= 0 || !stats_out.empty() || !flight_dir.empty();
  }
};

/// The server group, in index order.
std::vector<ProcessId> members_of(const Cli& cli) {
  std::vector<ProcessId> members;
  for (int i = 0; i < cli.servers; ++i) members.push_back(server_id(i));
  return members;
}

/// Every process a site knows: the servers and the client.
std::set<ProcessId> known_to(const Cli& cli) {
  std::set<ProcessId> known;
  for (int i = 0; i <= cli.servers; ++i) known.insert(server_id(i));
  return known;
}

/// `v`, the value of numeric flag `flag`, if it is a whole decimal number
/// in [min, max]; otherwise a usage error (exit 2).
std::uint64_t number(const std::string& flag, const char* v, std::uint64_t min,
                     std::uint64_t max) {
  std::uint64_t n = 0;
  if (parse_u64(v, n) && n >= min && n <= max) return n;
  std::fprintf(stderr, "udp_group_call: invalid value for %s: '%s' (expected %llu..%llu)\n",
               flag.c_str(), v == nullptr ? "" : v, static_cast<unsigned long long>(min),
               static_cast<unsigned long long>(max));
  std::exit(2);
}

Cli parse(int argc, char** argv) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](std::uint64_t min, std::uint64_t max) {
      return number(arg, i + 1 < argc ? argv[++i] : nullptr, min, max);
    };
    if (arg == "--servers") cli.servers = static_cast<int>(next(1, kMaxServers));
    else if (arg == "--calls") cli.calls = static_cast<int>(next(1, INT_MAX));
    else if (arg == "--timeout-sec") cli.timeout_sec = static_cast<int>(next(1, INT_MAX));
    else if (arg == "--trace-dir" && i + 1 < argc) cli.trace_dir = argv[++i];
    else if (arg == "--force-retransmit") cli.force_retransmit = true;
    else if (arg == "--telemetry-port") cli.telemetry_port = static_cast<int>(next(0, 65535));
    else if (arg == "--port-file" && i + 1 < argc) cli.port_file = argv[++i];
    else if (arg == "--stats-out" && i + 1 < argc) cli.stats_out = argv[++i];
    else if (arg == "--serve-sec") cli.serve_sec = static_cast<int>(next(0, INT_MAX));
    else if (arg == "--flight-dir" && i + 1 < argc) cli.flight_dir = argv[++i];
    else if (arg == "--stall-bound-us") {
      cli.stall_bound_us = static_cast<std::int64_t>(next(0, INT64_MAX));
    } else {
      std::fprintf(stderr,
                   "usage: udp_group_call [--servers N] [--calls N] [--timeout-sec N]"
                   " [--trace-dir DIR] [--force-retransmit] [--telemetry-port N]"
                   " [--port-file PATH] [--stats-out PATH] [--serve-sec N]"
                   " [--flight-dir DIR] [--stall-bound-us N]\n");
      std::exit(2);
    }
  }
  return cli;
}

bool write_file(const std::string& path, std::string_view content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(content.data(), 1, content.size(), f) == content.size();
  return std::fclose(f) == 0 && ok;
}

/// Writes `site`'s trace file into the --trace-dir: `tracer`'s records under
/// a header naming the site's configuration.
bool write_trace(const Cli& cli, const core::Site& site, const obs::Tracer& tracer) {
  std::error_code ec;
  std::filesystem::create_directories(cli.trace_dir, ec);  // a failure shows when writing
  const std::string path =
      cli.trace_dir + "/trace-site" + std::to_string(site.id().value()) + ".bin";
  const Buffer trace = obs::encode_trace(tracer, {"", site.config().describe()});
  if (write_file(path, {reinterpret_cast<const char*>(trace.bytes().data()), trace.size()})) {
    return true;
  }
  std::fprintf(stderr, "pid %d: cannot write %s\n", getpid(), path.c_str());
  return false;
}

void write_u16(int fd, std::uint16_t v) {
  const ssize_t n = ::write(fd, &v, sizeof(v));
  if (n != sizeof(v)) { std::fprintf(stderr, "pid %d: write_u16 failed: %s\n", getpid(), std::strerror(errno)); std::exit(1); }
}

std::uint16_t read_u16(int fd) {
  std::uint16_t v = 0;
  ssize_t n = ::read(fd, &v, sizeof(v));
  if (n != sizeof(v)) { std::fprintf(stderr, "pid %d: read_u16 got %zd: %s\n", getpid(), n, std::strerror(errno)); std::exit(1); }
  return v;
}

/// Server child: boot a Site over UDP, serve until the control pipe closes.
[[noreturn]] void run_server(const Cli& cli, int index, int port_out_fd, int ctl_fd) {
  const ProcessId my_id = server_id(index);
  const ProcessId client_id{static_cast<std::uint32_t>(cli.servers + 1)};

  net::UdpTransport::Options opt;
  opt.seed = my_id.value();
  net::UdpTransport transport(opt);
  const std::vector<ProcessId> members = members_of(cli);
  core::Site site(transport, my_id, core::ConfigBuilder::exactly_once().build(), known_to(cli));
  obs::Tracer tracer;
  if (!cli.trace_dir.empty()) transport.set_tracer(&tracer);
  write_u16(port_out_fd, transport.local_port(my_id));
  ::close(port_out_fd);

  // Learn the client's and the other servers' ports from the parent.
  transport.add_peer(client_id, "127.0.0.1", read_u16(ctl_fd));
  for (int i = 0; i < cli.servers; ++i) {
    const std::uint16_t port = read_u16(ctl_fd);
    if (server_id(i) != my_id) transport.add_peer(server_id(i), "127.0.0.1", port);
  }
  transport.define_group(kGroup, members);

  site.set_app([](core::UserProtocol& user, core::Site&) {
    user.set_procedure([](OpId, Buffer&) -> sim::Task<> { co_return; });  // echo
  });
  site.boot();

  // Handshake done; from here control reads only poll for the parent's EOF.
  ::fcntl(ctl_fd, F_SETFL, O_NONBLOCK);

  // Serve until the parent closes its end of the control pipe (EOF).
  for (;;) {
    transport.run_for(sim::msec(20));
    char byte;
    const ssize_t n = ::read(ctl_fd, &byte, 1);  // ctl_fd is non-blocking
    if (n == 0) break;                           // EOF: parent is done
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) break;
  }
  std::exit(cli.trace_dir.empty() || write_trace(cli, site, tracer) ? 0 : 1);
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli = parse(argc, argv);
  const ProcessId client_id{static_cast<std::uint32_t>(cli.servers + 1)};

  struct Child {
    pid_t pid;
    int port_fd;  // child -> parent: its ephemeral port
    int ctl_fd;   // parent -> child: peer ports, then EOF to shut down
  };
  std::vector<Child> children;
  for (int i = 0; i < cli.servers; ++i) {
    int port_pipe[2];
    int ctl_pipe[2];
    if (::pipe(port_pipe) != 0 || ::pipe(ctl_pipe) != 0) return 1;
    const pid_t pid = ::fork();
    if (pid < 0) return 1;
    if (pid == 0) {
      ::close(port_pipe[0]);
      ::close(ctl_pipe[1]);
      for (const Child& c : children) {  // inherited older siblings' fds
        ::close(c.port_fd);
        ::close(c.ctl_fd);
      }
      run_server(cli, i, port_pipe[1], ctl_pipe[0]);
    }
    ::close(port_pipe[1]);
    ::close(ctl_pipe[0]);
    children.push_back(Child{pid, port_pipe[0], ctl_pipe[1]});
  }

  // Client side: attach, learn every server's port, tell every server about
  // the client and its peers.
  net::UdpTransport::Options opt;
  opt.seed = client_id.value();
  net::UdpTransport transport(opt);
  const std::vector<ProcessId> members = members_of(cli);
  core::Site site(transport, client_id, core::ConfigBuilder::exactly_once().build(),
                  known_to(cli));
  obs::Tracer tracer;
  // Telemetry implies tracing: its counters, span attribution and
  // flight-dump rings come from the same tracer the spans land in.
  if (!cli.trace_dir.empty() || cli.telemetry_on()) transport.set_tracer(&tracer);

  // Live telemetry plane for the client site: its counters are the
  // tracer's tallies.
  std::optional<core::SiteTelemetry> telemetry;
  if (cli.telemetry_on()) {
    telemetry.emplace(site, cli.stall_bound_us > 0 ? std::optional(sim::usec(cli.stall_bound_us))
                                                   : std::nullopt);
    if (cli.telemetry_port >= 0) {
      std::string err;
      const std::uint16_t port =
          telemetry->serve(static_cast<std::uint16_t>(cli.telemetry_port), "127.0.0.1", &err);
      if (port == 0) {
        std::fprintf(stderr, "udp_group_call: telemetry listener failed: %s\n", err.c_str());
        return 1;
      }
      std::printf("udp_group_call: telemetry on http://127.0.0.1:%u (/metrics, /introspect)\n",
                  port);
      if (!cli.port_file.empty() && !write_file(cli.port_file, std::to_string(port) + "\n")) {
        std::fprintf(stderr, "udp_group_call: cannot write %s\n", cli.port_file.c_str());
        return 1;
      }
    }
    if (!cli.flight_dir.empty()) {
      telemetry->set_flight_dir(cli.flight_dir);
      core::install_crash_handler(*telemetry);  // ~SiteTelemetry disarms it
    }
  }
  if (cli.force_retransmit) {
    // Drop the first call datagram to each server before it reaches the
    // socket: no server hears the first call until Reliable Communication's
    // retransmission timer resends it, so the call cannot complete without
    // that retransmission, whatever the acceptance limit -- a trace of the
    // run provably contains one.
    transport.set_send_fault(
        [dropped = std::set<ProcessId>{}](ProcessId, ProcessId to, ProtocolId proto) mutable {
          return proto == core::kGrpcProto && dropped.insert(to).second;
        });
  }
  const std::uint16_t client_port = transport.local_port(client_id);

  std::vector<std::uint16_t> server_ports;
  for (const Child& c : children) {
    server_ports.push_back(read_u16(c.port_fd));
    ::close(c.port_fd);
  }
  for (int i = 0; i < cli.servers; ++i) {
    transport.add_peer(server_id(i), "127.0.0.1", server_ports[static_cast<std::size_t>(i)]);
  }
  transport.define_group(kGroup, members);
  for (const Child& c : children) {
    write_u16(c.ctl_fd, client_port);
    for (std::uint16_t port : server_ports) write_u16(c.ctl_fd, port);
  }

  site.boot();
  if (telemetry) telemetry->start_watchdog();
  core::Client client(site);

  int ok = 0;
  int bad_payload = 0;
  const FiberId fiber = transport.spawn(
      [](core::Client& c, const Cli& cfg, int& ok_count, int& bad) -> sim::Task<> {
        for (int i = 0; i < cfg.calls; ++i) {
          Buffer args;
          Writer(args).u64(static_cast<std::uint64_t>(i) * 31 + 7);
          const core::CallResult r = co_await c.call(kGroup, kEcho, args);
          if (!r.ok()) continue;
          if (Reader(r.result).u64() == static_cast<std::uint64_t>(i) * 31 + 7) ++ok_count;
          else ++bad;
        }
      }(client, cli, ok, bad_payload),
      site.domain());

  const bool finished = transport.run_until_fiber_done(fiber, sim::seconds(cli.timeout_sec));

  // Keep the telemetry endpoint live for external scrapers (curl, ugrpcstat,
  // the CI smoke job) before tearing anything down.
  if (cli.serve_sec > 0) transport.run_for(sim::seconds(cli.serve_sec));

  bool stats_ok = true;
  if (!cli.stats_out.empty()) {
    stats_ok = write_file(cli.stats_out, telemetry->metrics_text());
    if (!stats_ok) std::fprintf(stderr, "udp_group_call: cannot write %s\n", cli.stats_out.c_str());
  }

  // Shut the servers down: closing the control pipes EOFs their serve loop.
  for (const Child& c : children) ::close(c.ctl_fd);
  bool children_ok = true;
  for (const Child& c : children) {
    int status = 0;
    if (::waitpid(c.pid, &status, 0) != c.pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      children_ok = false;
    }
  }

  const bool trace_ok = cli.trace_dir.empty() || write_trace(cli, site, tracer);
  if (!cli.trace_dir.empty() && trace_ok && children_ok) {
    std::printf("udp_group_call: wrote %d trace files to %s (render them with "
                "`ugrpcstat --perfetto %s/*`)\n",
                cli.servers + 1, cli.trace_dir.c_str(), cli.trace_dir.c_str());
  }

  const net::Stats& stats = transport.stats();
  std::printf("udp_group_call: %d/%d calls ok (%d bad payloads) over %d server process(es)\n", ok,
              cli.calls, bad_payload, cli.servers);
  std::printf("  client transport: sent=%llu delivered=%llu dropped=%llu bytes_sent=%llu "
              "bytes_delivered=%llu\n",
              static_cast<unsigned long long>(stats.sent),
              static_cast<unsigned long long>(stats.delivered),
              static_cast<unsigned long long>(stats.dropped),
              static_cast<unsigned long long>(stats.bytes_sent),
              static_cast<unsigned long long>(stats.bytes_delivered));
  if (!finished) std::fprintf(stderr, "udp_group_call: client did not finish before timeout\n");
  if (!children_ok) std::fprintf(stderr, "udp_group_call: a server process exited abnormally\n");
  return (finished && ok == cli.calls && bad_payload == 0 && children_ok && trace_ok && stats_ok)
             ? 0
             : 1;
}
