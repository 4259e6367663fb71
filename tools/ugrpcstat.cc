// ugrpcstat: command-line client for the live telemetry plane.
//
// Talks to a serving site's telemetry listener (core::SiteTelemetry::serve)
// and reads trace files on disk (obs/trace_file.h): a flight dump's
// trace.bin, or the per-process files of `udp_group_call --trace-dir`:
//
//   ugrpcstat --port P                  pretty-print one introspection snapshot
//   ugrpcstat --port P --json           raw /introspect JSON
//   ugrpcstat --port P --metrics        raw /metrics Prometheus text
//   ugrpcstat --port P --watch S        poll /metrics every S seconds and print
//                                       the samples that changed, keyed by name
//                                       plus labels (--count N polls)
//   ugrpcstat --check-flight FILE       replay the trace file through
//                                       obs::check() against what its
//                                       header's config line promises
//   ugrpcstat --perfetto FILE...        print the spans of the trace files as
//                                       one Perfetto trace_event document
//
// Exit status: 0 on success, 1 on violations / an unreadable trace file or
// config line, 2 on usage or connection errors; a numeric flag out of range
// or with trailing garbage is a usage error, found before connecting.  The
// HTTP client is deliberately tiny -- blocking connect, one GET, read to
// EOF (the server closes after each response).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/decimal.h"
#include "core/observe.h"
#include "json_value.h"
#include "obs/trace_file.h"
#include "perfetto.h"
#include "sim/time.h"

namespace {

using ugrpc::tools::JsonValue;
using ugrpc::tools::json_parse;

struct Cli {
  std::string host = "127.0.0.1";
  int port = -1;
  bool json = false;
  bool metrics = false;
  double watch_sec = 0.0;
  int count = 0;  // 0 = until interrupted
  std::string check_flight;
  std::vector<std::string> perfetto;
};

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: ugrpcstat [--host H] --port P [--json | --metrics | --watch SEC "
               "[--count N]]\n"
               "       ugrpcstat --check-flight FILE\n"
               "       ugrpcstat --perfetto FILE...\n");
}

/// A whole decimal number no larger than `max`; false (after saying why)
/// for trailing garbage, a sign or a value out of range.
bool parse_number(const std::string& flag, const char* v, std::uint64_t max, std::uint64_t& out) {
  if (ugrpc::parse_u64(v, out) && out <= max) return true;
  std::fprintf(stderr, "ugrpcstat: invalid value for %s: '%s' (expected 0..%llu)\n", flag.c_str(),
               v, static_cast<unsigned long long>(max));
  return false;
}

bool parse_cli(int argc, char** argv, Cli& cli) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool takes_value = arg == "--host" || arg == "--port" || arg == "--watch" ||
                             arg == "--count" || arg == "--check-flight";
    if (takes_value && i + 1 == argc) return false;
    const char* v = takes_value ? argv[++i] : nullptr;
    std::uint64_t n = 0;
    if (arg == "--host") {
      cli.host = v;
    } else if (arg == "--port") {
      if (!parse_number(arg, v, 65535, n)) return false;
      cli.port = static_cast<int>(n);
    } else if (arg == "--json") {
      cli.json = true;
    } else if (arg == "--metrics") {
      cli.metrics = true;
    } else if (arg == "--watch") {
      char* end = nullptr;
      cli.watch_sec = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(cli.watch_sec >= 0 && cli.watch_sec <= 86400)) {
        std::fprintf(stderr, "ugrpcstat: invalid value for --watch: '%s' (expected 0..86400)\n",
                     v);
        return false;
      }
    } else if (arg == "--count") {
      if (!parse_number(arg, v, INT_MAX, n)) return false;
      cli.count = static_cast<int>(n);
    } else if (arg == "--check-flight") {
      cli.check_flight = v;
    } else if (arg == "--perfetto") {
      while (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
        cli.perfetto.emplace_back(argv[++i]);
      }
      if (cli.perfetto.empty()) return false;
    } else if (arg == "--help" || arg == "-h") {
      usage(stdout);
      std::exit(0);
    } else {
      std::fprintf(stderr, "ugrpcstat: unknown argument %s\n", arg.c_str());
      return false;
    }
  }
  if (!cli.check_flight.empty() || !cli.perfetto.empty()) return true;
  if (cli.port <= 0) {
    std::fprintf(stderr, "ugrpcstat: --port required (1..65535)\n");
    return false;
  }
  return true;
}

// ---- HTTP ----

/// One blocking GET; returns the response body, nullopt on any failure.
std::optional<std::string> http_get(const std::string& host, int port, const std::string& path,
                                    std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = std::string("socket: ") + std::strerror(errno);
    return std::nullopt;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) *error = "bad host (numeric IPv4 expected): " + host;
    ::close(fd);
    return std::nullopt;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (error != nullptr) {
      *error = "connect " + host + ":" + std::to_string(port) + ": " + std::strerror(errno);
    }
    ::close(fd);
    return std::nullopt;
  }
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: " + host + "\r\nConnection: close\r\n\r\n";
  for (std::size_t off = 0; off < request.size();) {
    const ssize_t n = ::send(fd, request.data() + off, request.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (error != nullptr) *error = std::string("send: ") + std::strerror(errno);
      ::close(fd);
      return std::nullopt;
    }
    off += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (error != nullptr) *error = std::string("recv: ") + std::strerror(errno);
      ::close(fd);
      return std::nullopt;
    }
    if (n == 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t header_end = response.find("\r\n\r\n");
  const bool ok_status = response.rfind("HTTP/1.0 200", 0) == 0 ||
                         response.rfind("HTTP/1.1 200", 0) == 0;
  if (header_end == std::string::npos || !ok_status) {
    if (error != nullptr) {
      *error = "unexpected response: " + response.substr(0, response.find("\r\n"));
    }
    return std::nullopt;
  }
  return response.substr(header_end + 4);
}

// ---- pretty-printed introspection ----

std::string format_age(std::uint64_t age_us) {
  char buf[32];
  if (age_us >= 1000000) {
    std::snprintf(buf, sizeof(buf), "%.2fs", static_cast<double>(age_us) / 1e6);
  } else if (age_us >= 1000) {
    std::snprintf(buf, sizeof(buf), "%.1fms", static_cast<double>(age_us) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%lluus", static_cast<unsigned long long>(age_us));
  }
  return buf;
}

std::string hold_line(const JsonValue& hold) {
  std::string out;
  for (const char* key : {"main", "fifo", "total"}) {
    if (!hold[key].as_bool()) continue;
    if (!out.empty()) out += "+";
    out += key;
  }
  return out.empty() ? "none" : out;
}

int print_introspection(const std::string& body) {
  std::string error;
  const auto doc = json_parse(body, &error);
  if (!doc || !doc->is_object()) {
    std::fprintf(stderr, "ugrpcstat: bad introspection document: %s\n", error.c_str());
    return 2;
  }
  const JsonValue& v = *doc;
  std::printf("site %llu  incarnation %llu  %s  t=%s\n",
              static_cast<unsigned long long>(v["site"].as_u64()),
              static_cast<unsigned long long>(v["incarnation"].as_u64()),
              v["up"].as_bool() ? "UP" : "DOWN", format_age(v["now_us"].as_u64()).c_str());
  if (!v["up"].as_bool()) return 0;

  std::printf("config: %s\n", v["config"].as_string().c_str());
  std::string protos;
  for (const JsonValue& p : v["micro_protocols"].as_array()) {
    if (!protos.empty()) protos += " | ";
    protos += p.as_string();
  }
  std::printf("stack:  %s\n", protos.c_str());

  std::string members;
  for (const JsonValue& m : v["members"].as_array()) {
    if (!members.empty()) members += ", ";
    members += std::to_string(m.as_u64());
  }
  std::printf("members: [%s]   HOLD: %s\n", members.c_str(), hold_line(v["hold"]).c_str());

  const auto& prpc = v["pRPC"].as_array();
  std::printf("pRPC pending: %zu\n", prpc.size());
  for (const JsonValue& c : prpc) {
    std::printf("  call %llu seq=%llu op=%llu server=%llu %s nres=%llu outstanding=%llu age=%s\n",
                static_cast<unsigned long long>(c["id"].as_u64()),
                static_cast<unsigned long long>(c["seq"].as_u64()),
                static_cast<unsigned long long>(c["op"].as_u64()),
                static_cast<unsigned long long>(c["server"].as_u64()),
                c["status"].as_string().c_str(),
                static_cast<unsigned long long>(c["nres"].as_u64()),
                static_cast<unsigned long long>(c["outstanding"].as_u64()),
                format_age(c["age_us"].as_u64()).c_str());
  }
  const auto& srpc = v["sRPC"].as_array();
  std::printf("sRPC pending: %zu\n", srpc.size());
  for (const JsonValue& s : srpc) {
    std::printf("  entry %llu client=%llu/%llu op=%llu hold=%s %s age=%s\n",
                static_cast<unsigned long long>(s["id"].as_u64()),
                static_cast<unsigned long long>(s["client"].as_u64()),
                static_cast<unsigned long long>(s["client_inc"].as_u64()),
                static_cast<unsigned long long>(s["op"].as_u64()),
                hold_line(s["hold"]).c_str(), s["ready"].as_bool() ? "READY" : "held",
                format_age(s["age_us"].as_u64()).c_str());
  }
  const JsonValue& wd = v["watchdog"];
  std::printf("watchdog: %s  flagged %llu call(s) / %llu entr(ies)\n",
              wd["running"].as_bool() ? "running" : "stopped",
              static_cast<unsigned long long>(wd["flagged_calls"].as_u64()),
              static_cast<unsigned long long>(wd["flagged_entries"].as_u64()));
  return 0;
}

// ---- watch mode ----

/// The sample lines of a Prometheus text exposition, keyed by name plus
/// labels (everything before the value; the server writes no timestamps).
std::map<std::string, double> parse_samples(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    const std::size_t space = line.rfind(' ');
    if (line.empty() || line[0] == '#' || space == std::string::npos) continue;
    out[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return out;
}

int watch(const Cli& cli) {
  std::map<std::string, double> prev;
  bool have_prev = false;
  for (int poll = 0; cli.count == 0 || poll < cli.count; ++poll) {
    std::string error;
    const auto body = http_get(cli.host, cli.port, "/metrics", &error);
    if (!body) {
      std::fprintf(stderr, "ugrpcstat: %s\n", error.c_str());
      return 2;
    }
    std::map<std::string, double> cur = parse_samples(*body);
    int width = 6;  // "sample"
    for (const auto& [name, value] : cur) width = std::max(width, static_cast<int>(name.size()));
    if (!have_prev) {
      std::printf("%-*s %14s %10s\n", width, "sample", "value", "delta");
      for (const auto& [name, value] : cur) {
        std::printf("%-*s %14.0f\n", width, name.c_str(), value);
      }
    } else {
      bool any = false;
      for (const auto& [name, value] : cur) {
        const auto it = prev.find(name);
        const double delta = it == prev.end() ? value : value - it->second;
        if (delta == 0) continue;
        any = true;
        std::printf("%-*s %14.0f %+10.0f\n", width, name.c_str(), value, delta);
      }
      if (!any) std::printf("(no change)\n");
    }
    std::printf("\n");
    std::fflush(stdout);
    prev = std::move(cur);
    have_prev = true;
    if (cli.count == 0 || poll + 1 < cli.count) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<std::int64_t>(cli.watch_sec * 1e6)));
    }
  }
  return 0;
}

// ---- trace files ----

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Decodes the trace file at `path`; nullopt after saying why on stderr.
std::optional<ugrpc::obs::TraceFile> load_trace(const std::string& path) {
  const auto bytes = read_file(path);
  if (!bytes) {
    std::fprintf(stderr, "ugrpcstat: cannot read %s\n", path.c_str());
    return std::nullopt;
  }
  std::string error;
  auto trace = ugrpc::obs::decode_trace(std::as_bytes(std::span(*bytes)), &error);
  if (!trace) std::fprintf(stderr, "ugrpcstat: bad %s: %s\n", path.c_str(), error.c_str());
  return trace;
}

int print_perfetto(const std::vector<std::string>& paths) {
  std::vector<ugrpc::obs::TraceFile> traces;
  for (const std::string& path : paths) {
    auto trace = load_trace(path);
    if (!trace) return 1;
    traces.push_back(std::move(*trace));
  }
  const std::string doc = ugrpc::tools::render_perfetto(traces);
  std::fwrite(doc.data(), 1, doc.size(), stdout);
  return 0;
}

/// Replays the trace file at `path` against what the configuration line in
/// its header promises; a line this build cannot parse fails the check.
int check_flight(const std::string& path) {
  const auto loaded = load_trace(path);
  if (!loaded) return 1;
  std::string bad_token;
  const auto config = ugrpc::core::Config::parse(loaded->header.config, &bad_token);
  if (!config) {
    std::fprintf(stderr, "ugrpcstat: bad %s: config line token '%s' does not parse\n",
                 path.c_str(), bad_token.c_str());
    return 1;
  }
  std::printf("trace file %s\n", path.c_str());
  if (!loaded->header.reason.empty()) {
    std::printf("  reason: %s\n", loaded->header.reason.c_str());
  }
  std::printf("  config: %s\n", loaded->header.config.c_str());
  if (loaded->dropped > 0) {
    std::printf("  note: %llu records overwritten before the dump; the history is incomplete\n",
                static_cast<unsigned long long>(loaded->dropped));
  }
  if (loaded->unknown_kinds > 0) {
    std::printf("  note: skipped %llu event(s) of unknown kind\n",
                static_cast<unsigned long long>(loaded->unknown_kinds));
  }

  const ugrpc::obs::Report report =
      ugrpc::obs::check(loaded->events, ugrpc::core::expectations_from(*config));
  const ugrpc::obs::Summary& s = report.summary;
  std::printf("  trace: %zu event(s); %llu issued, %llu completed (%llu ok / %llu timeout), "
              "%llu exec(s) committed, %llu retransmission(s)\n",
              loaded->events.size(), static_cast<unsigned long long>(s.calls_issued),
              static_cast<unsigned long long>(s.calls_completed),
              static_cast<unsigned long long>(s.calls_ok),
              static_cast<unsigned long long>(s.calls_timeout),
              static_cast<unsigned long long>(s.execs_committed),
              static_cast<unsigned long long>(s.retransmissions));
  std::printf("  check: %s\n", report.brief().c_str());
  for (const auto& violation : report.violations) {
    std::printf("    [%s] site %u call %llu t=%lld: %s\n",
                std::string(to_string(violation.invariant)).c_str(), violation.site.value(),
                static_cast<unsigned long long>(violation.call),
                static_cast<long long>(violation.time), violation.detail.c_str());
  }
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  if (!parse_cli(argc, argv, cli)) {
    usage(stderr);
    return 2;
  }
  if (!cli.check_flight.empty()) return check_flight(cli.check_flight);
  if (!cli.perfetto.empty()) return print_perfetto(cli.perfetto);
  if (cli.watch_sec > 0) return watch(cli);

  std::string error;
  const std::string path = cli.metrics ? "/metrics" : "/introspect";
  const auto body = http_get(cli.host, cli.port, path, &error);
  if (!body) {
    std::fprintf(stderr, "ugrpcstat: %s\n", error.c_str());
    return 2;
  }
  if (cli.metrics || cli.json) {
    std::fwrite(body->data(), 1, body->size(), stdout);
    if (body->empty() || body->back() != '\n') std::printf("\n");
    return 0;
  }
  return print_introspection(*body);
}
