#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <unordered_map>

#include "perfbench.h"

namespace perfbench {

std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double peak_rss_mb() {
  // VmHWM, not getrusage(): ru_maxrss survives execve, so it would report
  // the launching process's peak whenever that was larger.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

double reference_kernel_us() {
  double best = 0;
  std::uint64_t x = 0x2545f4914f6cdd1dULL;
  std::uint64_t sink = 0;
  for (int pass = 0; pass < 3; ++pass) {
    const std::int64_t t0 = now_ns();
    std::unordered_map<std::uint64_t, std::uint64_t> m;
    for (std::uint64_t i = 0; i < 8192; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      m[x >> 40] += i;
    }
    sink += m.size();
    const double us = static_cast<double>(now_ns() - t0) / 1e3;
    if (pass == 0 || us < best) best = us;
  }
  // Keeps the map work observable so it is not optimised away.
  if (sink == 0) std::fputs("", stderr);
  return best;
}

double reference_loopback_us() {
  const int a = socket(AF_INET, SOCK_DGRAM, 0);
  const int b = socket(AF_INET, SOCK_DGRAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  sockaddr_in to{};
  socklen_t len = sizeof(to);
  double best = 0;
  if (a >= 0 && b >= 0 && bind(a, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      bind(b, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      getsockname(b, reinterpret_cast<sockaddr*>(&to), &len) == 0) {
    char buf[64] = {};
    for (int pass = 0; pass < 3; ++pass) {
      const std::int64_t t0 = now_ns();
      bool ok = true;
      for (int i = 0; i < 100 && ok; ++i) {
        ok = sendto(a, buf, sizeof(buf), 0, reinterpret_cast<sockaddr*>(&to), sizeof(to)) ==
                 static_cast<ssize_t>(sizeof(buf)) &&
             recv(b, buf, sizeof(buf), 0) == static_cast<ssize_t>(sizeof(buf));
      }
      const double us = static_cast<double>(now_ns() - t0) / 1e3;
      if (!ok) {
        best = 0;
        break;
      }
      if (pass == 0 || us < best) best = us;
    }
  }
  if (a >= 0) close(a);
  if (b >= 0) close(b);
  return best;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  return v[idx];
}

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

ugrpc::Buffer make_args(std::uint64_t seed, std::uint32_t client, std::uint64_t seq,
                        std::size_t size) {
  std::vector<std::byte> bytes(std::max<std::size_t>(size, 16));
  const std::uint64_t tag = (static_cast<std::uint64_t>(client) << 40) | seq;
  for (int i = 0; i < 8; ++i) bytes[static_cast<std::size_t>(i)] = std::byte(tag >> (8 * i));
  std::uint64_t state = seed ^ (tag * 0xd1342543de82ef95ULL);
  for (std::size_t i = 8; i < bytes.size(); i += 8) {
    const std::uint64_t r = splitmix64(state);
    for (std::size_t j = 0; j < 8 && i + j < bytes.size(); ++j) bytes[i + j] = std::byte(r >> (8 * j));
  }
  return ugrpc::Buffer(std::move(bytes));
}

std::uint64_t args_tag(const ugrpc::Buffer& args) {
  const auto b = args.bytes();
  if (b.size() < 8) return 0;
  std::uint64_t tag = 0;
  for (int i = 0; i < 8; ++i) tag |= std::to_integer<std::uint64_t>(b[static_cast<std::size_t>(i)]) << (8 * i);
  return tag;
}

void corrupt(ugrpc::Buffer& args) {
  std::vector<std::byte> bytes(args.bytes().begin(), args.bytes().end());
  bytes.back() ^= std::byte{0x5a};
  args = ugrpc::Buffer(std::move(bytes));
}

void SpanLog::add_tagged(const char* name, std::uint64_t tag, std::int64_t start_ns,
                         std::int64_t end_ns) {
  if (spans_.size() >= kCap) {
    ++dropped_;
    return;
  }
  spans_.push_back({name, tag, start_ns, end_ns, true});
}

void SpanLog::map_tag(std::uint64_t tag, std::uint64_t call_id) {
  tag_to_call_.emplace_back(tag, call_id);
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::unordered_map<std::uint64_t, std::uint64_t> calls(tag_to_call_.begin(),
                                                               tag_to_call_.end());
  const std::int64_t origin = spans_.empty() ? 0 : std::min_element(spans_.begin(), spans_.end(),
      [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; })->start_ns;
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"otherData\": {\"dropped_spans\": %" PRIu64
                  "}, \"traceEvents\": [\n",
               dropped_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::uint64_t trace = s.trace;
    if (s.tagged) {
      auto it = calls.find(s.trace);
      trace = it != calls.end() ? it->second : 0;
    }
    // One track per trace id keeps a call's spans together; loop and probe
    // spans (trace 0) share track 0.
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %" PRIu64
                 ", \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"trace\": %" PRIu64 "}}%s\n",
                 s.name, trace % 1000003, static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, trace,
                 i + 1 == spans_.size() ? "" : ",");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
