// Shared pieces of the µGRPC benchmark driver: options, the result record
// every workload fills in, benchmark-side spans, and small timing helpers.
//
// The driver measures the library from outside: it times calls into public
// functions and reads public counters.  No tracer, telemetry hub or other
// obs/ hook inside the library is switched on; the spans recorded here are
// the driver's own, taken around its calls into each layer.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/buffer.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  /// Test hook: the servers corrupt one reply, which the correctness gate
  /// must catch.
  bool corrupt_echo = false;
  /// Where the traced run writes its spans (Chrome trace-event JSON).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::uint64_t samples;  ///< how many measurements the value summarises
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> violations;  ///< one line per failed check
  /// Median over the run's episodes of their slowdown: above 1 while the
  /// host ran slower than the reference host.
  double host_slowdown = 0;

  void add(std::string name, double value, std::string unit, std::uint64_t samples = 1) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  /// A failed correctness check: the run is not correct and the violation
  /// counts as one failure.
  void violate(std::string what) {
    correct = false;
    ++failed;
    violations.push_back(std::move(what));
  }
};

Outcome run_write_ordered_sim(const Options& opt);
Outcome run_read_fanout_udp(const Options& opt);
Outcome run_bulk_echo_udp(const Options& opt);

// ---- timing ----

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

/// User + system CPU time of this process, in nanoseconds.
[[nodiscard]] std::int64_t cpu_ns();
/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

// ---- host speed ----

/// Times of one reference_kernel_us() and one reference_loopback_us() pass
/// on the reference host (a 4-vCPU x86-64 VM, in its fast spells).  Timed
/// values are reported as they would read on that host: divided by the
/// episode's slowdown, the kernels' measured times over these.  See
/// NOTES.md, "Host-speed scaling".
inline constexpr double kReferenceKernelUs = 470.0;
inline constexpr double kReferenceLoopbackUs = 207.0;

/// Times a fixed kernel that does not call the library: 8192 inserts of
/// pseudo-random keys into a fresh std::unordered_map (allocation, hashing
/// and cache misses, as in the stack).  Returns the fastest of three
/// passes, in microseconds.
[[nodiscard]] double reference_kernel_us();
/// Times 100 round trips of a 64-byte datagram between two sockets on
/// 127.0.0.1 (sendto + recv, no library code).  Returns the fastest of
/// three passes, in microseconds, or 0 if the sockets cannot be set up.
[[nodiscard]] double reference_loopback_us();

/// Exact order statistic: the value at rank ceil(q*n) (q in (0,1]).
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// ---- call arguments ----

/// Deterministic request bytes for call `seq` of client `client`: an 8-byte
/// tag (client, seq) followed by seeded pseudo-random filler, `size` bytes
/// in total (at least 16).  The same (seed, client, seq, size) always gives
/// the same bytes.
[[nodiscard]] ugrpc::Buffer make_args(std::uint64_t seed, std::uint32_t client, std::uint64_t seq,
                                      std::size_t size);
/// The (client, seq) tag make_args() wrote, packed as client<<40 | seq.
[[nodiscard]] std::uint64_t args_tag(const ugrpc::Buffer& args);
/// Tag of the call whose reply the --corrupt-echo hook damages.
inline constexpr std::uint64_t kCorruptTag = (std::uint64_t{1} << 40) | 3;
/// Flips one byte: what a server does to the reply of kCorruptTag under
/// --corrupt-echo.
void corrupt(ugrpc::Buffer& args);

// ---- benchmark-side spans (traced run only) ----

/// Spans kept in memory and written out when the run ends, as Chrome
/// trace-event JSON (loads in Perfetto).  A span's trace id is the call id
/// for call and procedure spans, 0 for loop and probe spans.  The buffer is
/// capped so a long traced run cannot grow without bound; spans past the cap
/// are counted, not stored.
class SpanLog {
 public:
  static constexpr std::size_t kCap = 200'000;

  void add(const char* name, std::uint64_t trace, std::int64_t start_ns, std::int64_t end_ns) {
    if (spans_.size() >= kCap) {
      ++dropped_;
      return;
    }
    spans_.push_back({name, trace, start_ns, end_ns});
  }
  /// Server-procedure spans know only the request's tag; the client maps
  /// tags to call ids as calls complete, and write() resolves them.
  void add_tagged(const char* name, std::uint64_t tag, std::int64_t start_ns,
                  std::int64_t end_ns);
  void map_tag(std::uint64_t tag, std::uint64_t call_id);

  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  /// Writes every stored span; false if the file cannot be written.
  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t trace;  ///< call id, or a request tag when `tagged`
    std::int64_t start_ns;
    std::int64_t end_ns;
    bool tagged = false;
  };
  std::vector<Span> spans_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> tag_to_call_;
  std::uint64_t dropped_ = 0;
};

// ---- post-run probes (traced run only) ----

/// Times isolated calls into single layers, outside any workload.  Each
/// probe reports the median of several repetitions, in nanoseconds per
/// operation.  `handlers` is the MSG_FROM_NETWORK chain length to
/// dispatch through; `payload` the workload's argument size.
struct ProbeResults {
  double spawn_run_ns = 0;
  double trigger_ns = 0;
  double timeout_register_cancel_ns = 0;
  double wire_encode_ns = 0;
  double wire_decode_ns = 0;
  double msg_codec_ns = 0;
  double timer_wheel_add_cancel_ns = 0;
  double buffer_append_ns = 0;
  double composite_vs_p2p_ratio = 0;
};
ProbeResults run_probes(std::size_t handlers, std::size_t payload, std::uint64_t seed,
                        SpanLog* spans);

}  // namespace perfbench
