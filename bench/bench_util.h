// Shared command-line plumbing for the custom bench binaries.
//
// Every bench accepts `--seed N` so a run can be reproduced (and sweeps can
// vary the seed), and prints the seed it used into its output -- a number
// in a results file that cannot be traced back to a seed is not evidence.
// Benches with a JSON artifact also take `--out PATH`.
//
// Numeric options are parsed with the checked parse_u64 rather than atoi:
// atoi returns 0 for garbage ("--calls abc" silently ran zero calls) and
// accepts negatives that later index arrays.  A malformed value is a usage
// error, not a silent zero.  try_parse_args() is the non-exiting core that
// the unit tests drive; parse_args() wraps it with the print-and-exit
// behaviour the binaries want.
#pragma once

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/decimal.h"

#if defined(__unix__)
#include <sys/utsname.h>
#endif

namespace ugrpc::bench {

struct Args {
  std::uint64_t seed;
  int calls;
  std::string out;
};

// ---- environment stamping ----
//
// Every bench JSON emitter records the environment it actually ran in.
// These are measured, not guessed: an early artifact shipped with
// `"host_cpus": 1, "library_build_type": "debug"` because the fields were
// filled in by hand, which is precisely the kind of number that poisons
// later comparisons.

/// Compile-time build flavour of the *bench binary* (which links the library
/// statically, so it is also the library's flavour in this tree).
inline constexpr const char* kBuildType =
#ifdef NDEBUG
    "release";
#else
    "debug";
#endif

[[nodiscard]] inline bool is_release_build() { return kBuildType[0] == 'r'; }

/// Git SHA baked in at configure time (bench/CMakeLists.txt); "unknown" when
/// the tree was built outside git.  Stamped per-binary so a results file can
/// always be traced back to the code that produced it.
[[nodiscard]] inline const char* git_sha() {
#ifdef UGRPC_GIT_SHA
  return UGRPC_GIT_SHA;
#else
  return "unknown";
#endif
}

[[nodiscard]] inline unsigned host_cpus() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

[[nodiscard]] inline std::string platform_string() {
#if defined(__unix__)
  utsname u{};
  if (uname(&u) == 0) {
    return std::string(u.sysname) + "-" + u.release + "-" + u.machine;
  }
#endif
  return "unknown";
}

/// Prints a hard-to-miss banner when the binary was not built Release.
/// Numbers from a debug build are not wrong, but they are not evidence
/// either; the banner (and the `library_build_type` field in the artifact)
/// keeps them from being mistaken for it.
inline void warn_if_debug(const char* prog) {
  if (is_release_build()) return;
  std::fprintf(stderr,
               "%s: *** WARNING: this is a %s build ***\n"
               "%s: numbers below do NOT reflect release performance;\n"
               "%s: rebuild with -DCMAKE_BUILD_TYPE=Release before recording them.\n",
               prog, kBuildType, prog, prog);
}

/// The `"environment"` JSON object (measured fields only), ready to embed:
///   fprintf(f, "  \"environment\": %s,\n", env_json().c_str());
[[nodiscard]] inline std::string env_json() {
  std::string out = "{\"host_cpus\": ";
  out += std::to_string(host_cpus());
  out += ", \"library_build_type\": \"";
  out += kBuildType;
  out += "\", \"git_sha\": \"";
  out += git_sha();
  out += "\", \"platform\": \"";
  out += platform_string();
  out += "\"}";
  return out;
}

/// Parses a full unsigned decimal string (common/decimal.h; perfbench calls
/// it by this name).
using ugrpc::parse_u64;

/// Parses a non-negative count that fits in int.
inline bool parse_count(const char* s, int& out) {
  std::uint64_t v = 0;
  if (!parse_u64(s, v) || v > static_cast<std::uint64_t>(INT_MAX)) return false;
  out = static_cast<int>(v);
  return true;
}

struct ParseResult {
  Args args;
  bool ok = true;
  std::string error;  ///< one-line diagnostic when !ok
};

/// Non-exiting parse of `--seed N`, `--calls N`, `--out PATH`.
inline ParseResult try_parse_args(int argc, const char* const* argv, std::uint64_t default_seed,
                                  int default_calls = 0, std::string default_out = {}) {
  ParseResult result;
  result.args = Args{default_seed, default_calls, std::move(default_out)};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        result.ok = false;
        result.error = "missing value for " + arg;
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return result;
      if (!parse_u64(v, result.args.seed)) {
        result.ok = false;
        result.error = "invalid value for --seed: '" + std::string(v) +
                       "' (expected a non-negative integer)";
        return result;
      }
    } else if (arg == "--calls") {
      const char* v = next();
      if (v == nullptr) return result;
      if (!parse_count(v, result.args.calls)) {
        result.ok = false;
        result.error = "invalid value for --calls: '" + std::string(v) +
                       "' (expected a non-negative integer)";
        return result;
      }
    } else if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return result;
      result.args.out = v;
    } else {
      result.ok = false;
      result.error = "unknown argument " + arg;
      return result;
    }
  }
  return result;
}

/// Parses or exits with a usage message (what the bench binaries call).
inline Args parse_args(int argc, char** argv, std::uint64_t default_seed, int default_calls = 0,
                       std::string default_out = {}) {
  ParseResult result =
      try_parse_args(argc, argv, default_seed, default_calls, std::move(default_out));
  if (!result.ok) {
    std::fprintf(stderr, "%s: %s\nusage: %s [--seed N] [--calls N] [--out PATH]\n", argv[0],
                 result.error.c_str(), argv[0]);
    std::exit(2);
  }
  return result.args;
}

}  // namespace ugrpc::bench
