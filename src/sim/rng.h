// Deterministic random number generator (xoshiro256** seeded via splitmix64).
//
// Every source of randomness in a simulation run -- network fault decisions,
// delay jitter, workload generation -- draws from one seeded Rng (or from
// Rngs forked from it), so a run is fully determined by its seed.  We do not
// use <random> engines because their distributions are not guaranteed to be
// identical across standard library implementations.
#pragma once

#include <cstdint>

#include "common/assert.h"

namespace ugrpc::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    // splitmix64 expansion of the seed into the 256-bit xoshiro state.
    std::uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
  }

  /// Uniform 64-bit value.
  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    UGRPC_ASSERT(lo <= hi);
    const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(next() % range);
  }

  /// True with probability p.
  bool bernoulli(double p) { return uniform() < p; }

  /// Derives an independent child generator; used to give each subsystem its
  /// own stream so adding draws in one place does not shift another.
  Rng fork() { return Rng(next()); }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  std::uint64_t state_[4];
};

}  // namespace ugrpc::sim
