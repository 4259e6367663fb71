// Keyed rate limiting for repetitive warnings, with exact counts.
//
// A retransmission loop aimed at a dead destination, or a watchdog scanning
// a stalled table, can hit the same condition thousands of times per second;
// one log line per occurrence drowns everything else.  The policy shared by
// every user (first written for unroutable-send warnings, now in
// net/transport.cc, pinned by tests/net/network_test.cc):
//
//   * the FIRST occurrence for a key is reported immediately and in full;
//   * afterwards, at most one summary line per `period`, carrying the EXACT
//     number of occurrences suppressed since the last line.
//
// Counting is exact by construction -- occurrences_to_log() accumulates the
// suppressed backlog per key and hands it back in one piece -- so callers'
// metrics counters and the sum of logged counts always agree.
//
// Time is caller-supplied (an int64 microsecond clock, matching sim::Time):
// the helper works identically under the deterministic simulator's virtual
// clock and a real transport's steady clock, and stays allocation-free on
// the suppressed path after a key's first occurrence.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>

namespace ugrpc {

class RateLimitedLog {
 public:
  /// `period`: minimum clock gap between emitted lines for one key.
  explicit RateLimitedLog(std::int64_t period) : period_(period) {}

  /// Registers one occurrence for `key` at time `now` and returns how many
  /// occurrences the caller should report: 0 = stay silent, 1 = first
  /// occurrence (log it in full), n > 1 = summary of n occurrences since the
  /// last emitted line.
  [[nodiscard]] std::uint64_t occurrences_to_log(std::uint64_t key, std::int64_t now) {
    State& state = states_[key];
    ++state.unlogged;
    if (state.ever_logged && now - state.last_log < period_) return 0;
    state.ever_logged = true;
    state.last_log = now;
    return std::exchange(state.unlogged, 0);
  }

  /// Occurrences of `key` suppressed since its last emitted line.
  [[nodiscard]] std::uint64_t pending(std::uint64_t key) const {
    auto it = states_.find(key);
    return it != states_.end() ? it->second.unlogged : 0;
  }

  /// Forgets all keys.
  void clear() { states_.clear(); }

 private:
  struct State {
    std::uint64_t unlogged = 0;  ///< occurrences since the last emitted line
    std::int64_t last_log = 0;
    bool ever_logged = false;
  };

  std::int64_t period_;
  std::unordered_map<std::uint64_t, State> states_;
};

}  // namespace ugrpc
