// Fluent construction of group RPC configurations.
//
// Config (config.h) is a plain aggregate: every field is independently
// settable and nothing stops a caller from assembling a combination that
// validate() rejects -- the error then surfaces later, at composite
// construction.  ConfigBuilder closes that gap: setters read as the
// property names of paper section 5, presets encode the failure-semantics
// rows of paper Figure 1, and build() validates against the dependency
// graph of Figure 4, throwing ConfigError (which carries the structured
// ValidationError list) on violation.  A ConfigBuilder therefore never
// hands out an invalid Config; a harness that studies broken configurations
// (Figure 2's) assembles the Config aggregate itself and sets
// Config::unsafe_skip_validation.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"

namespace ugrpc::core {

/// Thrown by ConfigBuilder::build() when the assembled configuration
/// violates the micro-protocol dependency graph (paper Figure 4).
class ConfigError : public std::runtime_error {
 public:
  explicit ConfigError(std::vector<ValidationError> errors)
      : std::runtime_error(format_what(errors)), errors_(std::move(errors)) {}

  /// The violated rules, with stable machine-readable codes.
  [[nodiscard]] const std::vector<ValidationError>& errors() const { return errors_; }

 private:
  [[nodiscard]] static std::string format_what(const std::vector<ValidationError>& errors);

  std::vector<ValidationError> errors_;
};

class ConfigBuilder {
 public:
  /// Starts from the default (valid) configuration.
  ConfigBuilder() = default;
  /// Starts from an existing configuration (e.g. to tweak a preset further).
  explicit ConfigBuilder(Config base) : config_(std::move(base)) {}

  // ---- presets: the failure-semantics rows of paper Figure 1 ----

  /// Retransmit until answered: reliable communication only.
  [[nodiscard]] static ConfigBuilder at_least_once();
  /// at-least-once + duplicate suppression (Unique Execution).
  [[nodiscard]] static ConfigBuilder exactly_once();
  /// exactly-once + atomic procedure execution: a call executes once in
  /// full or (observably) not at all, even across a server crash.
  [[nodiscard]] static ConfigBuilder at_most_once();
  /// Latency-lean reads (paper section 5): synchronous, first response
  /// wins, tight retransmission, bounded at one second.
  [[nodiscard]] static ConfigBuilder read_optimized();

  // ---- fluent setters ----

  ConfigBuilder& call_semantics(CallSemantics v) { config_.call = v; return *this; }
  ConfigBuilder& synchronous() { return call_semantics(CallSemantics::kSynchronous); }
  ConfigBuilder& asynchronous() { return call_semantics(CallSemantics::kAsynchronous); }

  ConfigBuilder& orphan_handling(OrphanHandling v) { config_.orphan = v; return *this; }
  ConfigBuilder& execution(ExecutionMode v) { config_.execution = v; return *this; }

  ConfigBuilder& unique_execution(bool on = true) {
    config_.unique_execution = on;
    return *this;
  }
  /// Enables retransmission; `retrans_timeout` is the initial timeout and
  /// its ceiling (see Config::retrans_timeout).
  ConfigBuilder& reliable_communication(sim::Duration retrans_timeout = sim::msec(50)) {
    config_.reliable_communication = true;
    config_.retrans_timeout = retrans_timeout;
    return *this;
  }
  ConfigBuilder& unreliable() { config_.reliable_communication = false; return *this; }

  ConfigBuilder& termination_bound(sim::Duration bound) {
    config_.termination_bound = bound;
    return *this;
  }

  ConfigBuilder& ordering(Ordering v) { config_.ordering = v; return *this; }
  ConfigBuilder& fifo_order() { return ordering(Ordering::kFifo); }
  ConfigBuilder& total_order() { return ordering(Ordering::kTotal); }

  /// Responses required before the call is accepted (kAll for every member).
  ConfigBuilder& acceptance_limit(int limit) { config_.acceptance_limit = limit; return *this; }
  ConfigBuilder& collation(CollationFn fn, Buffer init = {}) {
    config_.collation = std::move(fn);
    config_.collation_init = std::move(init);
    return *this;
  }
  ConfigBuilder& membership(membership::Params params = {}) {
    config_.use_membership = true;
    config_.membership_params = params;
    return *this;
  }
  ConfigBuilder& group(GroupId g) { config_.group = g; return *this; }

  // ---- terminal operations ----

  /// Validates and returns the configuration; throws ConfigError listing
  /// every violated dependency rule if it is invalid.
  [[nodiscard]] Config build() const;

 private:
  Config config_;
};

}  // namespace ugrpc::core
