// Configuration of a group RPC service (paper section 5).
//
// A service is configured by choosing property variants; the Configurator
// validates the choice against the micro-protocol dependency graph of paper
// Figure 4 and can enumerate the entire space of valid configurations.
//
// The paper's count: fixing acceptance and collation policies, one may pick
// 2 call semantics x 3 orphan-handling variants x 3 execution modes x 11
// admissible combinations of {unique execution, reliable communication,
// termination, ordering} = 198 distinct group RPC services.  The 11 comes
// from pruning the raw 2x2x2x3 = 24 combinations with the graph's edges:
// Unique->Reliable, FIFO->Reliable, Total->{Reliable, Unique, not Bounded}.
#pragma once

#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/buffer.h"
#include "core/micro/collation.h"
#include "membership/membership.h"
#include "sim/time.h"

namespace ugrpc::core {

enum class CallSemantics : unsigned char { kSynchronous, kAsynchronous };
enum class OrphanHandling : unsigned char { kIgnore, kInterferenceAvoidance, kTerminateOrphans };
/// kSerialAtomic implies serial (Atomic Execution -> Serial Execution edge).
enum class ExecutionMode : unsigned char { kPlain, kSerial, kSerialAtomic };
enum class Ordering : unsigned char { kNone, kFifo, kTotal };

[[nodiscard]] std::string_view to_string(CallSemantics v);
[[nodiscard]] std::string_view to_string(OrphanHandling v);
[[nodiscard]] std::string_view to_string(ExecutionMode v);
[[nodiscard]] std::string_view to_string(Ordering v);

struct Config {
  CallSemantics call = CallSemantics::kSynchronous;
  OrphanHandling orphan = OrphanHandling::kIgnore;
  ExecutionMode execution = ExecutionMode::kPlain;
  bool unique_execution = false;
  bool reliable_communication = false;
  /// Reliable Communication's retransmission timeout before a server's
  /// first round-trip sample, and the ceiling of its RTT-derived, backed-off
  /// timeout afterwards.
  sim::Duration retrans_timeout = sim::msec(50);
  /// Bounded Termination is configured iff this holds a time bound.
  std::optional<sim::Duration> termination_bound;
  Ordering ordering = Ordering::kNone;

  // Policies the paper fixes when counting configurations:
  /// Responses required for acceptance; kAll (acceptance.h) for "all".
  int acceptance_limit = 1;
  /// Reply collation; defaults to the paper's identity function
  /// ("last reply wins") when left unset.
  CollationFn collation;
  Buffer collation_init;
  /// Configure the membership service (enables Acceptance's reaction to
  /// server failures and Total Order leader failover).
  bool use_membership = false;
  membership::Params membership_params;
  /// The server group this configuration serves (Total Order's leader logic
  /// is anchored to it; a Scenario's servers form it).
  GroupId group{1};
  /// EXPERIMENTS ONLY: build the composite even when validate() rejects the
  /// configuration.  Exists so the Figure 2 harness can demonstrate
  /// *empirically* what breaks when a dependency edge is violated; never
  /// set this in real use.
  bool unsafe_skip_validation = false;

  /// The configuration as one line of '|'-separated tokens, one per field
  /// that changes behaviour; the default's is "sync|ignore-orphans|plain|
  /// non-unique|unreliable|no-order|unbounded|acceptance=1|no-membership|
  /// group=1", and reliable=50ms, bounded=1s, acceptance=all and
  /// membership=20ms/100ms (heartbeat/failure timeout) spell the others.
  [[nodiscard]] std::string describe() const;

  /// Reads a describe() line back; a field left out keeps its default.
  /// nullopt, with the offending token in `bad_token` when non-null, for an
  /// unknown token, a repeated field, a malformed number or a duration
  /// outside (0, 2^60) us.  Syntax only: validate() judges the result.  The
  /// collation function and its initial value are code, and
  /// unsafe_skip_validation is for experiments only, so no text sets them.
  [[nodiscard]] static std::optional<Config> parse(std::string_view line,
                                                   std::string* bad_token = nullptr);
};

/// Stable machine-readable identifiers for the dependency rules of paper
/// Figure 4 (plus parameter sanity checks).  Values are part of the public
/// API: programs switch on them, so existing enumerators never change
/// meaning; new rules are appended.
enum class Rule : unsigned char {
  kUniqueRequiresReliable,   ///< UniqueExecution -> ReliableCommunication
  kFifoRequiresReliable,     ///< FifoOrder -> ReliableCommunication
  kTotalRequiresReliable,    ///< TotalOrder -> ReliableCommunication
  kTotalRequiresUnique,      ///< TotalOrder -> UniqueExecution
  kTotalExcludesBounded,     ///< TotalOrder -x- BoundedTermination
  kAcceptanceLimitPositive,  ///< acceptance_limit >= 1
  kRetransTimeoutPositive,   ///< retrans_timeout > 0 when reliable
  kTerminationBoundPositive, ///< termination_bound > 0 when set
  kMembershipTimeouts,       ///< 0 < heartbeat_interval < failure_timeout with membership
};

/// Canonical edge notation, e.g. "TotalOrder->UniqueExecution".
[[nodiscard]] std::string_view to_string(Rule r);

/// One violated dependency edge of paper Figure 4.
struct ValidationError {
  Rule code;            ///< stable machine-readable rule identifier
  std::string rule;     ///< canonical edge notation, to_string(code)
  std::string message;  ///< human-readable explanation
};

/// Checks `config` against the dependency graph; empty result means valid.
[[nodiscard]] std::vector<ValidationError> validate(const Config& config);
[[nodiscard]] bool is_valid(const Config& config);

/// The breakdown the paper reports in section 5.
struct ConfigSpace {
  int call_variants = 0;       ///< 2
  int orphan_variants = 0;     ///< 3
  int execution_variants = 0;  ///< 3
  int comm_combinations = 0;   ///< 11 (unique x reliable x termination x ordering, pruned)
  int total = 0;               ///< 198
};

/// Enumerates every dependency-valid configuration with acceptance and
/// collation policies fixed (as the paper does when counting).
[[nodiscard]] std::vector<Config> enumerate_valid_configs();
[[nodiscard]] ConfigSpace config_space();

}  // namespace ugrpc::core
