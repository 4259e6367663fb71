#include "core/config.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>

#include "common/decimal.h"
#include "core/micro/acceptance.h"
#include "obs/checker.h"

namespace ugrpc::core {

namespace {

// Each enumerator's text, indexed by its value: to_string(), describe() and
// Config::parse() read the same table.
constexpr std::string_view kCallNames[] = {"sync", "async"};
constexpr std::string_view kOrphanNames[] = {"ignore-orphans", "interference-avoidance",
                                             "terminate-orphans"};
constexpr std::string_view kExecutionNames[] = {"plain", "serial", "serial+atomic"};
constexpr std::string_view kOrderingNames[] = {"no-order", "fifo", "total"};
constexpr std::string_view kUniqueNames[] = {"non-unique", "unique"};
constexpr std::string_view kRuleNames[] = {
    "UniqueExecution->ReliableCommunication", "FifoOrder->ReliableCommunication",
    "TotalOrder->ReliableCommunication",      "TotalOrder->UniqueExecution",
    "TotalOrder-x-BoundedTermination",        "Acceptance.limit",
    "ReliableCommunication.timeout",          "BoundedTermination.bound",
    "Membership.timeouts"};

template <class E, std::size_t N>
std::string_view name_of(const std::string_view (&names)[N], E v) {
  const auto i = static_cast<std::size_t>(v);
  return i < N ? names[i] : "<invalid>";
}

/// Sets `out` to the enumerator `token` names; false if it names none.
template <class E, std::size_t N>
bool named(const std::string_view (&names)[N], std::string_view token, E& out) {
  for (std::size_t i = 0; i < N; ++i) {
    if (names[i] == token) {
      out = static_cast<E>(i);
      return true;
    }
  }
  return false;
}

/// `d` in the largest of s, ms and us that divides it.
std::string duration_text(sim::Duration d) {
  if (d != 0 && d % sim::seconds(1) == 0) return std::to_string(d / sim::seconds(1)) + "s";
  if (d != 0 && d % sim::msec(1) == 0) return std::to_string(d / sim::msec(1)) + "ms";
  return std::to_string(d) + "us";
}

/// A decimal count with a unit of us, ms or s, in (0, obs::kTimeLimit) us.
bool parse_duration(std::string_view text, sim::Duration& out) {
  constexpr std::pair<std::string_view, sim::Duration> kUnits[] = {
      {"us", 1}, {"ms", sim::msec(1)}, {"s", sim::seconds(1)}};
  for (const auto& [suffix, unit] : kUnits) {
    if (!text.ends_with(suffix)) continue;
    std::uint64_t n = 0;
    if (!parse_u64(text.substr(0, text.size() - suffix.size()), n) || n == 0 ||
        n > static_cast<std::uint64_t>((obs::kTimeLimit - 1) / unit)) {
      return false;
    }
    out = static_cast<sim::Duration>(n) * unit;
    return true;
  }
  return false;
}

/// Sets the field `token` gives; the field's index (in describe()'s order),
/// or -1 if the token names no field or holds a malformed value.
int set_field(Config& c, std::string_view token) {
  const std::size_t eq = token.find('=');
  const std::string_view key = token.substr(0, eq);
  const std::string_view value = eq == std::string_view::npos ? "" : token.substr(eq + 1);
  std::uint64_t n = 0;
  if (eq == std::string_view::npos) {
    if (named(kCallNames, token, c.call)) return 0;
    if (named(kOrphanNames, token, c.orphan)) return 1;
    if (named(kExecutionNames, token, c.execution)) return 2;
    if (named(kUniqueNames, token, c.unique_execution)) return 3;
    if (token == "unreliable") return 4;
    if (named(kOrderingNames, token, c.ordering)) return 5;
    if (token == "unbounded") return 6;
    if (token == "no-membership") return 8;
  } else if (key == "reliable" && parse_duration(value, c.retrans_timeout)) {
    c.reliable_communication = true;
    return 4;
  } else if (key == "bounded" && parse_duration(value, c.termination_bound.emplace())) {
    return 6;
  } else if (key == "acceptance" && value == "all") {
    c.acceptance_limit = kAll;
    return 7;
  } else if (key == "acceptance" && parse_u64(value, n) && n <= std::uint64_t{kAll}) {
    c.acceptance_limit = static_cast<int>(n);
    return 7;
  } else if (const std::size_t slash = value.find('/');
             key == "membership" && slash != std::string_view::npos &&
             parse_duration(value.substr(0, slash), c.membership_params.heartbeat_interval) &&
             parse_duration(value.substr(slash + 1), c.membership_params.failure_timeout)) {
    c.use_membership = true;
    return 8;
  } else if (key == "group" && parse_u64(value, n) && n <= UINT32_MAX) {
    c.group = GroupId{static_cast<std::uint32_t>(n)};
    return 9;
  }
  return -1;
}

}  // namespace

std::string_view to_string(CallSemantics v) { return name_of(kCallNames, v); }
std::string_view to_string(OrphanHandling v) { return name_of(kOrphanNames, v); }
std::string_view to_string(ExecutionMode v) { return name_of(kExecutionNames, v); }
std::string_view to_string(Ordering v) { return name_of(kOrderingNames, v); }

std::string Config::describe() const {
  std::string s;
  s += to_string(call);
  s += '|';
  s += to_string(orphan);
  s += '|';
  s += to_string(execution);
  s += '|';
  s += name_of(kUniqueNames, unique_execution);
  s += reliable_communication ? "|reliable=" + duration_text(retrans_timeout) : "|unreliable";
  s += '|';
  s += to_string(ordering);
  s += termination_bound ? "|bounded=" + duration_text(*termination_bound) : "|unbounded";
  s += "|acceptance=";
  s += acceptance_limit == kAll ? "all" : std::to_string(acceptance_limit);
  s += use_membership ? "|membership=" + duration_text(membership_params.heartbeat_interval) +
                            '/' + duration_text(membership_params.failure_timeout)
                      : "|no-membership";
  s += "|group=" + std::to_string(group.value());
  return s;
}

std::optional<Config> Config::parse(std::string_view line, std::string* bad_token) {
  Config c;
  unsigned seen = 0;
  for (std::size_t at = 0; at <= line.size();) {
    const std::size_t bar = std::min(line.find('|', at), line.size());
    const std::string_view token = line.substr(at, bar - at);
    const int field = set_field(c, token);
    if (field < 0 || (seen & (1u << field)) != 0) {
      if (bad_token != nullptr) *bad_token = token.empty() ? "(empty)" : std::string(token);
      return std::nullopt;
    }
    seen |= 1u << field;
    at = bar + 1;
  }
  return c;
}

std::string_view to_string(Rule r) { return name_of(kRuleNames, r); }

std::vector<ValidationError> validate(const Config& config) {
  std::vector<ValidationError> errors;
  const auto fail = [&errors](Rule code, std::string message) {
    errors.push_back(ValidationError{code, std::string(to_string(code)), std::move(message)});
  };

  // Edges of paper Figure 4 (see DESIGN.md for the derivation of the set).
  if (config.unique_execution && !config.reliable_communication) {
    fail(Rule::kUniqueRequiresReliable,
         "unique execution's acknowledge/retransmit bookkeeping presumes reliable "
         "communication at the RPC layer");
  }
  if (config.ordering == Ordering::kFifo && !config.reliable_communication) {
    fail(Rule::kFifoRequiresReliable,
         "FIFO ordering requires every server to receive the client's messages");
  }
  if (config.ordering == Ordering::kTotal) {
    if (!config.reliable_communication) {
      fail(Rule::kTotalRequiresReliable,
           "total ordering requires every server to receive the same message set");
    }
    if (!config.unique_execution) {
      fail(Rule::kTotalRequiresUnique,
           "the total order implementation assumes any request is received at the "
           "server only once (paper section 5)");
    }
    if (config.termination_bound.has_value()) {
      fail(Rule::kTotalExcludesBounded,
           "total order assumes bounded termination is not present (paper section "
           "4.4.6): a timed-out call would leave a hole in the execution order");
    }
  }
  if (config.acceptance_limit < 1) {
    fail(Rule::kAcceptanceLimitPositive, "the acceptance limit must be at least 1");
  }
  if (config.retrans_timeout <= 0 && config.reliable_communication) {
    fail(Rule::kRetransTimeoutPositive, "the retransmission timeout must be positive");
  }
  if (config.termination_bound.has_value() && *config.termination_bound <= 0) {
    fail(Rule::kTerminationBoundPositive, "the termination bound must be positive");
  }
  if (const membership::Params& m = config.membership_params;
      config.use_membership &&
      (m.heartbeat_interval <= 0 || m.failure_timeout <= m.heartbeat_interval)) {
    fail(Rule::kMembershipTimeouts,
         "membership needs a positive heartbeat interval and a longer failure timeout");
  }
  return errors;
}

bool is_valid(const Config& config) { return validate(config).empty(); }

std::vector<Config> enumerate_valid_configs() {
  std::vector<Config> out;
  constexpr std::array kCalls{CallSemantics::kSynchronous, CallSemantics::kAsynchronous};
  constexpr std::array kOrphans{OrphanHandling::kIgnore, OrphanHandling::kInterferenceAvoidance,
                                OrphanHandling::kTerminateOrphans};
  constexpr std::array kExecs{ExecutionMode::kPlain, ExecutionMode::kSerial,
                              ExecutionMode::kSerialAtomic};
  constexpr std::array kOrders{Ordering::kNone, Ordering::kFifo, Ordering::kTotal};
  for (CallSemantics call : kCalls) {
    for (OrphanHandling orphan : kOrphans) {
      for (ExecutionMode exec : kExecs) {
        for (bool unique : {false, true}) {
          for (bool reliable : {false, true}) {
            for (bool bounded : {false, true}) {
              for (Ordering ordering : kOrders) {
                Config c;
                c.call = call;
                c.orphan = orphan;
                c.execution = exec;
                c.unique_execution = unique;
                c.reliable_communication = reliable;
                if (bounded) c.termination_bound = sim::seconds(1);
                c.ordering = ordering;
                if (is_valid(c)) out.push_back(std::move(c));
              }
            }
          }
        }
      }
    }
  }
  return out;
}

ConfigSpace config_space() {
  ConfigSpace space;
  space.call_variants = 2;
  space.orphan_variants = 3;
  space.execution_variants = 3;
  space.total = static_cast<int>(enumerate_valid_configs().size());
  space.comm_combinations =
      space.total / (space.call_variants * space.orphan_variants * space.execution_variants);
  return space;
}

}  // namespace ugrpc::core
