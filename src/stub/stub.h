// Typed client and server stubs over the untyped gRPC layer.
//
// `Operation<Req, Resp>` names a remote procedure with typed request and
// response.  On the server, a Dispatcher collects typed handlers and
// installs itself as the UserProtocol procedure, demultiplexing on OpId and
// (un)marshalling via Codec<T>.  On the client, invoke() marshals the
// request, performs the group RPC, and unmarshals the collated reply.
//
// Bytes from the network never crash either side: the Dispatcher answers a
// call for an unknown operation, or one whose arguments do not decode, with
// an empty result, and invoke() reports a reply that does not decode as a
// failed call.
//
// Collation happens on marshalled bytes at the gRPC layer; use
// typed_collation() to lift a typed fold function into a byte-level
// CollationFn for the composite configuration.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>

#include "common/assert.h"
#include "common/log.h"
#include "common/rate_limited_log.h"
#include "core/micro/collation.h"
#include "core/service.h"
#include "core/user_protocol.h"
#include "stub/codec.h"

namespace ugrpc::stub {

template <typename Req, typename Resp>
struct Operation {
  OpId id;
  const char* name;
};

/// Server-side demultiplexer of typed handlers.
class Dispatcher {
 public:
  template <typename Req, typename Resp>
  void handle(Operation<Req, Resp> op, std::function<sim::Task<Resp>(Req)> fn) {
    const bool inserted =
        handlers_
            .emplace(op.id,
                     [fn = std::move(fn)](Buffer& args) -> sim::Task<bool> {
                       std::optional<Req> request;
                       try {
                         request = unmarshal<Req>(args);
                       } catch (const CodecError&) {
                       }
                       if (!request) co_return false;
                       Resp response = co_await fn(std::move(*request));
                       args = marshal<Resp>(response);
                       co_return true;
                     })
            .second;
    UGRPC_ASSERT(inserted && "operation id registered twice");
  }

  /// Demultiplexes one call to its typed handler.  A call for an unknown
  /// operation, or whose arguments do not decode, is counted, logged
  /// (rate-limited per operation) and answered with an empty result.
  [[nodiscard]] sim::Task<> dispatch(OpId op, Buffer& args) {
    auto it = handlers_.find(op);
    if (it != handlers_.end() && co_await it->second(args)) co_return;
    reject(op, it == handlers_.end() ? "unregistered operation" : "arguments do not decode");
    args = Buffer{};
  }

  /// Calls answered with an empty result.
  [[nodiscard]] std::uint64_t rejected() const { return rejected_; }

  /// Installs the dispatch procedure on the user protocol.  The procedure's
  /// closure co-owns the dispatcher, so a dispatcher built inside an
  /// AppSetup callback needs no other home.
  static void install_owned(std::shared_ptr<Dispatcher> self, core::UserProtocol& user) {
    UGRPC_ASSERT(self != nullptr);
    Dispatcher& ref = *self;
    user.set_procedure(
        [self = std::move(self), &ref](OpId op, Buffer& args) { return ref.dispatch(op, args); });
  }

 private:
  void reject(OpId op, const char* why) {
    ++rejected_;
    const std::int64_t now = std::chrono::duration_cast<std::chrono::microseconds>(
                                 std::chrono::steady_clock::now().time_since_epoch())
                                 .count();
    if (const std::uint64_t n = log_.occurrences_to_log(op.value(), now); n == 1) {
      UGRPC_LOG(kWarn, "stub: rejected a call for op %u: %s", op.value(), why);
    } else if (n > 1) {
      UGRPC_LOG(kWarn, "stub: rejected %llu calls for op %u since last report",
                static_cast<unsigned long long>(n), op.value());
    }
  }

  static constexpr std::int64_t kLogPeriodUs = 1'000'000;
  /// Handlers answer false when the arguments do not decode.
  std::unordered_map<OpId, std::function<sim::Task<bool>(Buffer&)>> handlers_;
  std::uint64_t rejected_ = 0;
  RateLimitedLog log_{kLogPeriodUs};
};

/// Typed result of a call: the gRPC status plus the decoded response (only
/// meaningful when ok).
template <typename Resp>
struct TypedResult {
  Status status = Status::kWaiting;
  Resp value{};
  bool malformed = false;  ///< the call completed, but its reply did not decode

  [[nodiscard]] bool ok() const { return status == Status::kOk && !malformed; }
};

/// Typed synchronous invocation.
template <typename Req, typename Resp>
[[nodiscard]] sim::Task<TypedResult<Resp>> invoke(core::Client& client, GroupId group,
                                                  Operation<Req, Resp> op, Req request) {
  const core::CallResult raw = co_await client.call(group, op.id, marshal<Req>(request));
  TypedResult<Resp> result;
  result.status = raw.status;
  if (raw.ok()) {
    try {
      result.value = unmarshal<Resp>(raw.result);
    } catch (const CodecError&) {
      result.malformed = true;
    }
  }
  co_return result;
}

/// Lifts a typed fold over responses into a byte-level collation function.
/// `init` is the typed initial accumulator; pass the returned pair into
/// Config::{collation, collation_init}.  A reply that does not decode
/// empties the accumulator for good, so invoke() reports the call as not
/// ok.
template <typename Resp>
[[nodiscard]] std::pair<core::CollationFn, Buffer> typed_collation(
    std::function<Resp(Resp acc, Resp reply)> fold, Resp init) {
  core::CollationFn fn = [fold = std::move(fold)](const Buffer& acc, const Buffer& reply) {
    try {
      return marshal<Resp>(fold(unmarshal<Resp>(acc), unmarshal<Resp>(reply)));
    } catch (const CodecError&) {
      return Buffer{};
    }
  };
  return {std::move(fn), marshal<Resp>(init)};
}

}  // namespace ugrpc::stub
