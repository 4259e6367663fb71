// Typed client and server stubs over the untyped gRPC layer.
//
// `Operation<Req, Resp>` names a remote procedure with typed request and
// response.  On the server, a Dispatcher collects typed handlers and
// installs itself as the UserProtocol procedure, demultiplexing on OpId and
// (un)marshalling via Codec<T>.  On the client, invoke() marshals the
// request, performs the group RPC, and unmarshals the collated reply.
//
// Collation happens on marshalled bytes at the gRPC layer; use
// typed_collation() to lift a typed fold function into a byte-level
// CollationFn for the composite configuration.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>

#include "common/assert.h"
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
                     [fn = std::move(fn)](Buffer& args) -> sim::Task<> {
                       Req request = unmarshal<Req>(args);
                       Resp response = co_await fn(std::move(request));
                       args = marshal<Resp>(response);
                     })
            .second;
    UGRPC_ASSERT(inserted && "operation id registered twice");
  }

  /// Demultiplexes one call to its typed handler.
  [[nodiscard]] sim::Task<> dispatch(OpId op, Buffer& args) {
    auto it = handlers_.find(op);
    UGRPC_ASSERT(it != handlers_.end() && "call for unregistered operation");
    co_await it->second(args);
  }

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
  std::unordered_map<OpId, std::function<sim::Task<>(Buffer&)>> handlers_;
};

/// Typed result of a call: the gRPC status plus the decoded response (only
/// meaningful when ok).
template <typename Resp>
struct TypedResult {
  Status status = Status::kWaiting;
  Resp value{};

  [[nodiscard]] bool ok() const { return status == Status::kOk; }
};

/// Typed synchronous invocation.
template <typename Req, typename Resp>
[[nodiscard]] sim::Task<TypedResult<Resp>> invoke(core::Client& client, GroupId group,
                                                  Operation<Req, Resp> op, Req request) {
  const core::CallResult raw = co_await client.call(group, op.id, marshal<Req>(request));
  TypedResult<Resp> result;
  result.status = raw.status;
  if (raw.ok()) result.value = unmarshal<Resp>(raw.result);
  co_return result;
}

/// Lifts a typed fold over responses into a byte-level collation function.
/// `init` is the typed initial accumulator; pass the returned pair into
/// Config::{collation, collation_init}.
template <typename Resp>
[[nodiscard]] std::pair<core::CollationFn, Buffer> typed_collation(
    std::function<Resp(Resp acc, Resp reply)> fold, Resp init) {
  core::CollationFn fn = [fold = std::move(fold)](const Buffer& acc, const Buffer& reply) {
    return marshal<Resp>(fold(unmarshal<Resp>(acc), unmarshal<Resp>(reply)));
  };
  return {std::move(fn), marshal<Resp>(init)};
}

}  // namespace ugrpc::stub
