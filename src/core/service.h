// User-facing call API.
//
// Client wraps a Site and exposes the two call styles:
//  * call()        -- synchronous: resolves when the call completes or
//                     times out (requires CallSemantics::kSynchronous).
//  * call_async()  -- asynchronous: returns a CallHandle as soon as the call
//                     is sent; CallHandle::get() blocks until the result is
//                     available (requires CallSemantics::kAsynchronous).
//
// Both are thin wrappers over GrpcComposite::call and collect with the
// paper's User_Msgtype messages.
#pragma once

#include <utility>

#include "common/buffer.h"
#include "common/ids.h"
#include "common/status.h"
#include "core/site.h"

namespace ugrpc::core {

struct CallResult {
  Status status = Status::kWaiting;
  Buffer result;
  CallId id;

  [[nodiscard]] bool ok() const { return status == Status::kOk; }
};

/// Future-like handle to an in-flight asynchronous call (paper section 4.4.1:
/// the user "later issues a Request to retrieve the result").
///
/// Lifecycle: exactly one successful get() per call.  The first co_await'ed
/// get() blocks until the call completes (or times out under Bounded
/// Termination, yielding Status::kTimeout) and consumes the result record;
/// any further get() resolves immediately with Status::kWaiting, mirroring
/// the underlying Request semantics for an unknown id.  Dropping the handle
/// without get() is safe: nothing blocks, and the unread result is discarded
/// with the site.  Handles are movable but not copyable, so "the result was
/// already consumed through another copy" cannot happen by accident.
class CallHandle {
 public:
  CallHandle() = default;
  CallHandle(CallHandle&& other) noexcept
      : site_(std::exchange(other.site_, nullptr)), server_(other.server_), id_(other.id_) {}
  CallHandle& operator=(CallHandle&& other) noexcept {
    site_ = std::exchange(other.site_, nullptr);
    server_ = other.server_;
    id_ = other.id_;
    return *this;
  }
  CallHandle(const CallHandle&) = delete;
  CallHandle& operator=(const CallHandle&) = delete;

  /// Id of the underlying call (stable across get()).
  [[nodiscard]] CallId id() const { return id_; }
  /// True until get() consumes the result (or the handle is moved from).
  [[nodiscard]] bool pending() const { return site_ != nullptr; }

  /// Retrieves the call's result; see the class comment for semantics.
  [[nodiscard]] sim::Task<CallResult> get() {
    if (site_ == nullptr) {
      co_return CallResult{Status::kWaiting, Buffer{}, id_};
    }
    Site* site = std::exchange(site_, nullptr);
    UserMessage umsg;
    umsg.id = id_;
    umsg.server = server_;
    co_await site->grpc().collect(umsg);
    co_return CallResult{umsg.status, std::move(umsg.args), umsg.id};
  }

 private:
  friend class Client;
  CallHandle(Site& site, GroupId server, CallId id)
      : site_(&site), server_(server), id_(id) {}

  Site* site_ = nullptr;
  GroupId server_;
  CallId id_;
};

class Client {
 public:
  explicit Client(Site& site) : site_(site) {}

  /// Synchronous group RPC: invoke `op` with `args` on group `server`.
  [[nodiscard]] sim::Task<CallResult> call(GroupId server, OpId op, Buffer args) {
    UserMessage umsg;
    umsg.op = op;
    umsg.args = std::move(args);
    umsg.server = server;
    co_await site_.grpc().call(umsg);
    co_return CallResult{umsg.status, std::move(umsg.args), umsg.id};
  }

  /// Asynchronous group RPC: resolves with a CallHandle as soon as the call
  /// is sent; handle.get() retrieves the result (in any order across calls).
  [[nodiscard]] sim::Task<CallHandle> call_async(GroupId server, OpId op, Buffer args) {
    UserMessage umsg;
    umsg.op = op;
    umsg.args = std::move(args);
    umsg.server = server;
    co_await site_.grpc().call(umsg);
    co_return CallHandle{site_, server, umsg.id};
  }

  [[nodiscard]] Site& site() { return site_; }

 private:
  Site& site_;
};

}  // namespace ugrpc::core
