// Composite protocol: micro-protocols + framework, linked together.
//
// "The object formed by the linking of a collection of micro-protocols and
// associated framework is known as a composite protocol" (paper section 3).
// CompositeProtocol owns the Framework and the configured micro-protocols;
// `start()` wires everything up.  Domain-specific composites (the gRPC
// service in src/core) derive from this and add shared data plus the
// x-kernel UPI adapters that feed external events into the framework.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "net/transport.h"
#include "runtime/framework.h"
#include "runtime/micro_protocol.h"

namespace ugrpc::runtime {

class CompositeProtocol {
 public:
  /// `trace` is passed to the framework (see Framework's constructor).
  CompositeProtocol(net::Transport& transport, DomainId domain, obs::SiteTrace* trace = nullptr)
      : framework_(transport, domain, trace) {}
  virtual ~CompositeProtocol() = default;

  CompositeProtocol(const CompositeProtocol&) = delete;
  CompositeProtocol& operator=(const CompositeProtocol&) = delete;

  /// Constructs a micro-protocol in place.  Must precede start().
  template <typename T, typename... Args>
  T& emplace(Args&&... args) {
    UGRPC_ASSERT(!started_ && "cannot add micro-protocols after start()");
    auto mp = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *mp;
    micro_protocols_.push_back(std::move(mp));
    return ref;
  }

  /// Starts every configured micro-protocol (registration phase).
  void start() {
    UGRPC_ASSERT(!started_);
    started_ = true;
    for (const auto& mp : micro_protocols_) mp->start(framework_);
  }

  [[nodiscard]] Framework& framework() { return framework_; }
  [[nodiscard]] const Framework& framework() const { return framework_; }
  [[nodiscard]] bool started() const { return started_; }

  [[nodiscard]] std::vector<std::string> micro_protocol_names() const {
    std::vector<std::string> names;
    names.reserve(micro_protocols_.size());
    for (const auto& mp : micro_protocols_) names.push_back(mp->name());
    return names;
  }

 private:
  Framework framework_;
  std::vector<std::unique_ptr<MicroProtocol>> micro_protocols_;
  bool started_ = false;
};

}  // namespace ugrpc::runtime
