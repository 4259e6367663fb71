// Integration tests of the typed stubs over a live scenario.
#include "stub/stub.h"

#include <gtest/gtest.h>

#include "core/micro/acceptance.h"
#include "core/scenario.h"

namespace ugrpc::stub {
namespace {

using core::Scenario;
using core::ScenarioParams;

constexpr Operation<std::uint64_t, std::uint64_t> kSquare{OpId{1}, "square"};
constexpr Operation<std::string, std::string> kGreet{OpId{2}, "greet"};
constexpr Operation<std::vector<std::uint64_t>, std::uint64_t> kSum{OpId{3}, "sum"};

void register_math(Dispatcher& dispatcher) {
  dispatcher.handle<std::uint64_t, std::uint64_t>(
      kSquare, [](std::uint64_t v) -> sim::Task<std::uint64_t> { co_return v * v; });
  dispatcher.handle<std::string, std::string>(
      kGreet, [](std::string name) -> sim::Task<std::string> { co_return "hello " + name; });
  dispatcher.handle<std::vector<std::uint64_t>, std::uint64_t>(
      kSum, [](std::vector<std::uint64_t> values) -> sim::Task<std::uint64_t> {
        std::uint64_t total = 0;
        for (std::uint64_t v : values) total += v;
        co_return total;
      });
}

/// Each server site builds a Dispatcher with its volatile stack; the user
/// protocol's procedure closure co-owns it.
core::Site::AppSetup math_service() {
  return [](core::UserProtocol& user, core::Site&) {
    auto dispatcher = std::make_shared<Dispatcher>();
    register_math(*dispatcher);
    Dispatcher::install_owned(std::move(dispatcher), user);
  };
}

ScenarioParams typed_params() {
  ScenarioParams p;
  p.num_servers = 3;
  p.config.acceptance_limit = core::kAll;
  p.server_app = math_service();
  return p;
}

TEST(Stub, TypedInvocationRoundTrips) {
  Scenario s(typed_params());
  TypedResult<std::uint64_t> squared;
  TypedResult<std::string> greeting;
  s.run_client(0, [&](core::Client& c) -> sim::Task<> {
    squared = co_await invoke(c, s.group(), kSquare, std::uint64_t{12});
    greeting = co_await invoke(c, s.group(), kGreet, std::string("world"));
  });
  EXPECT_TRUE(squared.ok());
  EXPECT_EQ(squared.value, 144u);
  EXPECT_TRUE(greeting.ok());
  EXPECT_EQ(greeting.value, "hello world");
}

TEST(Stub, ContainerArgumentsMarshalCorrectly) {
  Scenario s(typed_params());
  TypedResult<std::uint64_t> sum;
  s.run_client(0, [&](core::Client& c) -> sim::Task<> {
    // Built outside the co_await: GCC 12 miscompiles initializer_list
    // temporaries in coroutine await expressions ("array used as
    // initializer").
    std::vector<std::uint64_t> values{1, 2, 3, 4, 5};
    sum = co_await invoke(c, s.group(), kSum, std::move(values));
  });
  EXPECT_TRUE(sum.ok());
  EXPECT_EQ(sum.value, 15u);
}

TEST(Stub, TypedCollationFoldsAcrossGroup) {
  // Servers return v + server_id; fold with max: the collated result is the
  // largest group member's answer.
  ScenarioParams p;
  p.num_servers = 3;
  p.config.acceptance_limit = core::kAll;
  p.server_app = [](core::UserProtocol& user, core::Site& site) {
    auto dispatcher = std::make_shared<Dispatcher>();
    dispatcher->handle<std::uint64_t, std::uint64_t>(
        kSquare, [&site](std::uint64_t v) -> sim::Task<std::uint64_t> {
          co_return v + site.id().value();
        });
    Dispatcher::install_owned(std::move(dispatcher), user);
  };
  auto [fold, init] = typed_collation<std::uint64_t>(
      [](std::uint64_t acc, std::uint64_t reply) { return std::max(acc, reply); }, 0);
  p.config.collation = std::move(fold);
  p.config.collation_init = std::move(init);
  Scenario s(std::move(p));
  TypedResult<std::uint64_t> result;
  s.run_client(0, [&](core::Client& c) -> sim::Task<> {
    result = co_await invoke(c, s.group(), kSquare, std::uint64_t{100});
  });
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.value, 103u) << "max over 101,102,103";
}

/// One server with the math service; `dispatcher` is its Dispatcher.
ScenarioParams one_math_server(std::shared_ptr<Dispatcher>& dispatcher) {
  ScenarioParams p;
  p.num_servers = 1;
  p.server_app = [&dispatcher](core::UserProtocol& user, core::Site&) {
    dispatcher = std::make_shared<Dispatcher>();
    register_math(*dispatcher);
    Dispatcher::install_owned(dispatcher, user);
  };
  return p;
}

/// Sends `args` for `op` untyped, then squares 12 typed on the same server.
struct BadCallOutcome {
  core::CallResult bad;
  TypedResult<std::uint64_t> next;
};
BadCallOutcome bad_call_then_valid(core::Scenario& s, OpId op, Buffer args) {
  BadCallOutcome out;
  s.run_client(0, [&](core::Client& c) -> sim::Task<> {
    out.bad = co_await c.call(s.group(), op, std::move(args));
    out.next = co_await invoke(c, s.group(), kSquare, std::uint64_t{12});
  });
  return out;
}

TEST(Stub, CallForUnregisteredOperationGetsAnEmptyResult) {
  std::shared_ptr<Dispatcher> dispatcher;
  Scenario s(one_math_server(dispatcher));
  const BadCallOutcome out = bad_call_then_valid(s, OpId{99}, marshal<std::uint64_t>(7));
  EXPECT_EQ(out.bad.status, Status::kOk);
  EXPECT_EQ(out.bad.result.size(), 0u);
  EXPECT_EQ(dispatcher->rejected(), 1u);
  EXPECT_TRUE(out.next.ok());
  EXPECT_EQ(out.next.value, 144u);
}

TEST(Stub, HugeContainerCountDoesNotAllocateOrThrow) {
  std::shared_ptr<Dispatcher> dispatcher;
  Scenario s(one_math_server(dispatcher));
  Buffer args;
  Writer(args).u32(0xFFFFFFFFu);  // a vector count with no elements behind it
  const BadCallOutcome out = bad_call_then_valid(s, kSum.id, args);
  EXPECT_EQ(out.bad.status, Status::kOk);
  EXPECT_EQ(out.bad.result.size(), 0u);
  EXPECT_EQ(dispatcher->rejected(), 1u);
  EXPECT_TRUE(out.next.ok());
  EXPECT_EQ(out.next.value, 144u);
}

TEST(Stub, TruncatedArgumentsGetAnEmptyResult) {
  std::shared_ptr<Dispatcher> dispatcher;
  Scenario s(one_math_server(dispatcher));
  Buffer args;
  Writer(args).u16(7);  // two of a u64's eight bytes
  const BadCallOutcome out = bad_call_then_valid(s, kSquare.id, args);
  EXPECT_EQ(out.bad.status, Status::kOk);
  EXPECT_EQ(out.bad.result.size(), 0u);
  EXPECT_EQ(dispatcher->rejected(), 1u);
  EXPECT_TRUE(out.next.ok());
  EXPECT_EQ(out.next.value, 144u);
}

TEST(Stub, UndecodableReplyIsNotOk) {
  // The server answers a call for an operation it lacks with an empty
  // result, which does not decode as the typed response, whether a typed
  // collation folds it or not.
  constexpr Operation<std::uint64_t, std::uint64_t> kMissing{OpId{99}, "missing"};
  for (const bool collated : {false, true}) {
    std::shared_ptr<Dispatcher> dispatcher;
    ScenarioParams p = one_math_server(dispatcher);
    if (collated) {
      auto [fold, init] = typed_collation<std::uint64_t>(
          [](std::uint64_t acc, std::uint64_t reply) { return std::max(acc, reply); }, 0);
      p.config.collation = std::move(fold);
      p.config.collation_init = std::move(init);
    }
    Scenario s(std::move(p));
    TypedResult<std::uint64_t> result;
    s.run_client(0, [&](core::Client& c) -> sim::Task<> {
      result = co_await invoke(c, s.group(), kMissing, std::uint64_t{3});
    });
    EXPECT_EQ(result.status, Status::kOk) << "collated " << collated;
    EXPECT_TRUE(result.malformed) << "collated " << collated;
    EXPECT_FALSE(result.ok()) << "collated " << collated;
  }
}

TEST(Stub, TimeoutSurfacesInTypedResult) {
  ScenarioParams p = typed_params();
  p.config.termination_bound = sim::msec(100);
  p.faults.drop_prob = 1.0;
  Scenario s(std::move(p));
  TypedResult<std::uint64_t> result;
  s.run_client(0, [&](core::Client& c) -> sim::Task<> {
    result = co_await invoke(c, s.group(), kSquare, std::uint64_t{5});
  });
  EXPECT_EQ(result.status, Status::kTimeout);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace ugrpc::stub
