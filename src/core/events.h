// Event ids and event argument types of the gRPC composite protocol
// (paper section 4.3).
#pragma once

#include "common/buffer.h"
#include "common/ids.h"
#include "common/status.h"
#include "membership/membership.h"
#include "net/message.h"
#include "runtime/event.h"
#include "runtime/framework.h"

namespace ugrpc::core {

// Event identifiers.  All events are blocking and sequential (paper 4.3).
// The paper passes kNewRpcCall and kReplyFromServer a call id that every
// handler looks up; here they carry the record itself (grpc_state.h):
// kNewRpcCall the call's ClientRecord in pRPC, kExecuteCall and
// kReplyFromServer the executing call's own copy of its ServerRecord.
// The paper's MSG_FROM_NETWORK and CALL_FROM_USER, whose handlers each test
// the message's kind first, are one event per kind here, so a handler is
// bound to exactly the kinds it handles (DESIGN.md section 5).
inline constexpr runtime::EventId kCallFromUser{1};     ///< new call from the user protocol (client)
inline constexpr runtime::EventId kRequestFromUser{2};  ///< user collects an asynchronous call
inline constexpr runtime::EventId kNewRpcCall{3};       ///< call about to leave gRPC for the network
inline constexpr runtime::EventId kExecuteCall{4};      ///< a call's gates are open; it runs next
inline constexpr runtime::EventId kReplyFromServer{5};  ///< server procedure finished (server)
// One event per network message kind, in net::MsgType order.
inline constexpr runtime::EventId kCallFromNetwork{6};
inline constexpr runtime::EventId kReplyFromNetwork{7};
inline constexpr runtime::EventId kAckFromNetwork{8};
inline constexpr runtime::EventId kOrderFromNetwork{9};
inline constexpr runtime::EventId kOrderQueryFromNetwork{10};
inline constexpr runtime::EventId kOrderInfoFromNetwork{11};
inline constexpr runtime::EventId kRecovery{12};         ///< this site is recovering from a crash
inline constexpr runtime::EventId kMembershipChange{13}; ///< a watched process failed or recovered

/// The event a message of kind `t` raises on arrival (GrpcComposite's demux).
[[nodiscard]] constexpr runtime::EventId network_event(net::MsgType t) {
  return runtime::EventId{kCallFromNetwork.value() + static_cast<std::uint32_t>(t)};
}
static_assert(network_event(net::MsgType::kOrderInfo) == kOrderInfoFromNetwork);

/// Registers the human-readable names with a framework (introspection).
void define_grpc_events(runtime::Framework& fw);

/// Message exchanged between the user protocol and gRPC (paper section 4.2,
/// `User_Msgtype`); its kind is the event it is passed to.
struct UserMessage {
  CallId id;        ///< assigned by RPC Main on a call; supplied by the user on a request
  OpId op;
  Buffer args;      ///< in: marshalled arguments; out: collated results
  GroupId server;
  Status status = Status::kWaiting;
};

/// Argument of kRecovery.
struct RecoveryEvent {
  Incarnation inc;
};

/// Argument of kMembershipChange.
struct MembershipEvent {
  ProcessId who;
  membership::Change change;
};

}  // namespace ugrpc::core
