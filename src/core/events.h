// Event ids and event argument types of the gRPC composite protocol
// (paper section 4.3).
#pragma once

#include <string_view>

#include "common/buffer.h"
#include "common/ids.h"
#include "common/status.h"
#include "membership/membership.h"
#include "runtime/event.h"
#include "runtime/framework.h"

namespace ugrpc::core {

// Event identifiers.  All events are blocking and sequential (paper 4.3).
// The paper passes kNewRpcCall and kReplyFromServer a call id that every
// handler looks up; here they carry the record itself (grpc_state.h):
// kNewRpcCall the call's ClientRecord in pRPC, kReplyFromServer the
// executing call's own copy of its ServerRecord.
inline constexpr runtime::EventId kCallFromUser{1};     ///< new call from the user protocol (client)
inline constexpr runtime::EventId kNewRpcCall{2};       ///< call about to leave gRPC for the network
inline constexpr runtime::EventId kReplyFromServer{3};  ///< server procedure finished (server)
inline constexpr runtime::EventId kMsgFromNetwork{4};   ///< message arrived from the network
inline constexpr runtime::EventId kRecovery{5};         ///< this site is recovering from a crash
inline constexpr runtime::EventId kMembershipChange{6}; ///< a watched process failed or recovered

/// Registers the human-readable names with a framework (introspection).
void define_grpc_events(runtime::Framework& fw);

/// Message exchanged between the user protocol and gRPC
/// (paper section 4.2, `User_Msgtype`).
enum class UserOp : unsigned char {
  kCall,     ///< issue a new RPC
  kRequest,  ///< fetch the result of an earlier asynchronous RPC
};

struct UserMessage {
  UserOp type = UserOp::kCall;
  CallId id;        ///< assigned by RPC Main on kCall; supplied by user on kRequest
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
