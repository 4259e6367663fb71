#include "core/events.h"

namespace ugrpc::core {

void define_grpc_events(runtime::Framework& fw) {
  fw.define_event(kCallFromUser, "CALL_FROM_USER");
  fw.define_event(kRequestFromUser, "REQUEST_FROM_USER");
  fw.define_event(kNewRpcCall, "NEW_RPC_CALL");
  fw.define_event(kExecuteCall, "EXECUTE_CALL");
  fw.define_event(kReplyFromServer, "REPLY_FROM_SERVER");
  fw.define_event(kCallFromNetwork, "CALL_FROM_NETWORK");
  fw.define_event(kReplyFromNetwork, "REPLY_FROM_NETWORK");
  fw.define_event(kAckFromNetwork, "ACK_FROM_NETWORK");
  fw.define_event(kOrderFromNetwork, "ORDER_FROM_NETWORK");
  fw.define_event(kOrderQueryFromNetwork, "ORDER_QUERY_FROM_NETWORK");
  fw.define_event(kOrderInfoFromNetwork, "ORDER_INFO_FROM_NETWORK");
  fw.define_event(kRecovery, "RECOVERY");
  fw.define_event(kMembershipChange, "MEMBERSHIP_CHANGE");
}

}  // namespace ugrpc::core
