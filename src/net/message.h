// Wire message of the gRPC protocol (paper section 4.2, `Net_Msgtype`).
//
// One message type carries all four protocol interactions:
//   kCall  - client -> servers: invoke operation `op` with `args`
//   kReply - server -> client: result of call `id` (args holds the result)
//   kAck   - client -> server: carries the client's low watermark W in
//            `ackid`: every call of the sender below W has completed, so
//            the server may free their stored results (Unique Execution's
//            garbage-collection signal).  Every Call carries W in the same
//            field, so an ACK is sent only by a client that has gone idle.
//            A kAck has no args.  (The compact point-to-point protocol,
//            core/p2p_rpc.h, acks the one call `ackid` names instead.)
//   kOrder - leader -> the other group members: assigns total-order
//            position `ackid` to call `id`.  `args` repeats the leader's
//            previous assignment as id:u64 order:u64 (zero before its
//            first), so a lost Order is repaired by the next one, then
//            carries the Call being ordered, its encoding as one
//            length-prefixed field, so a follower that lost the Call runs
//            it from the Order (omitted when the Order would not fit in a
//            datagram; Total Order micro-protocol)
//
// Messages are serialized with the common codec before entering the network
// and decoded on delivery, so every protocol exchange exercises real
// marshalling.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/buffer.h"
#include "common/ids.h"
#include "common/log.h"
#include "common/rate_limited_log.h"

namespace ugrpc::net {

// kCall..kOrder are the paper's message types; kOrderQuery/kOrderInfo extend
// the protocol with the leader-change agreement phase the paper omits (a new
// leader reconciles the group's order assignments before assigning further
// orders; see total_order.h).
enum class MsgType : unsigned char {
  kCall = 0,
  kReply = 1,
  kAck = 2,
  kOrder = 3,
  kOrderQuery = 4,  ///< new leader -> group: report your assignments >= ackid
  kOrderInfo = 5,   ///< member -> new leader: (call, order) pairs in args
};

[[nodiscard]] constexpr std::string_view to_string(MsgType t) {
  switch (t) {
    case MsgType::kCall: return "Call";
    case MsgType::kReply: return "Reply";
    case MsgType::kAck: return "ACK";
    case MsgType::kOrder: return "Order";
    case MsgType::kOrderQuery: return "OrderQuery";
    case MsgType::kOrderInfo: return "OrderInfo";
  }
  return "<invalid>";
}

struct NetMessage {
  MsgType type = MsgType::kCall;
  CallId id;          ///< call identifier (assigned by the client)
  OpId op;            ///< operation identifier
  Buffer args;        ///< untyped argument/result bytes
  GroupId server;     ///< identity of the server group
  ProcessId sender;   ///< process that sent this message
  Incarnation inc = 0;  ///< sender's incarnation number
  /// The sender's low watermark (kCall, kAck) or assigned order (kOrder).
  std::uint64_t ackid = 0;

  /// encode()'s bytes besides the args: the fixed fields and the args'
  /// length prefix.
  static constexpr std::size_t kFixedBytes = 1 + 8 + 4 + 4 + 4 + 4 + 4 + 8;

  [[nodiscard]] Buffer encode() const;
  /// encode()'s bytes, appended through a caller's Writer (to nest this
  /// message in another without a buffer of its own).
  void encode_to(Writer& w) const;
  /// Throws CodecError on malformed input, including a kAck with args.
  [[nodiscard]] static NetMessage decode(const Buffer& buf);

  friend bool operator==(const NetMessage&, const NetMessage&) = default;
};

inline Buffer NetMessage::encode() const {
  // The exact encoded size up front: growing the buffer field by field
  // would reallocate (and re-copy the args) several times per message.
  Buffer out;
  out.reserve(kFixedBytes + args.size());
  Writer w(out);
  encode_to(w);
  return out;
}

inline void NetMessage::encode_to(Writer& w) const {
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(id.value());
  w.u32(op.value());
  w.raw(args.bytes());
  w.u32(server.value());
  w.u32(sender.value());
  w.u32(inc);
  w.u64(ackid);
}

/// Messages dropped because their bytes did not decode.  A peer's bug or a
/// corrupted datagram costs that one message, never the receiving site: the
/// drop is counted exactly and logged at most once a second per sender, with
/// the number suppressed since the last line (RateLimitedLog).
class MalformedDrops {
 public:
  void note(std::string_view where, ProcessId from, std::int64_t now, const char* what) {
    ++count_;
    if (const std::uint64_t n = log_.occurrences_to_log(from.value(), now); n == 1) {
      UGRPC_LOG(kWarn, "%.*s: dropped malformed message from %u: %s",
                static_cast<int>(where.size()), where.data(), from.value(), what);
    } else if (n > 1) {
      UGRPC_LOG(kWarn, "%.*s: dropped %llu malformed messages from %u since last report",
                static_cast<int>(where.size()), where.data(), static_cast<unsigned long long>(n),
                from.value());
    }
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }

 private:
  static constexpr std::int64_t kLogPeriodUs = 1'000'000;
  std::uint64_t count_ = 0;
  RateLimitedLog log_{kLogPeriodUs};
};

inline NetMessage NetMessage::decode(const Buffer& buf) {
  Reader r(buf);
  NetMessage m;
  const std::uint8_t t = r.u8();
  if (t > static_cast<std::uint8_t>(MsgType::kOrderInfo)) {
    throw CodecError("NetMessage: bad message type");
  }
  m.type = static_cast<MsgType>(t);
  m.id = CallId{r.u64()};
  m.op = OpId{r.u32()};
  m.args = r.raw();
  m.server = GroupId{r.u32()};
  m.sender = ProcessId{r.u32()};
  m.inc = r.u32();
  m.ackid = r.u64();
  if (m.type == MsgType::kAck && !m.args.empty()) throw CodecError("NetMessage: ACK with args");
  return m;
}

}  // namespace ugrpc::net
