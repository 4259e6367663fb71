// Wire message of the gRPC protocol (paper section 4.2, `Net_Msgtype`).
//
// One message type carries all four protocol interactions:
//   kCall  - client -> servers: invoke operation `op` with `args`
//   kReply - server -> client: result of call `id` (args holds the result)
//   kAck   - client -> server: acknowledges receipt of the Reply for
//            call `ackid` (Unique Execution's garbage-collection signal)
//   kOrder - leader -> group: assigns total-order position `ackid` to call
//            `id` (Total Order micro-protocol)
//
// Messages are serialized with the common codec before entering the network
// and decoded on delivery, so every protocol exchange exercises real
// marshalling.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

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
  std::uint64_t ackid = 0;  ///< acked call id (kAck) or assigned order (kOrder)

  [[nodiscard]] Buffer encode() const;
  /// Throws CodecError on malformed input, including a kAck whose batch
  /// (see encode_ack_batch) does not hold the ids its count announces.
  [[nodiscard]] static NetMessage decode(const Buffer& buf);

  friend bool operator==(const NetMessage&, const NetMessage&) = default;
};

inline Buffer NetMessage::encode() const {
  // The exact encoded size up front: 33 B of fixed fields, the args' 4 B
  // length prefix and the args.  Growing the buffer field by field would
  // reallocate (and re-copy the args) several times per message.
  constexpr std::size_t kFixedBytes = 1 + 8 + 4 + 4 + 4 + 4 + 4 + 8;
  Buffer out;
  out.reserve(kFixedBytes + args.size());
  Writer w(out);
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(id.value());
  w.u32(op.value());
  w.raw(args.bytes());
  w.u32(server.value());
  w.u32(sender.value());
  w.u32(inc);
  w.u64(ackid);
  return out;
}

// ---- batched acknowledgements ----
//
// A kAck message acknowledges `ackid`; when the client batches several
// acknowledgements for one destination into a single message, the ids beyond
// the first ride in the (otherwise unused) args field as `u32 count` followed
// by `count` u64 call ids.  The NetMessage wire layout is unchanged -- args
// was always length-prefixed opaque bytes -- so old-format single acks decode
// as a batch of one.

[[nodiscard]] inline Buffer encode_ack_batch(std::span<const std::uint64_t> extra_ids) {
  Buffer out;
  if (extra_ids.empty()) return out;
  Writer w(out);
  w.u32(static_cast<std::uint32_t>(extra_ids.size()));
  for (std::uint64_t id : extra_ids) w.u64(id);
  return out;
}

/// Extra acked ids carried in a kAck's args; tolerant of malformed payloads
/// (returns the ids decoded before the error -- acks are best-effort GC).
/// NetMessage::decode already rejects a kAck whose batch is malformed.
[[nodiscard]] inline std::vector<std::uint64_t> decode_ack_batch(const Buffer& args) {
  std::vector<std::uint64_t> ids;
  if (args.empty()) return ids;
  try {
    Reader r(args);
    const std::uint32_t count = r.u32();
    // The count comes off the wire: reserve no more ids than the bytes hold.
    ids.reserve(std::min<std::size_t>(count, r.remaining() / 8));
    for (std::uint32_t i = 0; i < count; ++i) ids.push_back(r.u64());
  } catch (const CodecError&) {
  }
  return ids;
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
  if (m.type == MsgType::kAck && !m.args.empty()) {
    // A batch must hold exactly the ids its count announces.
    Reader batch(m.args);
    const std::uint32_t count = batch.u32();
    if (batch.remaining() != std::size_t{count} * 8) throw CodecError("NetMessage: bad ack batch");
  }
  return m;
}

}  // namespace ugrpc::net
