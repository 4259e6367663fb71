// Datagram framing for UdpTransport.
//
// One Packet per UDP datagram, framed as:
//
//   u32  magic        'uGRP' (0x75475250) -- rejects stray traffic
//   u8   version      kWireVersion
//   u32  src          sender ProcessId
//   u32  dst          destination ProcessId
//   u16  proto        demux key
//   u32  incarnation  sender attachment incarnation; receivers drop frames
//                     from an incarnation older than the newest they have
//                     seen.  The count lives in the sending UdpTransport
//                     object, so it only separates a detach and re-attach
//                     within one transport: a restarted OS process attaches
//                     as incarnation 1 again, like the process it replaces,
//                     and its predecessor's stale datagrams are not told
//                     apart (persisting the incarnation is ROADMAP's
//                     "Durable stable storage" item)
//   u64  trace        trace-context id (v2; 0 = untraced).  Group RPC calls
//                     use the raw CallId, so one trace follows a call across
//                     client, servers and retransmissions
//   u64  span         sender's send-span id (v2; 0 = none); becomes the
//                     parent of the receiver's delivery span, stitching the
//                     cross-process span tree together
//   raw  payload      length-prefixed opaque bytes
//
// Integers are little-endian (the Writer/Reader codec's detail::store_le).
// decode() is defensive: any malformed input -- wrong magic, truncation,
// trailing garbage -- yields nullopt rather than an exception or a partial
// frame, because a UDP socket receives whatever the network hands it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "common/buffer.h"
#include "common/ids.h"
#include "net/transport.h"

namespace ugrpc::net {

inline constexpr std::uint32_t kWireMagic = 0x75475250;  // "uGRP"
inline constexpr std::uint8_t kWireVersion = 2;  // v2: +trace/span context

/// Frame header bytes before the length-prefixed payload.
inline constexpr std::size_t kWireHeaderSize = 4 + 1 + 4 + 4 + 2 + 4 + 8 + 8;

/// Largest datagram the transport sends or accepts.  Loopback MTU is ~64k;
/// staying under it keeps sendmmsg() from refusing a datagram with EMSGSIZE.
inline constexpr std::size_t kMaxDatagram = 60 * 1024;

struct WireFrame {
  ProcessId src;
  ProcessId dst;
  ProtocolId proto;
  std::uint32_t incarnation = 0;
  std::uint64_t trace = 0;  ///< trace-context id (0 = untraced)
  std::uint64_t span = 0;   ///< sender's send-span id (0 = none)
  Buffer payload;

  /// The frame's bytes before the payload: the header and the payload's
  /// length prefix.  A sender can send them from here and the payload from
  /// its own Buffer, as one datagram, without copying the payload.
  using Head = std::array<std::byte, kWireHeaderSize + 4>;
  [[nodiscard]] Head head() const {
    Head out;
    std::byte* at = out.data();
    const auto put = [&at](auto v) {
      detail::store_le(at, v);
      at += sizeof v;
    };
    put(kWireMagic);
    put(kWireVersion);
    put(src.value());
    put(dst.value());
    put(proto.value());
    put(incarnation);
    put(trace);
    put(span);
    put(static_cast<std::uint32_t>(payload.size()));
    return out;
  }

  [[nodiscard]] Buffer encode() const {
    const Head h = head();
    Buffer out;
    out.reserve(h.size() + payload.size());
    out.append(h);
    out.append(payload.bytes());
    return out;
  }

  [[nodiscard]] static std::optional<WireFrame> decode(std::span<const std::byte> data) {
    try {
      Reader r(data);
      if (r.u32() != kWireMagic) return std::nullopt;
      if (r.u8() != kWireVersion) return std::nullopt;
      WireFrame frame;
      frame.src = ProcessId{r.u32()};
      frame.dst = ProcessId{r.u32()};
      frame.proto = ProtocolId{r.u16()};
      frame.incarnation = r.u32();
      frame.trace = r.u64();
      frame.span = r.u64();
      frame.payload = r.raw();
      if (!r.at_end()) return std::nullopt;  // trailing garbage
      return frame;
    } catch (const CodecError&) {
      return std::nullopt;
    }
  }
};

}  // namespace ugrpc::net
