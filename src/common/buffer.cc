#include "common/buffer.h"

#include <array>
#include <bit>
#include <cstring>

namespace ugrpc {

void Writer::uint_le(std::uint64_t v, int width) {
  // One staged append instead of `width` push_backs: a single detach check
  // and a single grow for the whole field.
  std::array<std::byte, 8> staged;
  for (int i = 0; i < width; ++i) {
    staged[static_cast<std::size_t>(i)] = static_cast<std::byte>(v & 0xffu);
    v >>= 8;
  }
  out_.append(std::span<const std::byte>(staged.data(), static_cast<std::size_t>(width)));
}

void Writer::f64(double v) {
  static_assert(sizeof(double) == sizeof(std::uint64_t));
  u64(std::bit_cast<std::uint64_t>(v));
}

void Writer::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  append_bytes(s);
}

void Writer::append_bytes(std::string_view s) {
  out_.append(std::as_bytes(std::span<const char>(s.data(), s.size())));
}

void Writer::raw(std::span<const std::byte> data) {
  u32(static_cast<std::uint32_t>(data.size()));
  out_.append(data);
}

std::size_t Writer::begin_raw() {
  const std::size_t at = out_.size();
  u32(0);
  return at;
}

void Writer::end_raw(std::size_t prefix_at) {
  const std::size_t len = out_.size() - prefix_at - 4;
  std::array<std::byte, 4> prefix;
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    prefix[i] = static_cast<std::byte>((len >> (8 * i)) & 0xffu);
  }
  out_.overwrite(prefix_at, prefix);
}

void Reader::require(std::size_t n) const {
  if (remaining() < n) throw CodecError("ugrpc codec: truncated input");
}

std::uint8_t Reader::u8() {
  require(1);
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint64_t Reader::uint_le(int width) {
  require(static_cast<std::size_t>(width));
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(data_[pos_ + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  pos_ += static_cast<std::size_t>(width);
  return v;
}

double Reader::f64() { return std::bit_cast<double>(u64()); }

std::string Reader::str() {
  const std::uint32_t len = u32();
  require(len);
  std::string s;
  s.resize(len);
  std::memcpy(s.data(), data_.data() + pos_, len);
  pos_ += len;
  return s;
}

Buffer Reader::raw() {
  const std::uint32_t len = u32();
  require(len);
  Buffer b = source_ != nullptr ? source_->slice(pos_, len)
                                : Buffer::copy_of(data_.subspan(pos_, len));
  pos_ += len;
  return b;
}

}  // namespace ugrpc
