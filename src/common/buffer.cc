#include "common/buffer.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <new>

namespace ugrpc {

namespace {

/// Smallest block a growing buffer allocates: its header and bytes make 64.
constexpr std::size_t kMinGrownCapacity = 40;

}  // namespace

Buffer Buffer::copy_of(std::span<const std::byte> bytes) {
  Buffer out;
  out.reserve(bytes.size());
  out.append(bytes);
  return out;
}

void Buffer::reserve(std::size_t n) {
  // Shared storage and slices detach whatever `n`: a reserve precedes writes.
  const bool enough = owns_block() ? block_->capacity >= n : block_ == nullptr && n == 0;
  if (!enough) (void)reallocate(std::max(n, size_));
}

std::size_t Buffer::grown_capacity(std::size_t n) const {
  return std::max({size_ + n, 2 * size_, kMinGrownCapacity});
}

Buffer Buffer::reallocate(std::size_t capacity) {
  UGRPC_ASSERT(capacity >= size_);
  Buffer old = std::move(*this);
  block_ = new (::operator new(sizeof(Block) + capacity)) Block{1, capacity, old.size_};
  size_ = old.size_;
  if (size_ != 0) std::memcpy(block_->bytes(), old.bytes().data(), size_);
  return old;
}

void Writer::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
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
  std::array<std::byte, 4> prefix;
  detail::store_le(prefix.data(), static_cast<std::uint32_t>(out_.size() - prefix_at - 4));
  out_.overwrite(prefix_at, prefix);
}

void Reader::truncated() { throw CodecError("ugrpc codec: truncated input"); }

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
