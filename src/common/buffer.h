// Byte buffer plus a small, bounds-checked binary codec.
//
// The gRPC layer of the paper treats call arguments as "one continuous
// untyped field that is copied to and from messages"; Buffer is that field.
// Copying a Buffer is O(1): the byte storage is shared and copied-on-write,
// so fanning one payload out to n group members (multicast, retransmission,
// stored duplicate answers) costs n refcount bumps instead of n deep
// copies.  A handle may also be a slice: a view of part of another
// buffer's storage, which Reader::raw() returns for a nested field of a
// Reader built on a Buffer.  So decoding a received message shares the
// packet's bytes instead of copying its arguments out.  Mutation through
// any handle, a slice included, detaches it first, so value semantics are
// preserved -- two handles never observe each other's writes.
//
// A slice keeps its whole source storage alive.  A table that keeps what it
// decoded for long, when the source is much larger than the part it keeps
// (results restored from a checkpoint record), stores Buffer::copy_of() the
// bytes instead.
//
// Writer/Reader implement the wire codec used both for marshalling call
// arguments (src/stub) and for serializing protocol messages (src/net).
// Integers are encoded little-endian at fixed width; strings and nested
// buffers are length-prefixed.  Reader throws CodecError on malformed input
// rather than reading out of bounds.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/assert.h"

namespace ugrpc {

/// Error thrown by Reader when decoding runs past the end of the buffer or
/// encounters an impossible length prefix.
class CodecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A growable sequence of bytes with value semantics and O(1) copies
/// (shared storage, copy-on-write).
class Buffer {
 public:
  Buffer() = default;
  explicit Buffer(std::vector<std::byte> bytes)
      : data_(std::make_shared<std::vector<std::byte>>(std::move(bytes))), size_(data_->size()) {}
  /// A buffer of its own holding a copy of `bytes`.
  [[nodiscard]] static Buffer copy_of(std::span<const std::byte> bytes) {
    return Buffer(std::vector<std::byte>(bytes.begin(), bytes.end()));
  }

  Buffer(const Buffer&) = default;
  Buffer& operator=(const Buffer&) = default;
  // A moved-from buffer is empty, its view included.
  Buffer(Buffer&& other) noexcept
      : data_(std::move(other.data_)),
        offset_(std::exchange(other.offset_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  Buffer& operator=(Buffer&& other) noexcept {
    data_ = std::move(other.data_);
    offset_ = std::exchange(other.offset_, 0);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] std::span<const std::byte> bytes() const {
    return data_ ? std::span<const std::byte>(data_->data() + offset_, size_)
                 : std::span<const std::byte>{};
  }
  /// The bytes [offset, offset + n), which must exist, as a slice sharing
  /// this buffer's storage: O(1).
  [[nodiscard]] Buffer slice(std::size_t offset, std::size_t n) const {
    UGRPC_ASSERT(offset <= size_ && n <= size_ - offset);
    Buffer out;
    if (n == 0) return out;
    out.data_ = data_;
    out.offset_ = offset_ + offset;
    out.size_ = n;
    return out;
  }

  void append(std::span<const std::byte> data) {
    auto& bytes = mut();
    bytes.insert(bytes.end(), data.begin(), data.end());
    size_ = bytes.size();
  }
  void push_back(std::byte b) {
    mut().push_back(b);
    ++size_;
  }
  void reserve(std::size_t n) { mut().reserve(n); }
  /// Replaces the bytes at [offset, offset + data.size()), which must exist.
  void overwrite(std::size_t offset, std::span<const std::byte> data) {
    std::copy(data.begin(), data.end(), mut().begin() + static_cast<std::ptrdiff_t>(offset));
  }
  void clear() {
    // Shared storage and slices are simply released (other handles keep
    // their bytes); exclusive storage is reused to keep its capacity.
    if (data_ != nullptr && data_.use_count() == 1 && offset_ == 0) {
      data_->clear();
    } else {
      data_.reset();
      offset_ = 0;
    }
    size_ = 0;
  }

  friend bool operator==(const Buffer& a, const Buffer& b) {
    // memcmp, not std::equal: over std::byte the latter compiles to a byte
    // loop.  An empty span's data() may be null, which memcmp must not see.
    const auto sa = a.bytes();
    const auto sb = b.bytes();
    return sa.size() == sb.size() &&
           (sa.empty() || std::memcmp(sa.data(), sb.data(), sa.size()) == 0);
  }

 private:
  /// Mutable access: allocates on first write, detaches shared storage and
  /// slices, so the vector returned holds exactly this handle's bytes.
  std::vector<std::byte>& mut() {
    if (data_ == nullptr) {
      data_ = std::make_shared<std::vector<std::byte>>();
    } else if (data_.use_count() > 1 || offset_ != 0 || size_ != data_->size()) {
      const auto view = bytes();
      data_ = std::make_shared<std::vector<std::byte>>(view.begin(), view.end());
      offset_ = 0;
    }
    return *data_;
  }

  /// This handle's bytes are (*data_)[offset_, offset_ + size_).
  std::shared_ptr<std::vector<std::byte>> data_;
  std::size_t offset_ = 0;
  std::size_t size_ = 0;
};

/// Appends encoded values to a Buffer.
class Writer {
 public:
  explicit Writer(Buffer& out) : out_(out) {}

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void u8(std::uint8_t v) { out_.push_back(static_cast<std::byte>(v)); }
  void u16(std::uint16_t v) { uint_le(v, 2); }
  void u32(std::uint32_t v) { uint_le(v, 4); }
  void u64(std::uint64_t v) { uint_le(v, 8); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Length-prefixed string.
  void str(std::string_view s);
  /// Length-prefixed raw bytes (e.g. a nested Buffer).
  void raw(std::span<const std::byte> data);
  /// The same bytes as raw(), written in place: begin_raw() reserves the
  /// length prefix and returns its position, the caller writes the payload
  /// through this Writer, and end_raw() fills the prefix in.  Saves
  /// encoding a nested part into a buffer of its own first.
  [[nodiscard]] std::size_t begin_raw();
  void end_raw(std::size_t prefix_at);

 private:
  void uint_le(std::uint64_t v, int width);
  void append_bytes(std::string_view s);

  Buffer& out_;
};

/// Decodes values from a byte span, in the order Writer produced them.
class Reader {
 public:
  explicit Reader(std::span<const std::byte> data) : data_(data) {}
  /// raw() then returns slices of `buf`, which must outlive the Reader and
  /// stay unmodified while it reads.
  explicit Reader(const Buffer& buf) : data_(buf.bytes()), source_(&buf) {}
  /// A Reader must not point at a temporary.
  Reader(const Buffer&&) = delete;

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16() { return static_cast<std::uint16_t>(uint_le(2)); }
  [[nodiscard]] std::uint32_t u32() { return static_cast<std::uint32_t>(uint_le(4)); }
  [[nodiscard]] std::uint64_t u64() { return uint_le(8); }
  [[nodiscard]] std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] double f64();
  [[nodiscard]] bool boolean() { return u8() != 0; }
  [[nodiscard]] std::string str();
  /// A length-prefixed nested buffer: a slice of the source when the Reader
  /// was built on a Buffer, a copy when it was built on a span.
  [[nodiscard]] Buffer raw();

  /// Number of bytes not yet consumed.
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool at_end() const { return remaining() == 0; }

 private:
  std::uint64_t uint_le(int width);
  void require(std::size_t n) const;

  std::span<const std::byte> data_;
  const Buffer* source_ = nullptr;  ///< what data_ views, if a Buffer
  std::size_t pos_ = 0;
};

}  // namespace ugrpc
