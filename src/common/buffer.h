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
// Storage is one heap block: a header (refcount, capacity, length) followed
// by the bytes, so encoding a message costs one allocation.  A handle is
// (block, offset, size).  It writes in place only when it owns the whole
// block alone and the capacity allows; otherwise it detaches into a new
// block of its own, grown geometrically.  reserve(n) allocates exactly n.
//
// The refcount is a plain integer, not an atomic: a Buffer and every copy
// of it belong to one thread, the executor's (simulated or UDP).  Threads
// off it -- a test's HTTP scraper or raw-datagram sender -- may read a
// Buffer the executor leaves alone, but must not copy or destroy one that
// shares storage with the executor's.
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

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
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

namespace detail {

/// Stores `v` little-endian at p[0, sizeof v).
template <typename T>
void store_le(std::byte* p, T v) {
  static_assert(std::is_unsigned_v<T>);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof v; ++i) p[i] = static_cast<std::byte>(v >> (8 * i));
  }
}

/// Loads a little-endian T from p[0, sizeof(T)).
template <typename T>
T load_le(const std::byte* p) {
  static_assert(std::is_unsigned_v<T>);
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof v; ++i) v |= static_cast<T>(static_cast<T>(p[i]) << (8 * i));
  }
  return v;
}

}  // namespace detail

/// A growable sequence of bytes with value semantics and O(1) copies
/// (shared storage, copy-on-write).
class Buffer {
 public:
  Buffer() = default;
  /// A buffer of its own holding a copy of `bytes`.
  explicit Buffer(const std::vector<std::byte>& bytes) : Buffer(copy_of(bytes)) {}
  /// A buffer of its own holding a copy of `bytes`.
  [[nodiscard]] static Buffer copy_of(std::span<const std::byte> bytes);

  Buffer(const Buffer& other) noexcept
      : block_(other.block_), offset_(other.offset_), size_(other.size_) {
    if (block_ != nullptr) ++block_->refs;
  }
  Buffer& operator=(const Buffer& other) noexcept {
    if (other.block_ != nullptr) ++other.block_->refs;  // first: `other` may be *this
    release();
    block_ = other.block_;
    offset_ = other.offset_;
    size_ = other.size_;
    return *this;
  }
  // A moved-from buffer is empty, its view included.
  Buffer(Buffer&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)),
        offset_(std::exchange(other.offset_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  Buffer& operator=(Buffer&& other) noexcept {
    if (this != &other) {
      release();
      block_ = std::exchange(other.block_, nullptr);
      offset_ = std::exchange(other.offset_, 0);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  ~Buffer() { release(); }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] std::span<const std::byte> bytes() const {
    return block_ != nullptr ? std::span<const std::byte>(block_->bytes() + offset_, size_)
                             : std::span<const std::byte>{};
  }
  /// The bytes [offset, offset + n), which must exist, as a slice sharing
  /// this buffer's storage: O(1).
  [[nodiscard]] Buffer slice(std::size_t offset, std::size_t n) const {
    UGRPC_ASSERT(offset <= size_ && n <= size_ - offset);
    Buffer out;
    if (n == 0) return out;
    out.block_ = block_;
    ++block_->refs;
    out.offset_ = offset_ + offset;
    out.size_ = n;
    return out;
  }

  void append(std::span<const std::byte> data) {
    if (data.empty()) return;
    // `data` may view this buffer's own storage: keep it until copied.
    const Buffer old = has_room(data.size()) ? Buffer() : reallocate(grown_capacity(data.size()));
    std::memcpy(extend(data.size()), data.data(), data.size());
  }
  void push_back(std::byte b) { *extend(1) = b; }
  /// Capacity for at least `n` bytes in a block this handle owns alone:
  /// exactly `n` (or the current size, if larger) when it allocates.
  void reserve(std::size_t n);
  /// Replaces the bytes at [offset, offset + data.size()), which must exist.
  void overwrite(std::size_t offset, std::span<const std::byte> data) {
    UGRPC_ASSERT(offset <= size_ && data.size() <= size_ - offset);
    if (data.empty()) return;
    const Buffer old = owns_block() ? Buffer() : reallocate(size_);  // as in append()
    std::memmove(block_->bytes() + offset, data.data(), data.size());
  }
  void clear() {
    // Shared storage and slices are simply released (other handles keep
    // their bytes); exclusive storage is reused to keep its capacity.
    if (owns_block()) {
      block_->length = 0;
    } else {
      release();
      block_ = nullptr;
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
  friend class Writer;

  /// The header of a storage block; `capacity` bytes follow it in the same
  /// allocation, the first `length` of them written.
  struct Block {
    std::size_t refs;
    std::size_t capacity;
    std::size_t length;

    [[nodiscard]] std::byte* bytes() { return reinterpret_cast<std::byte*>(this) + sizeof(Block); }
  };

  /// True when this handle is the only one on its block and views all of
  /// it, so it may write in place.
  [[nodiscard]] bool owns_block() const {
    return block_ != nullptr && block_->refs == 1 && offset_ == 0 && size_ == block_->length;
  }
  [[nodiscard]] bool has_room(std::size_t n) const {
    return owns_block() && block_->capacity - size_ >= n;
  }
  /// Grows this handle by `n` bytes, detaching or regrowing first when it
  /// cannot write in place, and returns where the new bytes go.
  std::byte* extend(std::size_t n) {
    if (!has_room(n)) (void)reallocate(grown_capacity(n));
    std::byte* at = block_->bytes() + size_;
    size_ += n;
    block_->length = size_;
    return at;
  }
  /// Room for `n` more bytes and geometric growth beyond it.
  [[nodiscard]] std::size_t grown_capacity(std::size_t n) const;
  /// Moves this handle's bytes into a new block of `capacity` (>= size_)
  /// that it owns alone.  Returns the previous handle, which keeps the old
  /// storage alive while the caller still reads bytes that may view it.
  [[nodiscard]] Buffer reallocate(std::size_t capacity);
  void release() noexcept {
    if (block_ != nullptr && --block_->refs == 0) ::operator delete(block_);
  }

  /// This handle's bytes are block_->bytes()[offset_, offset_ + size_).
  Block* block_ = nullptr;
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
  void u16(std::uint16_t v) { fixed(v); }
  void u32(std::uint32_t v) { fixed(v); }
  void u64(std::uint64_t v) { fixed(v); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
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
  template <typename T>
  void fixed(T v) {
    detail::store_le(out_.extend(sizeof v), v);
  }

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

  [[nodiscard]] std::uint8_t u8() { return fixed<std::uint8_t>(); }
  [[nodiscard]] std::uint16_t u16() { return fixed<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t u32() { return fixed<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return fixed<std::uint64_t>(); }
  [[nodiscard]] std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }
  [[nodiscard]] bool boolean() { return u8() != 0; }
  [[nodiscard]] std::string str();
  /// A length-prefixed nested buffer: a slice of the source when the Reader
  /// was built on a Buffer, a copy when it was built on a span.
  [[nodiscard]] Buffer raw();

  /// Number of bytes not yet consumed.
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool at_end() const { return remaining() == 0; }

 private:
  template <typename T>
  T fixed() {
    require(sizeof(T));
    const T v = detail::load_le<T>(data_.data() + pos_);
    pos_ += sizeof(T);
    return v;
  }
  void require(std::size_t n) const {
    if (remaining() < n) truncated();
  }
  [[noreturn]] static void truncated();

  std::span<const std::byte> data_;
  const Buffer* source_ = nullptr;  ///< what data_ views, if a Buffer
  std::size_t pos_ = 0;
};

}  // namespace ugrpc
