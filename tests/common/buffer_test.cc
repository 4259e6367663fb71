// Unit tests for the Buffer byte container and the Writer/Reader codec.
#include "common/buffer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace ugrpc {
namespace {

TEST(Buffer, StartsEmpty) {
  Buffer b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.size(), 0u);
}

TEST(Codec, RoundTripsUnsignedWidths) {
  Buffer b;
  Writer w(b);
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefULL);
  Reader r(b);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.at_end());
}

TEST(Codec, RoundTripsSignedExtremes) {
  Buffer b;
  Writer w(b);
  w.i32(std::numeric_limits<std::int32_t>::min());
  w.i32(-1);
  w.i64(std::numeric_limits<std::int64_t>::min());
  w.i64(std::numeric_limits<std::int64_t>::max());
  Reader r(b);
  EXPECT_EQ(r.i32(), std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(r.i32(), -1);
  EXPECT_EQ(r.i64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(r.i64(), std::numeric_limits<std::int64_t>::max());
}

TEST(Codec, RoundTripsDoubles) {
  Buffer b;
  Writer w(b);
  w.f64(3.14159265358979);
  w.f64(-0.0);
  w.f64(std::numeric_limits<double>::infinity());
  Reader r(b);
  EXPECT_EQ(r.f64(), 3.14159265358979);
  EXPECT_EQ(r.f64(), -0.0);
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::infinity());
}

TEST(Codec, RoundTripsStringsIncludingEmbeddedNul) {
  Buffer b;
  Writer w(b);
  w.str("");
  w.str("hello");
  w.str(std::string("a\0b", 3));
  Reader r(b);
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), std::string("a\0b", 3));
}

TEST(Codec, RoundTripsNestedRawBuffer) {
  Buffer inner;
  Writer wi(inner);
  wi.u32(77);
  Buffer outer;
  Writer wo(outer);
  wo.str("header");
  wo.raw(inner.bytes());
  Reader r(outer);
  EXPECT_EQ(r.str(), "header");
  Buffer decoded = r.raw();
  EXPECT_EQ(decoded, inner);
  Reader ri(decoded);
  EXPECT_EQ(ri.u32(), 77u);
}

TEST(Codec, InPlaceRawMatchesRaw) {
  Buffer payload;
  Writer(payload).str("nested part");
  Buffer expected;
  Writer we(expected);
  we.u8(1);
  we.raw(payload.bytes());
  we.raw({});
  Buffer in_place;
  Writer w(in_place);
  w.u8(1);
  const std::size_t part = w.begin_raw();
  w.str("nested part");
  w.end_raw(part);
  w.end_raw(w.begin_raw());
  EXPECT_EQ(in_place, expected);
}

TEST(Buffer, OverwriteDetachesSharedStorage) {
  Buffer a;
  Writer(a).u32(0x01020304);
  const Buffer b = a;
  a.overwrite(1, std::array{std::byte{0xff}});
  EXPECT_EQ(Reader(a).u32(), 0x0102ff04u);
  EXPECT_EQ(Reader(b).u32(), 0x01020304u);
}

TEST(Codec, ReaderThrowsOnTruncatedInteger) {
  Buffer b;
  Writer w(b);
  w.u16(42);
  Reader r(b);
  EXPECT_THROW((void)r.u32(), CodecError);
}

TEST(Codec, ReaderThrowsOnLengthPrefixPastEnd) {
  Buffer b;
  Writer w(b);
  w.u32(1000);  // claims a 1000-byte string, no payload follows
  Reader r(b);
  EXPECT_THROW((void)r.str(), CodecError);
}

TEST(Codec, BooleanRoundTrip) {
  Buffer b;
  Writer w(b);
  w.boolean(true);
  w.boolean(false);
  Reader r(b);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
}

TEST(Codec, RemainingTracksConsumption) {
  Buffer b;
  Writer w(b);
  w.u32(1);
  w.u32(2);
  Reader r(b);
  EXPECT_EQ(r.remaining(), 8u);
  (void)r.u32();
  EXPECT_EQ(r.remaining(), 4u);
  (void)r.u32();
  EXPECT_TRUE(r.at_end());
}

TEST(Buffer, EqualityComparesContents) {
  Buffer a;
  Buffer b;
  Writer(a).u32(5);
  Writer(b).u32(5);
  EXPECT_EQ(a, b);
  Writer(b).u8(1);
  EXPECT_NE(a, b);
}

// ---- slices ----

static_assert(std::is_constructible_v<Reader, const Buffer&>);
static_assert(!std::is_constructible_v<Reader, Buffer&&>, "a Reader must not view a temporary");
static_assert(!std::is_constructible_v<Reader, const Buffer&&>);

/// True when `inner`'s bytes lie within `outer`'s.
bool lies_within(std::span<const std::byte> inner, std::span<const std::byte> outer) {
  return !inner.empty() && inner.data() >= outer.data() &&
         inner.data() + inner.size() <= outer.data() + outer.size();
}

Buffer with_nested(std::string_view head, std::string_view nested) {
  Buffer inner;
  Writer(inner).str(nested);
  Buffer b;
  Writer w(b);
  w.str(head);
  w.raw(inner.bytes());
  w.u8(7);
  return b;
}

TEST(Codec, RawOfABufferReaderIsASliceOfItsStorage) {
  const Buffer b = with_nested("head", "nested bytes");
  Reader r(b);
  EXPECT_EQ(r.str(), "head");
  const Buffer nested = r.raw();
  EXPECT_EQ(r.u8(), 7);
  EXPECT_TRUE(lies_within(nested.bytes(), b.bytes()));
  EXPECT_EQ(Reader(nested).str(), "nested bytes");

  // A Reader over a span has no storage to share: raw() copies.
  Reader span_reader(b.bytes());
  (void)span_reader.str();
  const Buffer copied = span_reader.raw();
  EXPECT_FALSE(lies_within(copied.bytes(), b.bytes()));
  EXPECT_EQ(copied, nested);
}

TEST(Buffer, WritingToASliceDetachesIt) {
  const Buffer b = with_nested("head", "nested bytes");
  const Buffer before = Buffer::copy_of(b.bytes());
  Reader r(b);
  (void)r.str();
  Buffer appended = r.raw();
  const Buffer nested = appended;
  Buffer overwritten = nested;
  Buffer cleared = nested;

  appended.push_back(std::byte{0x42});
  overwritten.overwrite(4, std::array{std::byte{'N'}});
  cleared.clear();

  EXPECT_EQ(b, before) << "no write through a slice may reach its source";
  EXPECT_FALSE(lies_within(appended.bytes(), b.bytes()));
  EXPECT_FALSE(lies_within(overwritten.bytes(), b.bytes()));
  EXPECT_TRUE(cleared.empty());
  EXPECT_EQ(appended.size(), nested.size() + 1);
  EXPECT_TRUE(std::equal(nested.bytes().begin(), nested.bytes().end(), appended.bytes().begin()));
  Reader ro(overwritten);
  EXPECT_EQ(ro.str(), "Nested bytes");
  EXPECT_EQ(Reader(nested).str(), "nested bytes");
}

TEST(Buffer, SliceOutlivesEveryOtherHandleToItsSource) {
  Buffer nested;
  {
    const Buffer source = with_nested("head", "still here");
    Buffer copy = source;
    Reader r(copy);
    (void)r.str();
    nested = r.raw();
    copy.clear();
  }
  EXPECT_EQ(Reader(nested).str(), "still here");
  // A moved-from slice is empty, and the moved-to one holds the bytes.
  Buffer moved = std::move(nested);
  EXPECT_TRUE(nested.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(nested.bytes().empty());
  EXPECT_EQ(Reader(moved).str(), "still here");
  // The last handle to the storage still detaches before a write: the
  // storage holds more than the slice's bytes.
  const std::size_t size = moved.size();
  moved.push_back(std::byte{0x42});
  ASSERT_EQ(moved.size(), size + 1);
  EXPECT_EQ(moved.bytes().back(), std::byte{0x42});
  EXPECT_EQ(Reader(moved).str(), "still here");
}

TEST(Buffer, SliceOfASliceAndEmptySlices) {
  const Buffer b = Buffer::copy_of(std::as_bytes(std::span<const char>("0123456789", 10)));
  const Buffer mid = b.slice(2, 6);  // "234567"
  const Buffer inner = mid.slice(1, 3);  // "345"
  EXPECT_EQ(inner, Buffer::copy_of(std::as_bytes(std::span<const char>("345", 3))));
  EXPECT_TRUE(lies_within(inner.bytes(), b.bytes()));
  EXPECT_TRUE(b.slice(10, 0).empty());
  EXPECT_TRUE(mid.slice(0, 0).empty());
}

// ---- one-block storage ----

Buffer bytes_from(std::string_view s) {
  return Buffer::copy_of(std::as_bytes(std::span<const char>(s.data(), s.size())));
}

TEST(Buffer, SelfAssignmentAndSelfMoveKeepTheBytes) {
  Buffer b = bytes_from("self");
  const Buffer other = b;  // a second handle on the same block
  Buffer& alias = b;
  b = alias;
  EXPECT_EQ(b, bytes_from("self"));
  b = std::move(alias);
  EXPECT_EQ(b, bytes_from("self"));
  b.push_back(std::byte{'!'});  // the refcount is still right: b detaches
  EXPECT_EQ(b, bytes_from("self!"));
  EXPECT_EQ(other, bytes_from("self"));
}

TEST(Buffer, MovedFromBufferIsEmpty) {
  Buffer a = bytes_from("moved");
  Buffer b = std::move(a);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(a.bytes().empty());
  Buffer c;
  c = std::move(b);
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(c, bytes_from("moved"));
  a.push_back(std::byte{1});  // a moved-from buffer is usable
  EXPECT_EQ(a.size(), 1u);
}

TEST(Buffer, AppendToOneOfTwoCopiesDetachesIt) {
  Buffer a = bytes_from("shared");
  Buffer b = a;
  EXPECT_EQ(a.bytes().data(), b.bytes().data());
  b.append(std::as_bytes(std::span<const char>("++", 2)));
  EXPECT_EQ(a, bytes_from("shared"));
  EXPECT_EQ(b, bytes_from("shared++"));
  EXPECT_FALSE(lies_within(b.bytes(), a.bytes()));
  a.push_back(std::byte{'!'});
  EXPECT_EQ(a, bytes_from("shared!"));
  EXPECT_EQ(b, bytes_from("shared++"));
}

TEST(Buffer, ClearKeepsTheBlockOnlyForAnExclusiveWholeBlockHandle) {
  Buffer exclusive = bytes_from("exclusive");
  const std::byte* block = exclusive.bytes().data();
  exclusive.clear();
  EXPECT_TRUE(exclusive.empty());
  exclusive.push_back(std::byte{'x'});
  EXPECT_EQ(exclusive.bytes().data(), block) << "clear() on an exclusive buffer keeps its block";

  Buffer shared = bytes_from("shared");
  const Buffer keeper = shared;
  shared.clear();
  EXPECT_TRUE(shared.empty());
  shared.push_back(std::byte{'y'});
  EXPECT_FALSE(lies_within(shared.bytes(), keeper.bytes()));
  EXPECT_EQ(keeper, bytes_from("shared"));

  const Buffer source = bytes_from("0123456789");
  Buffer slice = source.slice(2, 3);
  slice.clear();
  EXPECT_TRUE(slice.empty());
  slice.push_back(std::byte{'z'});
  EXPECT_FALSE(lies_within(slice.bytes(), source.bytes()));
  EXPECT_EQ(source, bytes_from("0123456789"));
}

TEST(Buffer, ReserveOnSharedStorageDetaches) {
  const Buffer a = bytes_from("reserve");
  Buffer b = a;
  b.reserve(64);
  EXPECT_EQ(b, a);
  EXPECT_FALSE(lies_within(b.bytes(), a.bytes()));
  // The reserved block takes the next 57 bytes without moving.
  const std::byte* block = b.bytes().data();
  for (int i = 0; i < 57; ++i) b.push_back(std::byte{'.'});
  EXPECT_EQ(b.bytes().data(), block);
  EXPECT_EQ(b.size(), 64u);
  EXPECT_EQ(a, bytes_from("reserve"));
}

TEST(Buffer, TenThousandSingleByteAppendsKeepEveryByte) {
  Buffer b;
  for (int i = 0; i < 10'000; ++i) b.push_back(static_cast<std::byte>(i * 31 + 7));
  ASSERT_EQ(b.size(), 10'000u);
  for (int i = 0; i < 10'000; ++i) {
    ASSERT_EQ(b.bytes()[static_cast<std::size_t>(i)], static_cast<std::byte>(i * 31 + 7)) << i;
  }
}

TEST(Buffer, AppendAndOverwriteFromTheirOwnBytes) {
  // The source may lie in the storage a regrow or detach replaces.
  Buffer b = bytes_from("abc");
  for (int i = 0; i < 6; ++i) b.append(b.bytes());
  ASSERT_EQ(b.size(), 3u * 64);
  for (std::size_t i = 0; i < b.size(); ++i) ASSERT_EQ(b.bytes()[i], std::byte('a' + i % 3)) << i;

  Buffer shared = bytes_from("0123456789");
  const Buffer keeper = shared;
  shared.overwrite(0, shared.bytes().subspan(5));
  EXPECT_EQ(shared, bytes_from("5678956789"));
  EXPECT_EQ(keeper, bytes_from("0123456789"));
  Buffer exclusive = bytes_from("0123456789");
  exclusive.overwrite(2, exclusive.bytes().subspan(0, 5));  // overlapping
  EXPECT_EQ(exclusive, bytes_from("0101234789"));
}

std::vector<std::uint8_t> octets(const Buffer& b) {
  std::vector<std::uint8_t> out;
  for (const std::byte x : b.bytes()) out.push_back(static_cast<std::uint8_t>(x));
  return out;
}

TEST(Codec, WritesExactLittleEndianBytes) {
  Buffer b;
  Writer w(b);
  w.u16(0x0102);
  w.u32(0x03040506u);
  w.u64(0x0708090a0b0c0d0eULL);
  w.i64(-2);
  w.f64(1.0);  // IEEE 754: 0x3ff0000000000000
  const std::vector<std::uint8_t> expected = {
      0x02, 0x01,                                      // u16
      0x06, 0x05, 0x04, 0x03,                          // u32
      0x0e, 0x0d, 0x0c, 0x0b, 0x0a, 0x09, 0x08, 0x07,  // u64
      0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  // i64
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f,  // f64
  };
  EXPECT_EQ(octets(b), expected);
}

TEST(Codec, ReaderThrowsOnTruncationAtEachWidth) {
  for (std::size_t have = 0; have < 8; ++have) {
    const Buffer b = Buffer::copy_of(std::vector<std::byte>(have, std::byte{0xee}));
    const auto reading = [&b](auto read) {
      Reader r(b);
      read(r);
    };
    if (have < 1) {
      EXPECT_THROW(reading([](Reader& r) { (void)r.u8(); }), CodecError);
    }
    if (have < 2) {
      EXPECT_THROW(reading([](Reader& r) { (void)r.u16(); }), CodecError) << have;
    }
    if (have < 4) {
      EXPECT_THROW(reading([](Reader& r) { (void)r.u32(); }), CodecError) << have;
      EXPECT_THROW(reading([](Reader& r) { (void)r.i32(); }), CodecError) << have;
    }
    EXPECT_THROW(reading([](Reader& r) { (void)r.u64(); }), CodecError) << have;
    EXPECT_THROW(reading([](Reader& r) { (void)r.i64(); }), CodecError) << have;
    EXPECT_THROW(reading([](Reader& r) { (void)r.f64(); }), CodecError) << have;
  }
  // A failed read consumes nothing.
  Buffer b;
  Writer(b).u32(9);
  Reader r(b);
  EXPECT_THROW((void)r.u64(), CodecError);
  EXPECT_EQ(r.remaining(), 4u);
  EXPECT_EQ(r.u32(), 9u);
}

}  // namespace
}  // namespace ugrpc
