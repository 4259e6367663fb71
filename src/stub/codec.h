// Typed serialization over the common byte codec.
//
// The gRPC layer treats call arguments as untyped bytes (paper section 4.1:
// a stub "marshalls arguments"; gRPC copies them opaquely).  This header is
// that stub machinery: Codec<T> maps C++ values to/from Buffers.  Built-in
// support covers integral types, bool, double, std::string, and the common
// containers (vector, pair, optional, map); applications add their own
// message types by specializing Codec<T>.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/buffer.h"

namespace ugrpc::stub {

template <typename T>
struct Codec;  // specialize: static void encode(Writer&, const T&); static T decode(Reader&);

namespace detail {

template <typename T>
concept UnsignedInt = std::unsigned_integral<T> && !std::same_as<T, bool>;
template <typename T>
concept SignedInt = std::signed_integral<T> && !std::same_as<T, bool>;

}  // namespace detail

template <detail::UnsignedInt T>
struct Codec<T> {
  static void encode(Writer& w, const T& v) { w.u64(static_cast<std::uint64_t>(v)); }
  static T decode(Reader& r) { return static_cast<T>(r.u64()); }
};

template <detail::SignedInt T>
struct Codec<T> {
  static void encode(Writer& w, const T& v) { w.i64(static_cast<std::int64_t>(v)); }
  static T decode(Reader& r) { return static_cast<T>(r.i64()); }
};

template <>
struct Codec<bool> {
  static void encode(Writer& w, const bool& v) { w.boolean(v); }
  static bool decode(Reader& r) { return r.boolean(); }
};

template <>
struct Codec<double> {
  static void encode(Writer& w, const double& v) { w.f64(v); }
  static double decode(Reader& r) { return r.f64(); }
};

template <>
struct Codec<std::string> {
  static void encode(Writer& w, const std::string& v) { w.str(v); }
  static std::string decode(Reader& r) { return r.str(); }
};

template <typename T>
struct Codec<std::vector<T>> {
  static void encode(Writer& w, const std::vector<T>& v) {
    w.u32(static_cast<std::uint32_t>(v.size()));
    for (const T& item : v) Codec<T>::encode(w, item);
  }
  static std::vector<T> decode(Reader& r) {
    const std::uint32_t n = r.u32();
    std::vector<T> v;
    v.reserve(std::min<std::size_t>(n, r.remaining()));  // n comes off the wire
    for (std::uint32_t i = 0; i < n; ++i) v.push_back(Codec<T>::decode(r));
    return v;
  }
};

template <typename A, typename B>
struct Codec<std::pair<A, B>> {
  static void encode(Writer& w, const std::pair<A, B>& v) {
    Codec<A>::encode(w, v.first);
    Codec<B>::encode(w, v.second);
  }
  static std::pair<A, B> decode(Reader& r) {
    A a = Codec<A>::decode(r);
    B b = Codec<B>::decode(r);
    return {std::move(a), std::move(b)};
  }
};

template <typename T>
struct Codec<std::optional<T>> {
  static void encode(Writer& w, const std::optional<T>& v) {
    w.boolean(v.has_value());
    if (v.has_value()) Codec<T>::encode(w, *v);
  }
  static std::optional<T> decode(Reader& r) {
    if (!r.boolean()) return std::nullopt;
    return Codec<T>::decode(r);
  }
};

template <typename K, typename V>
struct Codec<std::map<K, V>> {
  static void encode(Writer& w, const std::map<K, V>& v) {
    w.u32(static_cast<std::uint32_t>(v.size()));
    for (const auto& [key, value] : v) {
      Codec<K>::encode(w, key);
      Codec<V>::encode(w, value);
    }
  }
  static std::map<K, V> decode(Reader& r) {
    const std::uint32_t n = r.u32();
    std::map<K, V> m;
    for (std::uint32_t i = 0; i < n; ++i) {
      K key = Codec<K>::decode(r);
      m.emplace(std::move(key), Codec<V>::decode(r));
    }
    return m;
  }
};

/// Marshals a single value into a fresh Buffer.
template <typename T>
[[nodiscard]] Buffer marshal(const T& value) {
  Buffer b;
  Writer w(b);
  Codec<T>::encode(w, value);
  return b;
}

/// Unmarshals a single value; throws CodecError on malformed input.
template <typename T>
[[nodiscard]] T unmarshal(const Buffer& buffer) {
  Reader r(buffer);
  return Codec<T>::decode(r);
}

}  // namespace ugrpc::stub
