// The one checked decimal parser: command-line flags and configuration text
// (core::Config::parse) read their numbers through it.
#pragma once

#include <charconv>
#include <cstdint>
#include <string_view>

namespace ugrpc {

/// Parses a whole unsigned decimal number.  Rejects the empty string, signs,
/// whitespace, trailing garbage and values beyond UINT64_MAX; `out` changes
/// only on success.  The const char* form also rejects a null pointer.
inline bool parse_u64(std::string_view s, std::uint64_t& out) {
  std::uint64_t v = 0;
  const char* end = s.data() + s.size();
  const auto [at, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || at != end) return false;
  out = v;
  return true;
}
inline bool parse_u64(const char* s, std::uint64_t& out) {
  return s != nullptr && parse_u64(std::string_view(s), out);
}

}  // namespace ugrpc
