// Minimal JSON string escaping shared by every JSON writer (profile,
// Perfetto, telemetry).  Interned names and metric keys may contain
// user-provided group labels -- quotes, backslashes, control bytes -- which
// would otherwise corrupt the emitted documents.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace ugrpc::obs {

/// `s` as a complete JSON string literal, quotes included: quotes,
/// backslashes and control bytes escaped.
[[nodiscard]] inline std::string json_str(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace ugrpc::obs
