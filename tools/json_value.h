// Minimal JSON document model + recursive-descent parser for the tools.
//
// The live telemetry plane emits JSON (obs/json.h escapes it) and no site
// reads any back, so the reader lives here, beside ugrpcstat: it prints
// the /introspect document fetched over the network (a trace file and what
// it promised are binary, obs/trace_file.h).  Tests use it to look inside
// the same documents.  It parses objects, arrays, strings (standard
// escapes incl. \uXXXX, decoded to UTF-8), numbers (a double, plus the
// exact i64/u64 when representable), booleans and null.  It rejects
// trailing garbage and caps nesting depth; it does NOT aim to be a
// validator for arbitrary hostile input beyond not crashing on it.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ugrpc::tools {

class JsonValue {
 public:
  enum class Type : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  /// Insertion order is not preserved; introspection consumers key by name.
  using Object = std::map<std::string, JsonValue>;

  JsonValue() = default;

  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }
  [[nodiscard]] bool is_string() const { return type_ == Type::kString; }
  [[nodiscard]] bool is_number() const { return type_ == Type::kNumber; }
  [[nodiscard]] bool is_bool() const { return type_ == Type::kBool; }

  [[nodiscard]] bool as_bool(bool fallback = false) const {
    return is_bool() ? bool_ : fallback;
  }
  /// Exact unsigned value when the token was a non-negative integer that
  /// fits; otherwise a best-effort cast of the double, or `fallback` when
  /// the double is out of range (casting it would be undefined).
  [[nodiscard]] std::uint64_t as_u64(std::uint64_t fallback = 0) const {
    if (!is_number()) return fallback;
    if (exact_u64_.has_value()) return *exact_u64_;
    return number_ >= 0 && number_ < 0x1p64 ? static_cast<std::uint64_t>(number_) : fallback;
  }
  [[nodiscard]] std::int64_t as_i64(std::int64_t fallback = 0) const {
    if (!is_number()) return fallback;
    if (exact_i64_.has_value()) return *exact_i64_;
    return number_ >= -0x1p63 && number_ < 0x1p63 ? static_cast<std::int64_t>(number_)
                                                  : fallback;
  }
  [[nodiscard]] const std::string& as_string() const { return string_; }
  [[nodiscard]] const Array& as_array() const { return array_; }
  [[nodiscard]] const Object& as_object() const { return object_; }

  /// Member lookup; a shared null value for missing keys / non-objects.
  [[nodiscard]] const JsonValue& operator[](const std::string& key) const;

 private:
  friend struct JsonParser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::optional<std::int64_t> exact_i64_;
  std::optional<std::uint64_t> exact_u64_;
  std::string string_;
  Array array_;
  Object object_;
};

/// Parses one complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).  On failure returns nullopt and, when `error` is
/// non-null, stores a one-line diagnostic with the byte offset.
[[nodiscard]] std::optional<JsonValue> json_parse(std::string_view text,
                                                  std::string* error = nullptr);

}  // namespace ugrpc::tools
