// Minimal JSON document model + recursive-descent parser.
//
// The live telemetry plane emits JSON (obs/json.h escapes it) and two
// consumers need to read it back without external dependencies: the flight
// recorder loader (trace_load.h) re-hydrates dumped trace rings for the
// checker, and tools/ugrpcstat parses, diffs and pretty-prints the
// introspection endpoint.  This is a small, strict-enough parser for those
// documents: objects, arrays, strings (with standard escapes incl. \uXXXX,
// decoded to UTF-8), numbers (stored as double, plus the exact i64/u64 when
// representable), booleans, null.  It rejects trailing garbage and caps
// nesting depth; it does NOT aim to be a validator for arbitrary hostile
// input beyond not crashing on it.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ugrpc::obs::live {

class JsonValue {
 public:
  enum class Type : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  /// Insertion order is not preserved; introspection consumers key by name.
  using Object = std::map<std::string, JsonValue>;

  JsonValue() = default;

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }
  [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }
  [[nodiscard]] bool is_string() const { return type_ == Type::kString; }
  [[nodiscard]] bool is_number() const { return type_ == Type::kNumber; }
  [[nodiscard]] bool is_bool() const { return type_ == Type::kBool; }

  [[nodiscard]] bool as_bool(bool fallback = false) const {
    return is_bool() ? bool_ : fallback;
  }
  [[nodiscard]] double as_double(double fallback = 0.0) const {
    return is_number() ? number_ : fallback;
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

  // ---- construction (parser + tests) ----
  static JsonValue make_null() { return JsonValue{}; }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double d, std::optional<std::int64_t> i = {},
                               std::optional<std::uint64_t> u = {});
  static JsonValue make_string(std::string s);
  static JsonValue make_array(Array a);
  static JsonValue make_object(Object o);

 private:
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

}  // namespace ugrpc::obs::live
