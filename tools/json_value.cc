#include "json_value.h"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <system_error>
#include <utility>

namespace ugrpc::tools {

namespace {

const JsonValue kNullValue{};

constexpr int kMaxDepth = 64;

}  // namespace

struct JsonParser {
  std::string_view text{};
  std::size_t pos = 0;
  std::string error{};

  [[nodiscard]] bool at_end() const { return pos >= text.size(); }
  [[nodiscard]] char peek() const { return text[pos]; }

  void fail(const std::string& what) {
    if (error.empty()) error = what + " at byte " + std::to_string(pos);
  }

  void skip_ws() {
    while (!at_end()) {
      const char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos;
    }
  }

  bool consume(char c) {
    if (at_end() || peek() != c) return false;
    ++pos;
    return true;
  }

  bool consume_word(std::string_view w) {
    if (text.substr(pos, w.size()) != w) return false;
    pos += w.size();
    return true;
  }

  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool parse_hex4(std::uint32_t& out) {
    if (pos + 4 > text.size()) return false;
    const char* first = text.data() + pos;
    const auto r = std::from_chars(first, first + 4, out, 16);
    if (r.ec != std::errc{} || r.ptr != first + 4) return false;
    pos += 4;
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) {
      fail("expected '\"'");
      return false;
    }
    out.clear();
    while (true) {
      if (at_end()) {
        fail("unterminated string");
        return false;
      }
      const char c = text[pos++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (at_end()) {
        fail("unterminated escape");
        return false;
      }
      const char e = text[pos++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          std::uint32_t cp = 0;
          if (!parse_hex4(cp)) {
            fail("bad \\u escape");
            return false;
          }
          // Surrogate pair: combine; lone surrogates degrade to U+FFFD.
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            std::uint32_t lo = 0;
            if (pos + 1 < text.size() && text[pos] == '\\' && text[pos + 1] == 'u') {
              pos += 2;
              if (!parse_hex4(lo)) {
                fail("bad \\u escape");
                return false;
              }
            }
            if (lo >= 0xDC00 && lo <= 0xDFFF) {
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else {
              cp = 0xFFFD;
            }
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            cp = 0xFFFD;
          }
          append_utf8(out, cp);
          break;
        }
        default:
          fail("bad escape");
          return false;
      }
    }
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos;
    const auto digits = [this] {
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek())) != 0) ++pos;
    };
    (void)consume('-');
    digits();
    bool integral = true;
    if (consume('.')) {
      integral = false;
      digits();
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      integral = false;
      ++pos;
      if (!at_end() && (peek() == '+' || peek() == '-')) ++pos;
      digits();
    }
    const std::string token(text.substr(start, pos - start));
    const char* last = token.c_str() + token.size();
    char* end = nullptr;
    out.number_ = std::strtod(token.c_str(), &end);
    if (token.empty() || end != last) {
      fail("bad number");
      return false;
    }
    out.type_ = JsonValue::Type::kNumber;
    // The exact integer too, when the token is one that fits.
    std::int64_t i = 0;
    std::uint64_t u = 0;
    if (const auto r = std::from_chars(token.c_str(), last, i);
        integral && r.ec == std::errc{} && r.ptr == last) {
      out.exact_i64_ = i;
    }
    if (const auto r = std::from_chars(token.c_str(), last, u);
        integral && r.ec == std::errc{} && r.ptr == last) {
      out.exact_u64_ = u;
    }
    return true;
  }

  bool parse_value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) {
      fail("nesting too deep");
      return false;
    }
    skip_ws();
    if (at_end()) {
      fail("unexpected end of input");
      return false;
    }
    const char c = peek();
    if (c == '{') {
      ++pos;
      out.type_ = JsonValue::Type::kObject;
      skip_ws();
      if (consume('}')) return true;
      while (true) {
        skip_ws();
        std::string key;
        if (!parse_string(key)) return false;
        skip_ws();
        if (!consume(':')) {
          fail("expected ':'");
          return false;
        }
        JsonValue v;
        if (!parse_value(v, depth + 1)) return false;
        out.object_.insert_or_assign(std::move(key), std::move(v));
        skip_ws();
        if (consume(',')) continue;
        if (consume('}')) return true;
        fail("expected ',' or '}'");
        return false;
      }
    }
    if (c == '[') {
      ++pos;
      out.type_ = JsonValue::Type::kArray;
      skip_ws();
      if (consume(']')) return true;
      while (true) {
        JsonValue v;
        if (!parse_value(v, depth + 1)) return false;
        out.array_.push_back(std::move(v));
        skip_ws();
        if (consume(',')) continue;
        if (consume(']')) return true;
        fail("expected ',' or ']'");
        return false;
      }
    }
    if (c == '"') {
      out.type_ = JsonValue::Type::kString;
      return parse_string(out.string_);
    }
    for (const bool b : {true, false}) {
      if (consume_word(b ? "true" : "false")) {
        out.type_ = JsonValue::Type::kBool;
        out.bool_ = b;
        return true;
      }
    }
    if (consume_word("null")) return true;
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c)) != 0) return parse_number(out);
    fail("unexpected character");
    return false;
  }
};

const JsonValue& JsonValue::operator[](const std::string& key) const {
  if (type_ != Type::kObject) return kNullValue;
  const auto it = object_.find(key);
  return it == object_.end() ? kNullValue : it->second;
}

std::optional<JsonValue> json_parse(std::string_view text, std::string* error) {
  JsonParser p{.text = text};
  JsonValue out;
  if (!p.parse_value(out, 0)) {
    if (error != nullptr) *error = p.error;
    return std::nullopt;
  }
  p.skip_ws();
  if (!p.at_end()) {
    if (error != nullptr) *error = "trailing garbage at byte " + std::to_string(p.pos);
    return std::nullopt;
  }
  return out;
}

}  // namespace ugrpc::tools
