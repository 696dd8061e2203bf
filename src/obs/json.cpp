#include "obs/json.hpp"

#include <charconv>
#include <cmath>

#include "obs/json_codec.hpp"

namespace vsgc::obs {

JsonValue& JsonValue::operator[](const std::string& key) {
  kind_ = Kind::kObject;
  for (auto& [k, v] : members_) {
    if (k == key) return v;
  }
  members_.emplace_back(key, JsonValue());
  return members_.back().second;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string format_double(double v) {
  if (!std::isfinite(v)) return v > 0 ? "1e999" : (v < 0 ? "-1e999" : "0");
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  std::string out(buf, res.ptr);
  // Keep the token recognizable as a double on re-parse.
  if (out.find('.') == std::string::npos &&
      out.find('e') == std::string::npos &&
      out.find("inf") == std::string::npos &&
      out.find("nan") == std::string::npos) {
    out += ".0";
  }
  return out;
}

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (ok_ && pos_ != text_.size()) fail("trailing characters");
    return ok_ ? v : JsonValue();
  }

 private:
  void fail(const std::string& what) {
    if (ok_ && error_ != nullptr) {
      *error_ = what + " at offset " + std::to_string(pos_);
    }
    ok_ = false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(const char* word) {
    const std::size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return {};
    }
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      // Bounded recursion: hostile nesting cannot exhaust the stack.
      if (++depth_ > kMaxDepth) fail("nesting too deep");
      JsonValue v;
      if (ok_) v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    if (c == '"') return JsonValue(parse_string());
    if (c == 't') {
      if (literal("true")) return JsonValue(true);
      fail("bad literal");
      return {};
    }
    if (c == 'f') {
      if (literal("false")) return JsonValue(false);
      fail("bad literal");
      return {};
    }
    if (c == 'n') {
      if (literal("null")) return JsonValue();
      fail("bad literal");
      return {};
    }
    return parse_number();
  }

  JsonValue parse_object() {
    JsonValue v = JsonValue::object();
    consume('{');
    skip_ws();
    if (consume('}')) return v;
    while (ok_) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        fail("expected object key");
        break;
      }
      std::string key = parse_string();
      if (!consume(':')) {
        fail("expected ':'");
        break;
      }
      v[key] = parse_value();
      if (consume(',')) continue;
      if (consume('}')) break;
      fail("expected ',' or '}'");
    }
    return v;
  }

  JsonValue parse_array() {
    JsonValue v = JsonValue::array();
    consume('[');
    skip_ws();
    if (consume(']')) return v;
    while (ok_) {
      v.push_back(parse_value());
      if (consume(',')) continue;
      if (consume(']')) break;
      fail("expected ',' or ']'");
    }
    return v;
  }

  std::string parse_string() {
    std::string out;
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
            return out;
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
            else {
              fail("bad \\u escape");
              return out;
            }
          }
          // Byte-string convention: codepoints < 0x100 decode to one byte
          // (matches the writer); anything larger is UTF-8 encoded.
          if (code < 0x100) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("bad escape"); return out;
      }
    }
    fail("unterminated string");
    return out;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    bool is_double = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+') {
        is_double = is_double || c == '.' || c == 'e' || c == 'E';
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) {
      fail("expected value");
      return {};
    }
    const std::string tok = text_.substr(start, pos_ - start);
    if (!is_double) {
      std::int64_t out = 0;
      const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), out);
      if (res.ec == std::errc() && res.ptr == tok.data() + tok.size()) {
        return JsonValue(out);
      }
      std::uint64_t big = 0;  // above INT64_MAX, kept exact
      const char* end = tok.data() + tok.size();
      const auto ures = std::from_chars(tok.data(), end, big);
      if (ures.ec == std::errc() && ures.ptr == end) {
        return JsonValue(big);
      }
    }
    double out = 0;
    const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), out);
    if (res.ec != std::errc() || res.ptr != tok.data() + tok.size()) {
      fail("bad number '" + tok + "'");
      return {};
    }
    return JsonValue(out);
  }

  static constexpr int kMaxDepth = 256;

  const std::string& text_;
  std::string* error_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  bool ok_ = true;
};

}  // namespace

JsonValue JsonValue::parse(const std::string& text, std::string* error) {
  return Parser(text, error).parse_document();
}

}  // namespace vsgc::obs
