// JSON codec derived from the named field lists of util/field_list.hpp.
// Values map as: bool -> true/false; integers and ProcessId, ServerId,
// StartChangeId -> numbers; double -> format_double; string -> escaped byte
// string; enum -> its name in `enum_names(E)`; set, vector -> array; map ->
// object keyed by the decimal key; struct -> object in field order;
// JsonValue -> itself.
//
// The writer streams into any sink with put(char) and write(const char*, n)
// (std::ostream, StringSink, Fnv1aSink) and builds no JsonValue. The reader
// walks a parsed JsonValue and never throws: it returns false on a missing
// member, a wrong JSON type, an integer outside its field's type, a map key
// that is not such an integer, or an unknown enum name or variant tag.
// Members the list does not name are ignored; on false the target holds
// partial data.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>

#include "obs/json.hpp"
#include "util/field_list.hpp"
#include "util/ids.hpp"

namespace vsgc::obs {

/// kCompact: one line, no spaces (JSONL). kPretty: two-space indent, one
/// member or element per line (bundle files, artifacts).
enum class JsonStyle { kCompact, kPretty };

struct StringSink {
  std::string& out;
  void put(char c) { out.push_back(c); }
  void write(const char* p, std::size_t n) { out.append(p, n); }
};

/// Keeps only the 64-bit FNV-1a hash of the text.
struct Fnv1aSink {
  std::uint64_t hash = 1469598103934665603ULL;
  void put(char c) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  void write(const char* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) put(p[i]);
  }
};

template <class Sink>
class JsonWriter {
 public:
  explicit JsonWriter(Sink& sink, JsonStyle style = JsonStyle::kCompact)
      : sink_(sink), pretty_(style == JsonStyle::kPretty) {}

  template <class T>
  void value(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      if (v) sink_.write("true", 4);
      else sink_.write("false", 5);
    } else if constexpr (std::is_integral_v<T>) {
      char buf[24];
      const auto res = std::to_chars(buf, buf + sizeof buf, v);
      sink_.write(buf, static_cast<std::size_t>(res.ptr - buf));
    } else if constexpr (std::is_floating_point_v<T>) {
      const std::string text = format_double(v);
      sink_.write(text.data(), text.size());
    } else if constexpr (std::is_enum_v<T>) {
      const char* name = "unknown";
      for (const auto& entry : enum_names(v)) {
        if (entry.value == v) name = entry.name;
      }
      string(name);
    } else if constexpr (IntegerId<T>) {
      value(v.value);
    } else if constexpr (std::is_convertible_v<const T&, std::string_view>) {
      string(v);
    } else if constexpr (codec::IsMap<T>::value) {
      open('{');
      for (const auto& [k, item] : v) {
        next();
        sink_.put('"');
        value(k);
        sink_.put('"');
        colon();
        value(item);
      }
      close('}');
    } else if constexpr (codec::IsSet<T>::value || codec::IsVector<T>::value) {
      open('[');
      for (const auto& item : v) {
        next();
        value(item);
      }
      close(']');
    } else if constexpr (std::is_same_v<T, JsonValue>) {
      tree(v);
    } else {
      open('{');
      members(v);
      close('}');
    }
  }

  /// Field-list visitor: each entry becomes a member of the open object.
  template <class... F>
  void operator()(const F&... f) {
    (member(f), ...);
  }

 private:
  // fields() is non-const so that the reader can bind to it; the writer only
  // reads through the references it hands out.
  template <class T>
  void members(const T& v) {
    const_cast<T&>(v).fields(*this);
  }
  template <class T>
  void member(const codec::Named<T>& f) {
    if (!f.present) return;
    key(f.name);
    value(f.value);
  }
  template <class T>
  void member(const codec::Flat<T>& f) {
    members(f.value);
  }
  template <class V>
  void member(const codec::Tagged<V>& f) {
    std::visit(
        [&](const auto& alt) {
          key(f.key);
          string(alt.kType);
          members(alt);
        },
        f.value);
  }

  void tree(const JsonValue& j) {
    switch (j.kind()) {
      case JsonValue::Kind::kNull: sink_.write("null", 4); break;
      case JsonValue::Kind::kBool: value(j.as_bool()); break;
      case JsonValue::Kind::kInt: value(j.as_int()); break;
      case JsonValue::Kind::kUint: value(j.as_uint()); break;
      case JsonValue::Kind::kDouble: value(j.as_double()); break;
      case JsonValue::Kind::kString: string(j.as_string()); break;
      case JsonValue::Kind::kArray: value(j.items()); break;
      case JsonValue::Kind::kObject:
        open('{');
        for (const auto& [name, item] : j.members()) {
          key(name);
          tree(item);
        }
        close('}');
        break;
    }
  }

  /// A quoted byte string: bytes outside printable ASCII become \u00XX, so
  /// any payload round-trips through JsonValue::parse.
  void string(std::string_view s) {
    static constexpr char kHex[] = "0123456789abcdef";
    sink_.put('"');
    for (const char ch : s) {
      const auto c = static_cast<unsigned char>(ch);
      const char* esc = c == '"'    ? "\\\""
                        : c == '\\' ? "\\\\"
                        : c == '\n' ? "\\n"
                        : c == '\r' ? "\\r"
                        : c == '\t' ? "\\t"
                                    : nullptr;
      if (esc != nullptr) {
        sink_.write(esc, 2);
      } else if (c < 0x20 || c >= 0x7F) {
        const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 15]};
        sink_.write(u, sizeof u);
      } else {
        sink_.put(ch);
      }
    }
    sink_.put('"');
  }

  void open(char c) {
    sink_.put(c);
    ++depth_;
    first_ = true;
  }
  void close(char c) {
    --depth_;
    if (!first_) newline();
    sink_.put(c);
    first_ = false;
  }
  /// Separator before the next array element or object member.
  void next() {
    if (!first_) sink_.put(',');
    first_ = false;
    newline();
  }
  void newline() {
    if (!pretty_) return;
    sink_.put('\n');
    for (int i = 0; i < depth_; ++i) sink_.write("  ", 2);
  }
  void colon() {
    if (pretty_) sink_.write(": ", 2);
    else sink_.put(':');
  }
  void key(std::string_view name) {
    next();
    string(name);
    colon();
  }

  Sink& sink_;
  bool pretty_;
  int depth_ = 0;
  bool first_ = true;
};

template <class T>
bool from_json(const JsonValue& j, T* out);

/// Field-list visitor that reads each entry from one JSON object.
class JsonReader {
 public:
  explicit JsonReader(const JsonValue& object) : object_(object) {}

  bool ok() const { return ok_; }

  template <class... F>
  void operator()(F&&... f) {
    (member(f), ...);
  }

 private:
  template <class T>
  void member(const codec::Named<T>& f) {
    if (!ok_ || !f.present) return;
    const JsonValue* j = object_.find(f.name);
    ok_ = j != nullptr && from_json(*j, &f.value);
  }
  template <class T>
  void member(const codec::Flat<T>& f) {
    if (ok_) f.value.fields(*this);
  }
  template <class V>
  void member(const codec::Tagged<V>& f) {
    if (!ok_) return;
    const JsonValue* tag = object_.find(f.key);
    ok_ = tag != nullptr && tag->is_string() &&
          read_alternative(tag->as_string(), f.value,
                           std::make_index_sequence<std::variant_size_v<V>>{});
  }

  template <class V, std::size_t... I>
  bool read_alternative(const std::string& tag, V& v,
                        std::index_sequence<I...>) {
    const auto try_one = [&]<std::size_t K>() {
      if (tag != std::variant_alternative_t<K, V>::kType) return false;
      v.template emplace<K>().fields(*this);
      return true;
    };
    return (try_one.template operator()<I>() || ...) && ok_;
  }

  const JsonValue& object_;
  bool ok_ = true;
};

/// Reads `*out` from a parsed document; false on any mismatch (see above).
template <class T>
bool from_json(const JsonValue& j, T* out) {
  T& v = *out;
  if constexpr (std::is_same_v<T, bool>) {
    if (!j.is_bool()) return false;
    v = j.as_bool();
  } else if constexpr (std::is_integral_v<T>) {
    if (j.is_int() && std::in_range<T>(j.as_int())) {
      v = static_cast<T>(j.as_int());
    } else if (j.is_uint() && std::in_range<T>(j.as_uint())) {
      v = static_cast<T>(j.as_uint());
    } else {
      return false;
    }
  } else if constexpr (std::is_floating_point_v<T>) {
    if (!j.is_number()) return false;
    v = j.as_double();
  } else if constexpr (std::is_enum_v<T>) {
    if (!j.is_string()) return false;
    for (const auto& entry : enum_names(v)) {
      if (j.as_string() == entry.name) {
        v = entry.value;
        return true;
      }
    }
    return false;
  } else if constexpr (IntegerId<T>) {
    return from_json(j, &v.value);
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (!j.is_string()) return false;
    v = j.as_string();
  } else if constexpr (codec::IsMap<T>::value) {
    if (!j.is_object()) return false;
    v.clear();
    for (const auto& [text, item] : j.members()) {
      typename T::key_type k{};  // the key text is itself a JSON number
      if (!from_json(JsonValue::parse(text), &k) || !from_json(item, &v[k])) {
        return false;
      }
    }
  } else if constexpr (codec::IsSet<T>::value || codec::IsVector<T>::value) {
    if (!j.is_array()) return false;
    v.clear();
    for (const JsonValue& item : j.items()) {
      typename T::value_type e{};
      if (!from_json(item, &e)) return false;
      v.insert(v.end(), std::move(e));
    }
  } else {
    if (!j.is_object()) return false;
    JsonReader reader(j);
    v.fields(reader);
    return reader.ok();
  }
  return true;
}

template <class T, class Sink>
void write_json(Sink& sink, const T& value,
                JsonStyle style = JsonStyle::kCompact) {
  JsonWriter<Sink> writer(sink, style);
  writer.value(value);
}

template <class T>
std::string to_json(const T& value, JsonStyle style = JsonStyle::kCompact) {
  std::string out;
  StringSink sink{out};
  write_json(sink, value, style);
  return out;
}

template <class T>
bool parse_json(const std::string& text, T* out) {
  return from_json(JsonValue::parse(text), out);
}

}  // namespace vsgc::obs
