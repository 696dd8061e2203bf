// Minimal JSON document model used by the observability layer.
//
// One value type serves three purposes: (1) building BENCH_*.json run
// artifacts with deterministic key order (objects preserve insertion order),
// (2) parsing recorded JSONL traces back for post-mortem diffing and
// round-trip tests, and (3) validating artifacts in tools/. Serialization is
// byte-deterministic: same document => same text, across runs and machines —
// the property the determinism tests and perf-trajectory diffs rely on.
//
// Strings are treated as byte strings: bytes outside printable ASCII are
// escaped as \u00XX on output and decoded back to single bytes on input, so
// arbitrary application payloads round-trip exactly.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace vsgc::obs {

class JsonValue {
 public:
  /// kUint holds only integers above INT64_MAX; every other one is kInt.
  enum class Kind {
    kNull, kBool, kInt, kUint, kDouble, kString, kArray, kObject
  };

  JsonValue() : kind_(Kind::kNull) {}
  JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}
  /// Any integer; an unsigned one above INT64_MAX is kept exactly (kUint).
  template <class I>
    requires(std::is_integral_v<I> && !std::is_same_v<I, bool>)
  JsonValue(I v)
      : kind_(std::in_range<std::int64_t>(v) ? Kind::kInt : Kind::kUint),
        int_(static_cast<std::int64_t>(v)) {}
  JsonValue(double v) : kind_(Kind::kDouble), double_(v) {}
  JsonValue(const char* s) : kind_(Kind::kString), string_(s) {}
  JsonValue(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}

  static JsonValue array() {
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
  }
  static JsonValue object() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_int() const { return kind_ == Kind::kInt; }
  bool is_double() const { return kind_ == Kind::kDouble; }
  bool is_uint() const { return kind_ == Kind::kUint; }
  bool is_number() const { return is_int() || is_uint() || is_double(); }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const { return bool_; }
  std::int64_t as_int() const {
    return kind_ == Kind::kDouble ? static_cast<std::int64_t>(double_) : int_;
  }
  std::uint64_t as_uint() const { return static_cast<std::uint64_t>(int_); }
  double as_double() const {
    if (kind_ == Kind::kInt) return static_cast<double>(int_);
    if (kind_ == Kind::kUint) return static_cast<double>(as_uint());
    return double_;
  }
  const std::string& as_string() const { return string_; }

  // --- Array access ---------------------------------------------------------
  std::size_t size() const {
    return is_object() ? members_.size() : items_.size();
  }
  JsonValue& push_back(JsonValue v) {
    items_.push_back(std::move(v));
    return items_.back();
  }
  const JsonValue& at(std::size_t i) const { return items_.at(i); }
  const std::vector<JsonValue>& items() const { return items_; }

  // --- Object access (insertion-ordered) ------------------------------------
  /// Get-or-insert a member; inserting keeps document order deterministic.
  JsonValue& operator[](const std::string& key);
  /// Member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  /// Parse one JSON document from `text`. On failure returns a null value and
  /// sets *error (when non-null) to a description with character offset.
  /// Nesting deeper than 256 arrays/objects is a parse failure.
  static JsonValue parse(const std::string& text, std::string* error = nullptr);

 private:
  Kind kind_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Shortest round-trip formatting for doubles ("0.3", not "0.29999999...").
std::string format_double(double v);

}  // namespace vsgc::obs
