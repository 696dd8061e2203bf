// Binary codec shared by every wire message type.
//
// A wire struct states its format once, as a field list:
//
//   struct Leave {
//     static constexpr Tag kTag = Tag::kLeave;
//     ProcessId who{};
//     template <class V> void fields(V& v) { v(who); }
//   };
//
// and encode(), decode() and encoded_size() below are derived from it, so a
// field can be neither omitted, duplicated nor reordered between the two
// directions. A struct with a `kTag` is written as its tag byte followed by
// its fields; decode() rejects any other tag byte, then runs the struct's
// optional `validate()` hook (cross-field invariants). A struct without a
// tag (View, AppMsg) is a plain field group inside a message. A field may
// carry its JSON name (codec::field, util/field_list.hpp), which the wire
// form ignores. Leaves with a format no field list can state (IntervalSet's
// run cap, FrameHeader's flag-gated fields) keep a hand-written
// `encode(Out&)` / `decode(Decoder&)` pair, which the same entry points call.
//
// Field encodings: integers little-endian fixed width (bool as one byte);
// ids as their integer parts; strings and byte blobs as u32 length + bytes;
// sets, maps and vectors as u32 count + elements in iteration order.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/field_list.hpp"
#include "util/ids.hpp"

namespace vsgc {

class Encoder {
 public:
  /// Pre-size the buffer when the encoded size is known (or estimable) up
  /// front, so a message encodes with at most one reallocation.
  void reserve(std::size_t bytes) { buf_.reserve(buf_.size() + bytes); }

  void put_u8(std::uint8_t v) { buf_.push_back(v); }

  void put_u32(std::uint32_t v) { put_le(v, 4); }

  void put_u64(std::uint64_t v) { put_le(v, 8); }

  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }

  void put_raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  void put_string(const std::string& s) {
    reserve(4 + s.size());
    put_u32(static_cast<std::uint32_t>(s.size()));
    put_raw(s.data(), s.size());
  }

  /// Length-prefixed raw byte blob (u32 length + bytes).
  void put_bytes(const std::vector<std::uint8_t>& b) {
    reserve(4 + b.size());
    put_u32(static_cast<std::uint32_t>(b.size()));
    put_raw(b.data(), b.size());
  }

  void put_process(ProcessId p) { put_u32(p.value); }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::size_t size() const { return buf_.size(); }

 private:
  /// Append `n` little-endian bytes of `v` in one bulk write (memcpy into a
  /// resized tail) instead of n push_backs.
  void put_le(std::uint64_t v, std::size_t n) {
    std::uint8_t le[8];
    for (std::size_t i = 0; i < n; ++i) {
      le[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    const std::size_t old = buf_.size();
    buf_.resize(old + n);
    std::memcpy(buf_.data() + old, le, n);
  }

  std::vector<std::uint8_t> buf_;
};

/// Encoder stand-in that only counts bytes: running the encode path into it
/// yields the exact encoded size without allocating.
class ByteCounter {
 public:
  void put_u8(std::uint8_t) { n_ += 1; }
  void put_u32(std::uint32_t) { n_ += 4; }
  void put_u64(std::uint64_t) { n_ += 8; }
  void put_raw(const void*, std::size_t n) { n_ += n; }

  std::size_t size() const { return n_; }

 private:
  std::size_t n_ = 0;
};

class DecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Decoder {
 public:
  explicit Decoder(const std::vector<std::uint8_t>& buf) : buf_(buf) {}

  std::uint8_t get_u8() {
    need(1);
    return buf_[pos_++];
  }

  std::uint32_t get_u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(buf_[pos_++]) << (8 * i);
    return v;
  }

  std::uint64_t get_u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(buf_[pos_++]) << (8 * i);
    return v;
  }

  std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }

  std::string get_string() {
    const std::uint32_t n = get_u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(buf_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  /// Length-prefixed raw byte blob; the length is bounds-checked via need()
  /// before any read, so a forged length fails cleanly.
  std::vector<std::uint8_t> get_bytes() {
    const std::uint32_t n = get_u32();
    need(n);
    std::vector<std::uint8_t> b(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return b;
  }

  ProcessId get_process() { return ProcessId{get_u32()}; }

  bool done() const { return pos_ == buf_.size(); }
  std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  void need(std::size_t n) {
    if (buf_.size() - pos_ < n) throw DecodeError("decoder underrun");
  }

  const std::vector<std::uint8_t>& buf_;
  std::size_t pos_ = 0;
};

namespace codec {

/// A container whose element count travels in an earlier field (a frame
/// header's `count`), so the container itself carries no count prefix.
template <class C>
struct CountedBy {
  std::uint32_t& count;
  C& items;
};

template <class C>
CountedBy<C> counted_by(std::uint32_t& count, C& items) {
  return {count, items};
}

template <class T> struct IsPair : std::false_type {};
template <class A, class B> struct IsPair<std::pair<A, B>> : std::true_type {};
template <class T> struct IsCountedBy : std::false_type {};
template <class C> struct IsCountedBy<CountedBy<C>> : std::true_type {};

struct FieldProbe {
  template <class... F>
  void operator()(F&&...) {}
};

template <class T>
concept HasFields = requires(T& t, FieldProbe& v) { t.fields(v); };

template <class T>
concept HasTag = requires { T::kTag; };

template <class T>
constexpr std::uint8_t tag_of() {
  return static_cast<std::uint8_t>(T::kTag);
}

template <class Out, class T>
void write(Out& out, const T& v);
template <class T>
void read(Decoder& dec, T& v);

template <class Out>
struct Writer {
  Out& out;
  template <class... F>
  void operator()(const F&... f) {
    (write(out, f), ...);
  }
};

struct Reader {
  Decoder& dec;
  template <class... F>
  void operator()(F&&... f) {
    (read(dec, f), ...);
  }
};

/// Reads `n` elements into a set or vector. No reserve from the untrusted
/// count: each element consumes input, so a forged count fails on underrun
/// instead of driving a huge allocation.
template <class C>
void read_elements(Decoder& dec, C& c, std::uint32_t n) {
  c.clear();
  for (std::uint32_t i = 0; i < n; ++i) {
    typename C::value_type e{};
    read(dec, e);
    c.insert(c.end(), std::move(e));
  }
}

template <class Out, class T>
void write(Out& out, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    out.put_u8(v ? 1 : 0);
  } else if constexpr (std::is_same_v<T, std::uint8_t>) {
    out.put_u8(v);
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    out.put_u32(v);
  } else if constexpr (std::is_same_v<T, std::uint64_t> ||
                       std::is_same_v<T, std::int64_t>) {
    out.put_u64(static_cast<std::uint64_t>(v));
  } else if constexpr (IntegerId<T>) {
    write(out, v.value);
  } else if constexpr (IsNamed<T>::value || IsFlat<T>::value) {
    write(out, v.value);
  } else if constexpr (std::is_same_v<T, std::string> ||
                       std::is_same_v<T, std::vector<std::uint8_t>>) {
    out.put_u32(static_cast<std::uint32_t>(v.size()));
    out.put_raw(v.data(), v.size());
  } else if constexpr (IsPair<T>::value) {
    write(out, v.first);
    write(out, v.second);
  } else if constexpr (IsSet<T>::value || IsMap<T>::value ||
                       IsVector<T>::value) {
    out.put_u32(static_cast<std::uint32_t>(v.size()));
    for (const auto& e : v) write(out, e);
  } else if constexpr (IsCountedBy<T>::value) {
    VSGC_REQUIRE(v.count == v.items.size(),
                 "count field " << v.count << " != " << v.items.size()
                                << " items");
    for (const auto& e : v.items) write(out, e);
  } else if constexpr (HasFields<T>) {
    if constexpr (HasTag<T>) out.put_u8(tag_of<T>());
    // fields() is stated once, non-const, so that decode can bind to it;
    // Writer takes every field by const reference and never mutates.
    Writer<Out> w{out};
    const_cast<T&>(v).fields(w);
  } else {
    v.encode(out);  // hand-written leaf codec
  }
}

template <class T>
void read(Decoder& dec, T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    v = dec.get_u8() != 0;
  } else if constexpr (std::is_same_v<T, std::uint8_t>) {
    v = dec.get_u8();
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    v = dec.get_u32();
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    v = dec.get_u64();
  } else if constexpr (std::is_same_v<T, std::int64_t>) {
    v = dec.get_i64();
  } else if constexpr (IntegerId<T>) {
    read(dec, v.value);
  } else if constexpr (IsNamed<T>::value || IsFlat<T>::value) {
    read(dec, v.value);
  } else if constexpr (std::is_same_v<T, std::string>) {
    v = dec.get_string();
  } else if constexpr (std::is_same_v<T, std::vector<std::uint8_t>>) {
    v = dec.get_bytes();
  } else if constexpr (IsPair<T>::value) {
    read(dec, v.first);
    read(dec, v.second);
  } else if constexpr (IsSet<T>::value || IsVector<T>::value) {
    read_elements(dec, v, dec.get_u32());
  } else if constexpr (IsMap<T>::value) {
    const std::uint32_t n = dec.get_u32();
    v.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
      typename T::key_type key{};
      typename T::mapped_type value{};
      read(dec, key);
      read(dec, value);
      v.insert_or_assign(std::move(key), std::move(value));
    }
  } else if constexpr (IsCountedBy<T>::value) {
    read_elements(dec, v.items, v.count);
  } else if constexpr (HasFields<T>) {
    if constexpr (HasTag<T>) {
      if (dec.get_u8() != tag_of<T>()) {
        throw DecodeError("unexpected message tag");
      }
    }
    Reader r{dec};
    v.fields(r);
    if constexpr (requires { v.validate(); }) v.validate();
  } else {
    v = T::decode(dec);  // hand-written leaf codec
  }
}

}  // namespace codec

/// Appends the encoding of `value` (tag byte first, for tagged messages).
template <class T>
void encode(const T& value, Encoder& enc) {
  codec::write(enc, value);
}

template <class T>
std::vector<std::uint8_t> encode(const T& value) {
  Encoder enc;
  codec::write(enc, value);
  return enc.bytes();
}

/// Decodes one `T`; throws DecodeError on underrun, a wrong tag byte or a
/// failed validate().
template <class T>
T decode(Decoder& dec) {
  T value{};
  codec::read(dec, value);
  return value;
}

/// Exactly encode(value).size(), computed without allocating.
template <class T>
std::size_t encoded_size(const T& value) {
  ByteCounter counter;
  codec::write(counter, value);
  return counter.size();
}

}  // namespace vsgc
