// Field-list vocabulary shared by the wire codec (util/serialization.hpp)
// and the JSON codec (obs/json_codec.hpp). A struct states its fields once,
// in order, in a `fields()` member template, naming those stored as JSON:
//
//   template <class V>
//   void fields(V& v) {
//     v(codec::field("sender", sender), codec::field("uid", uid));
//   }
//
// The wire codec reads `field` and `flat` entries as the value they wrap;
// `field_if` and `tagged` are for JSON-only structs.
#pragma once

#include <map>
#include <set>
#include <type_traits>
#include <vector>

namespace vsgc::codec {

/// A field with its JSON member name. A field that is not `present` is
/// neither written nor required on read (per-kind argument sets).
template <class T>
struct Named {
  const char* name;
  T& value;
  bool present = true;
};

template <class T>
Named<T> field(const char* name, T& value) {
  return {name, value};
}

template <class T>
Named<T> field_if(bool present, const char* name, T& value) {
  return {name, value, present};
}

/// A nested struct whose fields sit directly in the enclosing JSON object
/// (View's `id` becomes its "epoch" and "origin" members).
template <class T>
struct Flat {
  T& value;
};

template <class T>
Flat<T> flat(T& value) {
  return {value};
}

/// A std::variant written as a `key` member naming the active alternative
/// (its `kType`), followed by that alternative's own fields.
template <class V>
struct Tagged {
  const char* key;
  V& value;
};

template <class V>
Tagged<V> tagged(const char* key, V& value) {
  return {key, value};
}

/// One entry of an enum's name table. An enum E that is stored as JSON
/// provides `enum_names(E)` (found by ADL), a range of entries with `.value`
/// and `.name`.
template <class E>
struct EnumName {
  E value;
  const char* name;
};

template <class T> struct IsSet : std::false_type {};
template <class K> struct IsSet<std::set<K>> : std::true_type {};
template <class T> struct IsMap : std::false_type {};
template <class K, class V> struct IsMap<std::map<K, V>> : std::true_type {};
template <class T> struct IsVector : std::false_type {};
template <class E> struct IsVector<std::vector<E>> : std::true_type {};
template <class T> struct IsNamed : std::false_type {};
template <class T> struct IsNamed<Named<T>> : std::true_type {};
template <class T> struct IsFlat : std::false_type {};
template <class T> struct IsFlat<Flat<T>> : std::true_type {};

}  // namespace vsgc::codec
