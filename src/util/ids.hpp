// Strong identifier types shared by every vsgc module.
//
// The paper (Section 3.1) requires:
//   * StartChangeId: a totally ordered set with smallest element cid0,
//     *locally* unique per process (we use a per-process monotone counter).
//   * ViewId: a partially ordered set with smallest element vid0. We use a
//     lexicographic (epoch, origin) pair; the epoch dominates, so comparisons
//     between ids produced by different membership servers stay meaningful.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <type_traits>

#include "util/field_list.hpp"

namespace vsgc {

/// Identifier of a client process / GCS end-point.
struct ProcessId {
  std::uint32_t value = 0;

  friend auto operator<=>(const ProcessId&, const ProcessId&) = default;
};

/// Identifier of a dedicated membership server.
struct ServerId {
  std::uint32_t value = 0;

  friend auto operator<=>(const ServerId&, const ServerId&) = default;
};

/// Locally unique, per-process increasing start_change identifier (cid).
/// cid0 == StartChangeId{0} is the smallest element and is never carried by a
/// real start_change notification.
struct StartChangeId {
  std::uint64_t value = 0;

  static constexpr StartChangeId zero() { return StartChangeId{0}; }

  friend auto operator<=>(const StartChangeId&, const StartChangeId&) = default;
};

/// Increasing view identifier. `epoch` is the agreement round counter chosen
/// by the membership servers; `origin` breaks ties between servers that
/// concurrently form disjoint (partitioned) views in the same epoch.
struct ViewId {
  std::uint64_t epoch = 0;
  std::uint32_t origin = 0;

  static constexpr ViewId zero() { return ViewId{0, 0}; }

  friend auto operator<=>(const ViewId&, const ViewId&) = default;

  template <class V>
  void fields(V& v) {
    v(codec::field("epoch", epoch), codec::field("origin", origin));
  }
};

/// The single-integer identifier types; every codec writes them as their
/// integer `value`.
template <class T>
concept IntegerId = std::is_same_v<T, ProcessId> ||
                    std::is_same_v<T, ServerId> ||
                    std::is_same_v<T, StartChangeId>;

std::string to_string(ProcessId id);
std::string to_string(ServerId id);
std::string to_string(StartChangeId id);
std::string to_string(ViewId id);

std::ostream& operator<<(std::ostream& os, ProcessId id);
std::ostream& operator<<(std::ostream& os, ServerId id);
std::ostream& operator<<(std::ostream& os, StartChangeId id);
std::ostream& operator<<(std::ostream& os, ViewId id);

}  // namespace vsgc

template <>
struct std::hash<vsgc::ProcessId> {
  std::size_t operator()(const vsgc::ProcessId& id) const noexcept {
    return std::hash<std::uint32_t>{}(id.value);
  }
};

template <>
struct std::hash<vsgc::ServerId> {
  std::size_t operator()(const vsgc::ServerId& id) const noexcept {
    return std::hash<std::uint32_t>{}(id.value);
  }
};

template <>
struct std::hash<vsgc::StartChangeId> {
  std::size_t operator()(const vsgc::StartChangeId& id) const noexcept {
    return std::hash<std::uint64_t>{}(id.value);
  }
};

template <>
struct std::hash<vsgc::ViewId> {
  std::size_t operator()(const vsgc::ViewId& id) const noexcept {
    const std::size_t h = std::hash<std::uint64_t>{}(id.epoch);
    return h ^ (std::hash<std::uint32_t>{}(id.origin) + 0x9e3779b97f4a7c15ULL +
                (h << 6) + (h >> 2));
  }
};
