// 1-based FIFO buffer for per-(sender, view) application messages (the
// msgs[q][v] sequences of Figure 9).
//
// Entries can arrive out of order through forwarding (fwd_msg), so the buffer
// may hold entries past a gap; longest_prefix() is the paper's
// LongestPrefixOf — the index of the last message in the gap-free prefix.
//
// Layout (DESIGN.md §5): the gap-free prefix 1..n lives in contiguous
// storage indexed by i - 1, so get() on the delivery path is O(1). Only
// entries that do not extend the prefix — past a gap, or at an index <= 0 —
// go to an ordered sparse tail, which put() drains into the prefix once the
// gap is filled. Storage grows only by appending at n + 1, never to an
// index a peer supplied.
//
// References returned by get() into the prefix are invalidated by a put()
// or append() that extends it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "gcs/app_msg.hpp"

namespace vsgc::gcs {

class FifoBuffer {
 public:
  /// Insert message at 1-based index i (idempotent: the first write to an
  /// index wins, which is what makes duplicate forwards harmless).
  void put(std::int64_t i, const AppMsg& msg) {
    if (i != longest_prefix() + 1) {
      if (!in_prefix(i)) tail_.emplace(i, msg);
      return;
    }
    prefix_.push_back(msg);
    // Drain the tail entries the new message made contiguous. Tail keys
    // <= 0 sort first and are never reached.
    auto it = tail_.upper_bound(longest_prefix());
    while (it != tail_.end() && it->first == longest_prefix() + 1) {
      prefix_.push_back(std::move(it->second));
      it = tail_.erase(it);
    }
  }

  /// Append at the end of the contiguous prefix; returns the index used.
  std::int64_t append(const AppMsg& msg) {
    const std::int64_t i = longest_prefix() + 1;
    put(i, msg);
    return i;
  }

  const AppMsg* get(std::int64_t i) const {
    if (in_prefix(i)) return &prefix_[static_cast<std::size_t>(i - 1)];
    auto it = tail_.find(i);
    return it == tail_.end() ? nullptr : &it->second;
  }
  AppMsg* get(std::int64_t i) {
    return const_cast<AppMsg*>(std::as_const(*this).get(i));
  }

  /// LongestPrefixOf: last index of the gap-free prefix (0 if empty).
  std::int64_t longest_prefix() const {
    return static_cast<std::int64_t>(prefix_.size());
  }

  /// LastIndexOf: largest index present (0 if empty).
  std::int64_t last_index() const {
    if (tail_.empty()) return longest_prefix();
    const std::int64_t tail_last = tail_.rbegin()->first;
    return prefix_.empty() ? tail_last : std::max(tail_last, longest_prefix());
  }

  bool empty() const { return prefix_.empty() && tail_.empty(); }
  std::size_t size() const { return prefix_.size() + tail_.size(); }

 private:
  bool in_prefix(std::int64_t i) const {
    return i >= 1 && i <= longest_prefix();
  }

  std::vector<AppMsg> prefix_;             ///< indices 1..longest_prefix()
  std::map<std::int64_t, AppMsg> tail_;  ///< every other index present
};

}  // namespace vsgc::gcs
