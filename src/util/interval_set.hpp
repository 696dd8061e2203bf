// IntervalSet: run-length-encoded set of uint64 sequence numbers.
//
// CO_RFIFO ack and reorder bookkeeping (DESIGN.md §13) stores "which
// sequence numbers have I received / has my peer acked" as maximal inclusive
// runs [lo, hi] in an ordered map keyed by lo. Under FIFO traffic the whole
// window is one run, so membership tests, cumulative-ack trims, and
// selective-ack (SACK) encoding are O(log runs) with runs ≈ 1 — independent
// of window size — instead of O(window) per frame. The number of runs is
// bounded by the number of *loss gaps*, not by the number of messages.
//
// Runs are inclusive on both ends so a run can reach UINT64_MAX without
// overflow gymnastics. The class is pure data (no sim/net includes): it is
// shared by the transport hot path, the wire codec (SACK blocks), and the
// fuzz oracle tests.
#pragma once

#include <cstdint>
#include <map>

#include "util/assert.hpp"
#include "util/serialization.hpp"

namespace vsgc::util {

class IntervalSet {
 public:
  /// Runs keyed by lower bound; value is the inclusive upper bound.
  using RunMap = std::map<std::uint64_t, std::uint64_t>;

  /// Inserts one value. Returns true if it was newly added. Merges with
  /// adjacent runs so the representation stays maximal.
  bool insert(std::uint64_t v) { return insert_run(v, v) != 0; }

  /// Inserts the inclusive run [lo, hi], coalescing with any overlapping or
  /// adjacent runs. Returns how many values were newly added.
  std::uint64_t insert_run(std::uint64_t lo, std::uint64_t hi) {
    VSGC_REQUIRE(lo <= hi, "IntervalSet run inverted");
    std::uint64_t added = hi - lo + 1;
    // Absorb every run that overlaps or abuts [lo, hi]. Start from the run
    // at or before lo (it may swallow us or extend us leftward).
    auto it = runs_.upper_bound(lo);
    if (it != runs_.begin()) {
      auto prev = std::prev(it);
      if (prev->second >= lo - (lo > 0 ? 1 : 0)) {
        // Overlaps or abuts on the left: extend from prev.
        lo = prev->first;
        if (prev->second >= hi) return 0;  // fully contained already
        added = hi - prev->second;         // only the right extension is new
        it = runs_.erase(prev);
      }
    }
    while (it != runs_.end() && it->first <= (hi == UINT64_MAX ? hi : hi + 1)) {
      if (it->second > hi) {
        added -= hi - it->first + 1;
        hi = it->second;
      } else {
        added -= it->second - it->first + 1;
      }
      it = runs_.erase(it);
    }
    runs_.emplace(lo, hi);
    return added;
  }

  bool contains(std::uint64_t v) const {
    auto it = runs_.upper_bound(v);
    if (it == runs_.begin()) return false;
    return std::prev(it)->second >= v;
  }

  /// True iff every value in the inclusive run [lo, hi] is present.
  bool contains_run(std::uint64_t lo, std::uint64_t hi) const {
    VSGC_REQUIRE(lo <= hi, "IntervalSet run inverted");
    auto it = runs_.upper_bound(lo);
    if (it == runs_.begin()) return false;
    --it;
    return it->first <= lo && it->second >= hi;
  }

  /// Removes every value strictly below `v` (cumulative-ack trim).
  void erase_below(std::uint64_t v) {
    auto it = runs_.begin();
    while (it != runs_.end() && it->first < v) {
      if (it->second >= v) {
        runs_.emplace(v, it->second);
        runs_.erase(it);
        return;
      }
      it = runs_.erase(it);
    }
  }

  /// Smallest value >= `from` that is NOT in the set (next reorder gap).
  std::uint64_t next_missing(std::uint64_t from) const {
    auto it = runs_.upper_bound(from);
    if (it != runs_.begin()) {
      auto prev = std::prev(it);
      if (prev->second >= from) {
        VSGC_REQUIRE(prev->second != UINT64_MAX, "IntervalSet saturated");
        return prev->second + 1;
      }
    }
    return from;
  }

  /// The set of values in [lo, hi] that are absent here (the complement
  /// restricted to a window) — used by the fuzz oracle and loss accounting.
  IntervalSet complement(std::uint64_t lo, std::uint64_t hi) const {
    VSGC_REQUIRE(lo <= hi, "IntervalSet run inverted");
    IntervalSet out;
    std::uint64_t cursor = lo;
    for (auto it = runs_.upper_bound(lo) == runs_.begin()
                       ? runs_.begin()
                       : std::prev(runs_.upper_bound(lo));
         it != runs_.end() && it->first <= hi; ++it) {
      if (it->second < cursor) continue;
      if (it->first > cursor) out.insert_run(cursor, it->first - 1);
      if (it->second >= hi) return out;
      cursor = it->second + 1;
    }
    if (cursor <= hi) out.insert_run(cursor, hi);
    return out;
  }

  bool empty() const { return runs_.empty(); }
  std::size_t num_runs() const { return runs_.size(); }

  /// Total number of values across all runs.
  std::uint64_t count() const {
    std::uint64_t n = 0;
    for (const auto& [lo, hi] : runs_) n += hi - lo + 1;
    return n;
  }

  std::uint64_t min() const {
    VSGC_REQUIRE(!runs_.empty(), "min() of empty IntervalSet");
    return runs_.begin()->first;
  }

  std::uint64_t max() const {
    VSGC_REQUIRE(!runs_.empty(), "max() of empty IntervalSet");
    return runs_.rbegin()->second;
  }

  void clear() { runs_.clear(); }

  const RunMap& runs() const { return runs_; }

  /// Approximate resident heap footprint (per-member memory accounting in
  /// bench_scale): one red-black node per run.
  std::size_t resident_bytes() const {
    return runs_.size() * (sizeof(RunMap::value_type) + 4 * sizeof(void*));
  }

  /// Wire form: run count then (lo, hi) pairs in ascending order. SACK
  /// blocks in the frame header use this with a small `max_runs` cap.
  template <class Out>
  void encode(Out& enc) const {
    enc.put_u32(static_cast<std::uint32_t>(runs_.size()));
    for (const auto& [lo, hi] : runs_) {
      enc.put_u64(lo);
      enc.put_u64(hi);
    }
  }

  /// Decodes a run list, rejecting forged counts above `max_runs` and any
  /// non-ascending or inverted run (a well-formed encoder never emits one).
  static IntervalSet decode(Decoder& dec, std::uint32_t max_runs) {
    const std::uint32_t n = dec.get_u32();
    if (n > max_runs) throw DecodeError("IntervalSet run count exceeds cap");
    IntervalSet out;
    std::uint64_t prev_hi = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint64_t lo = dec.get_u64();
      const std::uint64_t hi = dec.get_u64();
      if (lo > hi) throw DecodeError("IntervalSet run inverted");
      if (i > 0 && lo <= prev_hi + 1 && prev_hi != UINT64_MAX) {
        throw DecodeError("IntervalSet runs not maximal/ascending");
      }
      prev_hi = hi;
      out.runs_.emplace(lo, hi);
    }
    return out;
  }

  friend bool operator==(const IntervalSet&, const IntervalSet&) = default;

 private:
  RunMap runs_;
};

}  // namespace vsgc::util
