// Runtime checker for VS_RFIFO : SPEC (paper Figure 5) — Virtual Synchrony.
//
// Extends WvRfifoChecker exactly as VS_RFIFO:SPEC extends WV_RFIFO:SPEC: the
// first process to move from view v to view v' fixes the cut (set_cut); every
// other process making the same transition must deliver precisely that set of
// messages in v before moving. The cut is represented, as in the paper, by
// the per-sender index of the last delivered message; the transition is
// keyed by the interned refs of v and v' (DESIGN.md §5).
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "spec/wv_rfifo_checker.hpp"

namespace vsgc::spec {

class VsRfifoChecker : public WvRfifoChecker {
 public:
  /// Number of distinct (v, v') transitions whose cut was fixed (for tests).
  std::size_t cuts_fixed() const { return cut_.size(); }

 protected:
  void check_view(const GcsView& e, ViewRef to) override {
    const ViewRef from = current_view_ref(e.p);
    const View& old_view = view(from);
    // Snapshot of what p delivered in the old view, per member in order.
    std::vector<std::int64_t> delivered;
    delivered.reserve(old_view.members.size());
    for (ProcessId q : old_view.members) {
      delivered.push_back(delivered_from(e.p, q));
    }

    const auto [it, first] = cut_.try_emplace({from, to}, delivered);
    // set_cut(v, v', c): the first mover fixes the cut. Every later mover
    // over the same (v, v') edge must match it exactly.
    std::size_t i = 0;
    for (ProcessId q : old_view.members) {
      const std::int64_t agreed = it->second[i];
      VSGC_REQUIRE(first || delivered[i] == agreed,
                   "VS_RFIFO: Virtual Synchrony violated — "
                       << to_string(e.p) << " moving "
                       << to_string(old_view.id) << " -> "
                       << to_string(e.view.id) << " delivered "
                       << delivered[i] << " messages from " << to_string(q)
                       << " but the agreed cut is " << agreed);
      ++i;
    }
    WvRfifoChecker::check_view(e, to);
  }

 private:
  /// cut[(v, v')] — the agreed delivery counts for the transition, one per
  /// member of v in members order.
  std::map<std::pair<ViewRef, ViewRef>, std::vector<std::int64_t>> cut_;
};

}  // namespace vsgc::spec
