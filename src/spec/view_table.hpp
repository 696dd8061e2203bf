// Interned views for the specification checkers (DESIGN.md §5, §12.2).
//
// The paper's automata index their state by whole View: msgs[q][v] in
// WV_RFIFO:SPEC, cut[v, v'] in VS_RFIFO:SPEC, the previous view of each
// transition in TRANS_SET:SPEC. Comparing Views (member set and start-id
// map) on every delivery made the checkers the hot spot of churn runs. A
// ViewTable interns each distinct View once and hands out a small integer
// ViewRef in its place: two refs of one table are equal iff their Views are
// identical in all three components.
//
// Interning is by whole View, never by ViewId: two different views that
// share an id (a corrupted epoch, a mutated trace) get different refs, so
// the checkers keep telling them apart exactly as the map-keyed automata
// did.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "membership/view.hpp"

namespace vsgc::spec {

/// Handle of a View interned in a ViewTable; indexes that table.
using ViewRef = std::uint32_t;

class ViewTable {
 public:
  /// The ref of `v`, interning it on first sight. May grow the table, so it
  /// invalidates references previously returned by operator[].
  ViewRef intern(const View& v) {
    const auto [it, fresh] =
        refs_.try_emplace(v, static_cast<ViewRef>(views_.size()));
    if (fresh) views_.push_back(v);
    return it->second;
  }

  const View& operator[](ViewRef r) const { return views_[r]; }

 private:
  std::map<View, ViewRef> refs_;
  std::vector<View> views_;  ///< views_[r]: the View interned as r
};

}  // namespace vsgc::spec
