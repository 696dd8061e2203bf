// Test-only oracle: the map-keyed WV_RFIFO / VS_RFIFO / SELF / TRANS_SET
// automata, kept as they were before the production checkers moved to
// interned views and flat per-process records (DESIGN.md §5).
//
// These follow the paper's Figures 4 to 7 literally: msgs[q][v] is a map
// keyed by whole View, last_dlvrd[q][p] a nested map, cut[(v, v')] a map
// keyed by View pairs, and each recorded view transition holds two View
// copies. checker_diff_test feeds them and the production
// checkers identical event streams and requires the same verdict on every
// event. Nothing outside tests may include this header.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "gcs/app_msg.hpp"
#include "membership/view.hpp"
#include "sim/time.hpp"
#include "spec/events.hpp"
#include "util/assert.hpp"

namespace vsgc::testing {

using spec::Event;
using spec::GcsDeliver;
using spec::GcsSend;
using spec::GcsView;

class MapWvRfifoChecker : public spec::TraceSink {
 public:
  void on_event(const Event& event) override {
    if (const auto* s = std::get_if<GcsSend>(&event.body)) {
      check_send(*s);
      apply_send(*s);
    } else if (const auto* d = std::get_if<GcsDeliver>(&event.body)) {
      check_deliver(*d);
      apply_deliver(*d);
    } else if (const auto* v = std::get_if<GcsView>(&event.body)) {
      check_view(*v);
      apply_view(*v);
    } else if (const auto* c = std::get_if<spec::Crash>(&event.body)) {
      apply_crash(c->p);
    } else if (const auto* r = std::get_if<spec::Recover>(&event.body)) {
      apply_recover(r->p);
    }
  }

  const View& current_view(ProcessId p) {
    auto it = current_view_.find(p);
    if (it == current_view_.end()) {
      it = current_view_.emplace(p, View::initial(p)).first;
    }
    return it->second;
  }

 protected:
  // ---- Extension points for child specifications ----
  virtual void check_send(const GcsSend& e) { (void)e; }

  virtual void check_deliver(const GcsDeliver& e) {
    const View& cv = current_view(e.p);
    const auto& queue = msgs_[e.q][cv];
    const std::int64_t next = last_dlvrd_[e.q][e.p] + 1;
    VSGC_REQUIRE(static_cast<std::size_t>(next) <= queue.size(),
                 "WV_RFIFO: " << to_string(e.p) << " delivered from "
                              << to_string(e.q) << " message index " << next
                              << " that was never sent in view "
                              << to_string(cv));
    VSGC_REQUIRE(queue[static_cast<std::size_t>(next - 1)] == e.msg,
                 "WV_RFIFO: delivery mismatch at "
                     << to_string(e.p) << " from " << to_string(e.q)
                     << " index " << next << " (uid " << e.msg.uid << ")");
  }

  virtual void check_view(const GcsView& e) {
    const View& cv = current_view(e.p);
    VSGC_REQUIRE(e.view.contains(e.p),
                 "WV_RFIFO: Self Inclusion violated at " << to_string(e.p));
    VSGC_REQUIRE(cv.id < e.view.id, "WV_RFIFO: Local Monotonicity violated at "
                                        << to_string(e.p) << ": "
                                        << to_string(e.view.id));
    VSGC_REQUIRE(monotonicity_floor_[e.p] < e.view.id,
                 "WV_RFIFO: view id regressed across recovery at "
                     << to_string(e.p));
  }

  virtual void apply_crash(ProcessId p) { (void)p; }

  virtual void apply_recover(ProcessId p) {
    // Section 8: the algorithm restarts from initial state, but the spec
    // preserves identifier floors for Local Monotonicity; the recovered
    // process's own initial-view queue restarts empty.
    auto& floor = monotonicity_floor_[p];
    const ViewId old = current_view(p).id;
    if (floor < old) floor = old;
    current_view_.insert_or_assign(p, View::initial(p));
    msgs_[p][View::initial(p)].clear();
    for (auto& [q, per_receiver] : last_dlvrd_) per_receiver[p] = 0;
  }

  // ---- Parent effects ----
  void apply_send(const GcsSend& e) {
    msgs_[e.p][current_view(e.p)].push_back(e.msg);
  }

  void apply_deliver(const GcsDeliver& e) { ++last_dlvrd_[e.q][e.p]; }

  void apply_view(const GcsView& e) {
    for (auto& [q, per_receiver] : last_dlvrd_) per_receiver[e.p] = 0;
    last_dlvrd_[e.p][e.p] = 0;
    current_view_.insert_or_assign(e.p, e.view);
  }

  /// msgs[q][v]: the sequence of messages q's application sent in view v.
  std::map<ProcessId, std::map<View, std::vector<gcs::AppMsg>>> msgs_;
  /// last_dlvrd[q][p]: index of the last message from q delivered to p.
  std::map<ProcessId, std::map<ProcessId, std::int64_t>> last_dlvrd_;
  std::map<ProcessId, View> current_view_;
  std::map<ProcessId, ViewId> monotonicity_floor_;
};

class MapVsRfifoChecker : public MapWvRfifoChecker {
 public:
  /// Number of distinct (v, v') transitions whose cut was fixed (for tests).
  std::size_t cuts_fixed() const { return cut_.size(); }

 protected:
  void check_view(const GcsView& e) override {
    const View& old_view = current_view(e.p);
    // Snapshot of what p delivered in the old view, per sender.
    std::map<ProcessId, std::int64_t> delivered;
    for (ProcessId q : old_view.members) {
      delivered[q] = last_dlvrd_[q][e.p];
    }

    const std::pair<View, View> key{old_view, e.view};
    auto it = cut_.find(key);
    if (it == cut_.end()) {
      // set_cut(v, v', c): the first mover fixes the cut.
      cut_.emplace(key, delivered);
    } else {
      // Every later mover over the same (v, v') edge must match it exactly.
      for (ProcessId q : old_view.members) {
        const std::int64_t agreed = it->second.count(q) ? it->second.at(q) : 0;
        VSGC_REQUIRE(delivered[q] == agreed,
                     "VS_RFIFO: Virtual Synchrony violated — "
                         << to_string(e.p) << " moving "
                         << to_string(old_view.id) << " -> "
                         << to_string(e.view.id) << " delivered "
                         << delivered[q] << " messages from " << to_string(q)
                         << " but the agreed cut is " << agreed);
      }
    }
    MapWvRfifoChecker::check_view(e);
  }

 private:
  /// cut[(v, v')] — the agreed per-sender delivery counts for the transition.
  std::map<std::pair<View, View>, std::map<ProcessId, std::int64_t>> cut_;
};

class MapSelfChecker : public MapWvRfifoChecker {
 protected:
  void check_view(const GcsView& e) override {
    const View& cv = current_view(e.p);
    const auto& own_queue = msgs_[e.p][cv];
    const std::int64_t own_delivered = last_dlvrd_[e.p][e.p];
    VSGC_REQUIRE(
        own_delivered == static_cast<std::int64_t>(own_queue.size()),
        "SELF: Self Delivery violated at "
            << to_string(e.p) << " moving to " << to_string(e.view.id)
            << ": delivered " << own_delivered << " of " << own_queue.size()
            << " own messages sent in " << to_string(cv.id));
    MapWvRfifoChecker::check_view(e);
  }
};

class MapTransSetChecker : public spec::TraceSink {
 public:
  void on_event(const Event& event) override {
    if (const auto* v = std::get_if<GcsView>(&event.body)) {
      const View& prev = current_view(v->p);
      VSGC_REQUIRE(v->transitional.contains(v->p),
                   "TRANS_SET: transitional set at " << to_string(v->p)
                                                     << " excludes itself");
      for (ProcessId q : v->transitional) {
        VSGC_REQUIRE(v->view.contains(q) && prev.contains(q),
                     "TRANS_SET: " << to_string(q)
                                   << " outside v.set ∩ prev.set at "
                                   << to_string(v->p));
      }
      deliveries_.push_back(
          Delivery{v->p, prev, v->view, v->transitional, event.at});
      current_view_.insert_or_assign(v->p, v->view);
      return;
    }
    if (const auto* r = std::get_if<spec::Recover>(&event.body)) {
      current_view_.insert_or_assign(r->p, View::initial(r->p));
      return;
    }
  }

  /// Cross-process half of Property 4.1; call once the execution is over.
  void finalize() const { finalize_after(std::numeric_limits<sim::Time>::min()); }

  /// Window-aware finalize (eventual-safety mode, DESIGN.md §12): view
  /// transitions recorded at or before `cutoff` straddle a tolerated
  /// corruption-recovery span and are exempt from the cross-process
  /// consistency requirement; everything later must be exact. finalize() is
  /// the cutoff = -inf special case.
  void finalize_after(sim::Time cutoff) const {
    // prev[(q, v')] = the view q moved to v' from (unique per q, v').
    std::map<std::pair<ProcessId, View>, View> prev;
    for (const Delivery& d : deliveries_) {
      prev.emplace(std::make_pair(d.p, d.view), d.previous);
    }
    for (const Delivery& d : deliveries_) {
      if (d.at <= cutoff) continue;
      for (ProcessId q : d.view.members) {
        if (!d.previous.contains(q)) continue;
        auto it = prev.find(std::make_pair(q, d.view));
        if (it == prev.end()) continue;  // q never delivered v'
        const bool moved_together = it->second == d.previous;
        VSGC_REQUIRE(
            d.transitional.contains(q) == moved_together,
            "TRANS_SET: Property 4.1 violated — at "
                << to_string(d.p) << " moving to " << to_string(d.view.id)
                << ", " << to_string(q)
                << (moved_together
                        ? " moved from the same view but is not in T"
                        : " moved from a different view but is in T"));
      }
    }
  }

  std::size_t transitions_recorded() const { return deliveries_.size(); }

 private:
  struct Delivery {
    ProcessId p;
    View previous;
    View view;
    std::set<ProcessId> transitional;
    sim::Time at = 0;
  };

  const View& current_view(ProcessId p) {
    auto it = current_view_.find(p);
    if (it == current_view_.end()) {
      it = current_view_.emplace(p, View::initial(p)).first;
    }
    return it->second;
  }

  std::map<ProcessId, View> current_view_;
  std::vector<Delivery> deliveries_;
};

}  // namespace vsgc::testing
