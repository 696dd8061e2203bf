// Runtime checker for WV_RFIFO : SPEC (paper Figure 4).
//
// Maintains the specification automaton's state — per-(sender, view)
// message queues msgs[q][v], per-pair delivery counters last_dlvrd[q][p],
// per-process current views — and asserts every GcsSend / GcsDeliver /
// GcsView event is a legal step:
//   * deliver_p(q, m): m is exactly msgs[q][current_view[p]] at index
//     last_dlvrd[q][p] + 1 (within-view, gap-free, FIFO, sent-view delivery);
//   * view_p(v): p ∈ v.set and v.id > current_view[p].id.
//
// Representation (DESIGN.md §5): views are interned in a ViewTable (by whole
// View, never by id), and each process owns one flat record, found through
// one slot lookup per event, holding its current view, its recovery floor,
// last_dlvrd[·][p] as an array indexed by sender slot, and its own queues
// msgs[p][·] with the current view's queue cached. A delivery therefore
// compares no View and walks no map. Records refer to each other and to
// views by index only, so the checker stays valid when moved or copied
// (Eventually<> rebuilds it by move-assignment).
//
// Children (VsRfifoChecker, SelfChecker) extend this checker the same way
// VS_RFIFO:SPEC and SELF:SPEC extend WV_RFIFO:SPEC — extra preconditions run
// before the parent's effects (Theorem A.2's structure). They read the
// parent state only through the accessors below.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "gcs/app_msg.hpp"
#include "membership/view.hpp"
#include "spec/events.hpp"
#include "spec/view_table.hpp"
#include "util/assert.hpp"

namespace vsgc::spec {

class WvRfifoChecker : public TraceSink {
 public:
  void on_event(const Event& event) override {
    if (const auto* s = std::get_if<GcsSend>(&event.body)) {
      apply_send(slot(s->p), s->msg);
    } else if (const auto* d = std::get_if<GcsDeliver>(&event.body)) {
      const Slot p = slot(d->p);
      const Slot q = slot(d->q);
      check_deliver(*d, p, q);
      ++delivered_at(procs_[p], q);
    } else if (const auto* v = std::get_if<GcsView>(&event.body)) {
      const Slot p = slot(v->p);
      const ViewRef to = views_.intern(v->view);
      check_view(*v, to);
      apply_view(procs_[p], to);
    } else if (const auto* r = std::get_if<Recover>(&event.body)) {
      apply_recover(procs_[slot(r->p)]);
    }
    // crash_p has no effect on the specification state (Section 8).
  }

 protected:
  // ---- Extension point for child specifications ----
  /// Precondition of view_p(v); `to` is v's ref in this checker's table.
  /// Children check their own first, then call the parent's.
  virtual void check_view(const GcsView& e, ViewRef /*to*/) {
    const Proc& pr = procs_[slot(e.p)];
    VSGC_REQUIRE(e.view.contains(e.p),
                 "WV_RFIFO: Self Inclusion violated at " << to_string(e.p));
    VSGC_REQUIRE(views_[pr.view].id < e.view.id,
                 "WV_RFIFO: Local Monotonicity violated at "
                     << to_string(e.p) << ": " << to_string(e.view.id));
    VSGC_REQUIRE(pr.floor < e.view.id,
                 "WV_RFIFO: view id regressed across recovery at "
                     << to_string(e.p));
  }

  // ---- Read-only accessors for children ----
  /// The ref of current_view[p] (p's initial view on first sight).
  ViewRef current_view_ref(ProcessId p) { return procs_[slot(p)].view; }
  const View& view(ViewRef r) const { return views_[r]; }

  /// last_dlvrd[q][p]: messages from q that p delivered in its current view.
  std::int64_t delivered_from(ProcessId p, ProcessId q) const {
    const Slot ps = find_slot(p);
    const Slot qs = find_slot(q);
    if (ps == kNone || qs == kNone) return 0;
    const std::vector<std::int64_t>& row = procs_[ps].delivered;
    return qs < row.size() ? row[qs] : 0;
  }

  /// |msgs[p][current_view[p]]|: messages p sent in its current view.
  std::size_t sent_in_current_view(ProcessId p) const {
    const Slot ps = find_slot(p);
    if (ps == kNone) return 0;
    const Proc& pr = procs_[ps];
    return pr.current == kNone ? 0 : pr.sent[pr.current].msgs.size();
  }

 private:
  using Slot = std::uint32_t;
  /// No slot, or no queue index.
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();

  /// msgs[p][view]: the messages p's application sent in one view.
  struct SentQueue {
    ViewRef view;
    std::vector<gcs::AppMsg> msgs;
  };

  /// Everything the specification keeps about one process p.
  struct Proc {
    ViewRef view;     ///< current_view[p]
    ViewRef initial;  ///< the initial view v_p
    ViewId floor;     ///< identifier floor preserved across recovery
    /// last_dlvrd[q][p] at index slot(q); missing entries are 0.
    std::vector<std::int64_t> delivered;
    /// msgs[p][v] for each view v in which p sent (or recovered into).
    std::vector<SentQueue> sent;
    /// Index in `sent` of msgs[p][view], or kNone while it is empty.
    std::uint32_t current = kNone;
  };

  auto slot_position(ProcessId p) const {
    return std::ranges::lower_bound(slots_, p, {},
                                    &std::pair<ProcessId, Slot>::first);
  }

  Slot find_slot(ProcessId p) const {
    const auto it = slot_position(p);
    return it != slots_.end() && it->first == p ? it->second : kNone;
  }

  /// p's record, created in p's initial view on first sight.
  Slot slot(ProcessId p) {
    const auto it = slot_position(p);
    if (it != slots_.end() && it->first == p) return it->second;
    const Slot s = static_cast<Slot>(procs_.size());
    slots_.insert(it, {p, s});
    const ViewRef initial = views_.intern(View::initial(p));
    procs_.push_back(Proc{initial, initial, ViewId::zero(), {}, {}, kNone});
    return s;
  }

  static std::int64_t& delivered_at(Proc& pr, Slot q) {
    if (q >= pr.delivered.size()) pr.delivered.resize(q + 1, 0);
    return pr.delivered[q];
  }

  /// msgs[q][v] for the queue owner q, or nullptr while it is empty.
  static const std::vector<gcs::AppMsg>* queue_of(const Proc& owner,
                                                  ViewRef v) {
    if (owner.view == v) {
      return owner.current == kNone ? nullptr
                                    : &owner.sent[owner.current].msgs;
    }
    // An older view of the owner: its queues are in the order it entered
    // them, so the receiver's (usually the previous one) is near the back.
    for (auto it = owner.sent.rbegin(); it != owner.sent.rend(); ++it) {
      if (it->view == v) return &it->msgs;
    }
    return nullptr;
  }

  void check_deliver(const GcsDeliver& e, Slot p, Slot q) const {
    const Proc& receiver = procs_[p];
    const std::vector<gcs::AppMsg>* queue = queue_of(procs_[q], receiver.view);
    const std::int64_t next =
        (q < receiver.delivered.size() ? receiver.delivered[q] : 0) + 1;
    const std::size_t size = queue == nullptr ? 0 : queue->size();
    VSGC_REQUIRE(static_cast<std::size_t>(next) <= size,
                 "WV_RFIFO: " << to_string(e.p) << " delivered from "
                              << to_string(e.q) << " message index " << next
                              << " that was never sent in view "
                              << to_string(views_[receiver.view]));
    VSGC_REQUIRE((*queue)[static_cast<std::size_t>(next - 1)] == e.msg,
                 "WV_RFIFO: delivery mismatch at "
                     << to_string(e.p) << " from " << to_string(e.q)
                     << " index " << next << " (uid " << e.msg.uid << ")");
  }

  // ---- Parent effects ----
  void apply_send(Slot p, const gcs::AppMsg& m) {
    Proc& pr = procs_[p];
    if (pr.current == kNone) {
      pr.current = static_cast<std::uint32_t>(pr.sent.size());
      pr.sent.push_back(SentQueue{pr.view, {}});
    }
    pr.sent[pr.current].msgs.push_back(m);
  }

  void apply_view(Proc& pr, ViewRef to) {
    std::ranges::fill(pr.delivered, 0);
    pr.view = to;
    // msgs[p][to] is empty: check_view admitted `to` only with an id above
    // every view p has been in (above current_view[p] and the recovery
    // floor), so p never sent in it.
    pr.current = kNone;
  }

  void apply_recover(Proc& pr) {
    // Section 8: the algorithm restarts from initial state, but the spec
    // preserves identifier floors for Local Monotonicity; the recovered
    // process's own initial-view queue restarts empty.
    const ViewId& old = views_[pr.view].id;
    if (pr.floor < old) pr.floor = old;
    std::ranges::fill(pr.delivered, 0);
    pr.view = pr.initial;
    pr.current = kNone;
    for (std::uint32_t i = 0; i < pr.sent.size(); ++i) {
      if (pr.sent[i].view != pr.initial) continue;
      pr.sent[i].msgs.clear();
      pr.current = i;
    }
  }

  ViewTable views_;
  /// (p, slot of p), sorted by p: one binary search per lookup.
  std::vector<std::pair<ProcessId, Slot>> slots_;
  std::vector<Proc> procs_;  ///< indexed by slot
};

}  // namespace vsgc::spec
