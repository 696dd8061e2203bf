#include "gcs/wv_rfifo_endpoint.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/logging.hpp"

namespace vsgc::gcs {

WvRfifoEndpoint::WvRfifoEndpoint(sim::Simulator& sim,
                                 transport::Channel transport,
                                 ProcessId self, spec::TraceBus* trace)
    : sim_(sim),
      transport_(transport),
      self_(self),
      trace_(trace),
      mbrshp_view_(View::initial(self)) {
  install_view(View::initial(self));
  assign_reliable({self});
}

void WvRfifoEndpoint::install_view(View v) {
  current_view_ = std::move(v);
  reliable_inputs_changed();
  view_dests_ = nodes_of(current_view_.members, /*exclude_self=*/true);
  own_view_msg_current_ = view_msg_of(self_) == current_view_;
  // Garbage collection (Section 5.1 note): buffers of other views are dead —
  // delivery only ever reads the current view's buffers from here on.
  for (auto& [q, per_view] : msgs_) {
    std::erase_if(per_view, [&](const auto& entry) {
      return entry.first != current_view_.id;
    });
  }
  rows_.clear();
  for (ProcessId q : current_view_.members) {
    if (q == self_) self_row_ = rows_.size();
    rows_.push_back(MemberRow{q, nullptr});
  }
  bind_rows();
}

void WvRfifoEndpoint::bind_rows() {
  for (MemberRow& row : rows_) {
    row.buffer = &msgs_[row.id][current_view_.id];
  }
}

void WvRfifoEndpoint::corrupt_view_epoch(std::uint64_t epoch) {
  if (crashed_) return;
  // Members unchanged: view_dests_ and the rows' members and last_dlvrd
  // hold; the rows now read the corrupted view's (empty) buffers.
  current_view_.id.epoch = epoch;
  own_view_msg_current_ = view_msg_of(self_) == current_view_;
  bind_rows();
}

void WvRfifoEndpoint::assign_reliable(std::set<ProcessId> set) {
  reliable_set_ = std::move(set);
  reliable_nodes_ = nodes_of(reliable_set_, /*exclude_self=*/false);
}

void WvRfifoEndpoint::emit(spec::EventBody body) {
  if (trace_ != nullptr) trace_->emit(sim_.now(), std::move(body));
}

const WvRfifoEndpoint::MemberRow* WvRfifoEndpoint::member_row(
    ProcessId q) const {
  // rows_ is in members order, so sorted by id.
  auto it = std::ranges::lower_bound(rows_, q, {}, &MemberRow::id);
  return it == rows_.end() || it->id != q ? nullptr : &*it;
}

const FifoBuffer& WvRfifoEndpoint::buffer(ProcessId q, ViewId v) const {
  static const FifoBuffer kEmpty;
  auto itq = msgs_.find(q);
  if (itq == msgs_.end()) return kEmpty;
  auto itv = itq->second.find(v);
  return itv == itq->second.end() ? kEmpty : itv->second;
}

FifoBuffer& WvRfifoEndpoint::buffer_mut(ProcessId q, ViewId v) {
  return msgs_[q][v];
}

const View& WvRfifoEndpoint::view_msg_of(ProcessId q) const {
  auto it = view_msg_.find(q);
  if (it != view_msg_.end()) return it->second;
  // Initial value: every end-point starts in its own singleton view v_q.
  static thread_local std::map<ProcessId, View> initials;
  auto [init, inserted] = initials.try_emplace(q, View::initial(q));
  return init->second;
}

std::set<net::NodeId> WvRfifoEndpoint::nodes_of(
    const std::set<ProcessId>& procs, bool exclude_self) const {
  std::set<net::NodeId> out;
  for (ProcessId q : procs) {
    if (exclude_self && q == self_) continue;
    out.insert(net::node_of(q));
  }
  return out;
}

// --------------------------------------------------------------------------
// Inputs
// --------------------------------------------------------------------------

AppMsg WvRfifoEndpoint::send(std::string payload) {
  AppMsg m{self_, ++uid_counter_, std::move(payload)};
  if (crashed_) return m;
  rows_[self_row_].buffer->append(m);
  ++stats_.sent;
  emit(spec::GcsSend{self_, m});
  pump();
  return m;
}

void WvRfifoEndpoint::on_start_change(StartChangeId cid,
                                      const std::set<ProcessId>& set) {
  if (crashed_) return;
  emit(spec::MbrStartChange{self_, cid, set});
  // The WV_RFIFO parent ignores start_change notifications; VsRfifoTsEndpoint
  // overrides run_child_tasks()/state through handle_start_change().
  handle_start_change(cid, set);
  pump();
}

void WvRfifoEndpoint::on_view(const View& v) {
  if (crashed_) return;
  emit(spec::MbrView{self_, v});
  mbrshp_view_ = v;
  pump();
}

bool WvRfifoEndpoint::on_co_rfifo_deliver(ProcessId from,
                                          const std::any& payload) {
  if (crashed_) return false;

  if (const auto* vm = std::any_cast<wire::ViewMsg>(&payload)) {
    view_msg_[from] = vm->view;
    if (from == self_) own_view_msg_current_ = vm->view == current_view_;
    last_rcvd_[from] = 0;
    pump();
    return true;
  }

  if (const auto* am = std::any_cast<wire::AppMsgWire>(&payload)) {
    std::int64_t& last_rcvd = last_rcvd_[from];
    const ViewId view = view_msg_of(from).id;
    const MemberRow* row =
        view == current_view_.id ? member_row(from) : nullptr;
    (row != nullptr ? *row->buffer : buffer_mut(from, view))
        .put(++last_rcvd, am->msg);
    if (lifecycle_on()) {
      emit(spec::MsgRecv{self_, from, am->msg.sender, am->msg.uid, false});
    }
    pump();
    return true;
  }

  if (const auto* fm = std::any_cast<wire::FwdMsg>(&payload)) {
    buffer_mut(fm->orig, fm->view.id).put(fm->index, fm->msg);
    if (lifecycle_on()) {
      emit(spec::MsgRecv{self_, from, fm->msg.sender, fm->msg.uid, true});
    }
    pump();
    return true;
  }

  if (handle_child_message(from, payload)) {
    pump();
    return true;
  }
  return false;
}

// --------------------------------------------------------------------------
// Driver loop over locally controlled actions
// --------------------------------------------------------------------------

void WvRfifoEndpoint::pump() {
  if (batch_depth_ > 0) {
    // Mid-frame: absorb the rest of the batch first; end_delivery_batch()
    // runs the deferred pump once.
    pump_deferred_ = true;
    return;
  }
  if (pumping_) {
    // Re-entrant call (a client callback sent a message mid-delivery): let
    // the outer loop pick up the new work.
    pump_again_ = true;
    return;
  }
  pumping_ = true;
  bool progress = true;
  while (progress && !crashed_) {
    progress = false;
    pump_again_ = false;
    progress |= try_set_reliable();
    progress |= try_send_view_msg();
    progress |= try_send_app_msgs();
    progress |= try_deliver_app_msgs();
    progress |= run_child_tasks();
    progress |= try_deliver_view();
    progress |= pump_again_;
  }
  pumping_ = false;
}

bool WvRfifoEndpoint::try_set_reliable() {
  // co_rfifo.reliable_p(set). Parent precondition: current_view.set ⊆ set;
  // the concrete set is chosen by the child hook (VS: ∪ start_change.set).
  if (desired_stale_) {
    desired_stale_ = false;
    desired_.clear();
    desired_.push_back(self_);
    desired_reliable_set(desired_);
    std::ranges::sort(desired_);
    desired_.erase(std::unique(desired_.begin(), desired_.end()),
                   desired_.end());
  }
  // Compare against the transport's set as well as our mirror: a corrupted
  // transport reliable_set (sim::FaultOp::kCorruptReliable) silently stops
  // retransmission toward the dropped peer, and only this re-assertion path
  // heals it (DESIGN.md §12). Honest runs never diverge — the extra check
  // costs one set comparison per pump and never fires.
  if (std::ranges::equal(desired_, reliable_set_) &&
      transport_.reliable_matches(reliable_nodes_)) {
    return false;
  }
  VSGC_REQUIRE(std::includes(desired_.begin(), desired_.end(),
                             current_view_.members.begin(),
                             current_view_.members.end()),
               "reliable set must cover the current view at "
                   << to_string(self_));
  assign_reliable({desired_.begin(), desired_.end()});
  transport_.set_reliable(reliable_nodes_);
  return true;
}

bool WvRfifoEndpoint::try_send_view_msg() {
  // co_rfifo.send_p(set, tag=view_msg, v)
  if (own_view_msg_current_) return false;
  if (!std::includes(reliable_set_.begin(), reliable_set_.end(),
                     current_view_.members.begin(),
                     current_view_.members.end())) {
    return false;
  }
  wire::ViewMsg vm{current_view_};
  transport_.send(view_dests_, net::Payload(vm), encoded_size(vm));
  view_msg_[self_] = current_view_;
  own_view_msg_current_ = true;
  ++stats_.view_msgs_sent;
  return true;
}

bool WvRfifoEndpoint::try_send_app_msgs() {
  // co_rfifo.send_p(set, tag=app_msg, m)
  if (!own_view_msg_current_) return false;
  bool progress = false;
  const FifoBuffer& own = *rows_[self_row_].buffer;
  while (const AppMsg* m = own.get(last_sent_ + 1)) {
    wire::AppMsgWire am{*m};
    transport_.send(view_dests_, net::Payload(am), encoded_size(am));
    ++last_sent_;
    if (lifecycle_on()) emit(spec::MsgWireSend{self_, m->sender, m->uid});
    progress = true;
  }
  return progress;
}

bool WvRfifoEndpoint::try_deliver_app_msgs() {
  // deliver_p(q, m), round-robin over the member table: one message per
  // member per round.
  bool progress = false;
  bool any = true;
  while (any && !crashed_) {
    any = false;
    for (std::size_t k = 0; k < rows_.size(); ++k) {
      MemberRow& row = rows_[k];
      const std::int64_t next = row.last_dlvrd + 1;
      const AppMsg* m = row.buffer->get(next);
      if (m == nullptr) continue;
      const bool own = k == self_row_;
      if (own && !(row.last_dlvrd < last_sent_)) continue;
      if (!deliver_allowed(row.id, next)) continue;
      row.last_dlvrd = next;
      ++stats_.delivered;
      emit(spec::GcsDeliver{self_, row.id, *m});
      if (client_ != nullptr && own) {
        // The client may send() from the callback, which appends to this
        // very buffer and may move its storage. Deliver from a local the
        // message is moved into and back out of (no copy); nothing reads
        // the slot meanwhile, as a nested pump() only defers.
        AppMsg held = std::move(*row.buffer->get(next));
        client_->deliver(row.id, held);
        if (AppMsg* slot = rows_[self_row_].buffer->get(next)) {
          *slot = std::move(held);
        }
      } else if (client_ != nullptr) {
        client_->deliver(row.id, *m);
      }
      any = true;
      progress = true;
      if (crashed_) return progress;
    }
  }
  return progress;
}

bool WvRfifoEndpoint::try_deliver_view() {
  // view_p(v, T). The candidate is checked by reference; a closed gate
  // copies nothing.
  const View& candidate = next_view_candidate();
  if (!(current_view_.id < candidate.id)) return false;
  VSGC_REQUIRE(candidate.contains(self_),
               "MBRSHP violated Self Inclusion at " << to_string(self_));
  std::set<ProcessId> transitional;
  if (!view_gate(candidate, transitional)) return false;

  // Copy before the effects: the child's may consume the candidate's source.
  View v = candidate;
  // Child effects first, then parent effects (one atomic step).
  pre_view_effects(v);

  install_view(std::move(v));
  last_sent_ = 0;

  ++stats_.views_delivered;
  emit(spec::GcsView{self_, current_view_, transitional});
  if (client_ != nullptr) client_->view(current_view_, transitional);
  return true;
}

// --------------------------------------------------------------------------
// Crash / recovery (Section 8)
// --------------------------------------------------------------------------

void WvRfifoEndpoint::crash() {
  if (crashed_) return;
  crashed_ = true;
  emit(spec::Crash{self_});
}

void WvRfifoEndpoint::recover() {
  VSGC_REQUIRE(crashed_, "recover() without crash at " << to_string(self_));
  // Reset to initial values — no stable storage. uid_counter_ survives as a
  // history variable (proof artifact only; see DESIGN.md).
  view_msg_.clear();
  msgs_.clear();
  install_view(View::initial(self_));
  mbrshp_view_ = View::initial(self_);
  last_sent_ = 0;
  last_rcvd_.clear();
  assign_reliable({self_});
  reset_child_state();
  crashed_ = false;
  emit(spec::Recover{self_});
  pump();
}

}  // namespace vsgc::gcs
