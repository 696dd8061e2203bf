#include "baseline/two_round_endpoint.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace vsgc::baseline {

TwoRoundEndpoint::TwoRoundEndpoint(sim::Simulator& sim,
                                   transport::CoRfifoTransport& transport,
                                   ProcessId self, spec::TraceBus* trace)
    : gcs::WvRfifoEndpoint(sim, transport, self, trace) {}

void TwoRoundEndpoint::block_ok() {
  if (crashed_) return;
  block_status_ = BlockStatus::kBlocked;
  emit(spec::GcsBlockOk{self_});
  pump();
}

void TwoRoundEndpoint::handle_start_change(StartChangeId cid,
                                           const std::set<ProcessId>& set) {
  (void)cid;
  (void)set;
  // The baseline cannot use the locally-unique cid for synchronization; the
  // notification only tells it to block the application.
  start_change_seen_ = true;
}

void TwoRoundEndpoint::on_view(const View& v) {
  if (crashed_) return;
  pending_.push_back(v);
  reliable_inputs_changed();
  prune_pending();
  gcs::WvRfifoEndpoint::on_view(v);
}

void TwoRoundEndpoint::prune_pending() {
  // Classic behaviour the paper criticizes: once an invocation has started,
  // it runs to termination even when a newer view is already known — so
  // obsolete views reach the application. A queued view is abandoned only
  // when a later view excludes one of its participants (that participant is
  // gone; its agree/cut would never arrive and liveness would be lost).
  while (pending_.size() > 1) {
    const View& front = pending_.front();
    const bool excluded_later = !all_participants(
        front, [&](ProcessId q) { return pending_.back().contains(q); });
    if (!excluded_later) break;  // run to termination
    agrees_.erase(front.id);
    syncs_.erase(front.id);
    agree_sent_.erase(front.id);
    sync_sent_.erase(front.id);
    ++baseline_stats_.views_abandoned;
    pending_.pop_front();
    reliable_inputs_changed();
  }
  // Drop queued views the installed view already supersedes.
  while (!pending_.empty() && !(current_view_.id < pending_.front().id)) {
    pending_.pop_front();
    reliable_inputs_changed();
  }
}

const View& TwoRoundEndpoint::next_view_candidate() const {
  return pending_.empty() ? current_view_ : pending_.front();
}

bool TwoRoundEndpoint::agree_complete(const View& target) const {
  auto it = agrees_.find(target.id);
  if (it == agrees_.end()) return false;
  return all_participants(
      target, [&](ProcessId q) { return it->second.contains(q); });
}

const gcs::SyncMsgData* TwoRoundEndpoint::sync_of(ViewId target,
                                                  ProcessId q) const {
  auto it = syncs_.find(target);
  if (it == syncs_.end()) return nullptr;
  auto itq = it->second.find(q);
  return itq == it->second.end() ? nullptr : &itq->second;
}

bool TwoRoundEndpoint::gather_transitional(const View& target) {
  t_.clear();
  if (!all_participants(target, [&](ProcessId q) {
        return sync_of(target.id, q) != nullptr;
      })) {
    return false;
  }
  for (ProcessId q : target.members) {
    if (!current_view_.contains(q)) continue;
    const gcs::SyncMsgData* sm = sync_of(target.id, q);
    if (sm->view == current_view_) t_.emplace_back(q, sm);
  }
  return true;
}

void TwoRoundEndpoint::desired_reliable_set(std::vector<ProcessId>& out) const {
  gcs::WvRfifoEndpoint::desired_reliable_set(out);
  for (const View& v : pending_) {
    out.insert(out.end(), v.members.begin(), v.members.end());
  }
}

// --------------------------------------------------------------------------
// Locally controlled actions
// --------------------------------------------------------------------------

bool TwoRoundEndpoint::run_child_tasks() {
  bool progress = try_block();
  progress |= try_send_agree();
  progress |= try_send_sync();
  progress |= try_forward();
  return progress;
}

bool TwoRoundEndpoint::try_block() {
  if (block_status_ != BlockStatus::kUnblocked) return false;
  if (!start_change_seen_ && pending_.empty()) return false;
  block_status_ = BlockStatus::kRequested;
  emit(spec::GcsBlock{self_});
  if (client_ != nullptr) client_->block();
  return true;
}

bool TwoRoundEndpoint::try_send_agree() {
  // Round 1: confirm the globally unique identifier (the view id) with every
  // participant. This is the round the paper's algorithm eliminates.
  if (pending_.empty()) return false;
  const View& target = pending_.front();
  if (agree_sent_.contains(target.id)) return false;
  if (!std::includes(reliable_set_.begin(), reliable_set_.end(),
                     target.members.begin(), target.members.end())) {
    return false;
  }
  wire::AgreeMsg am{target.id};
  transport_.send(nodes_of(target.members, /*exclude_self=*/true),
                  net::Payload(am), encoded_size(am));
  agree_sent_.insert(target.id);
  agrees_[target.id].insert(self_);
  baseline_stats_.agrees_sent += target.members.size() - 1;  // per-dest copies
  return true;
}

bool TwoRoundEndpoint::try_send_sync() {
  // Round 2: cut exchange, only after round 1 completed and the client is
  // blocked (Self Delivery).
  if (pending_.empty()) return false;
  const View& target = pending_.front();
  if (sync_sent_.contains(target.id)) return false;
  if (!agree_complete(target)) return false;
  if (block_status_ != BlockStatus::kBlocked) return false;

  gcs::SyncMsgData data;
  data.view = current_view_;
  for (const MemberRow& row : member_rows()) {
    data.cut.emplace_hint(data.cut.end(), row.id,
                          row.buffer->longest_prefix());
  }
  wire::SyncMsg sm{target.id, data.view, data.cut};
  transport_.send(nodes_of(target.members, /*exclude_self=*/true),
                  net::Payload(sm), encoded_size(sm));
  syncs_[target.id][self_] = data;
  sync_sent_.insert(target.id);
  baseline_stats_.sync_msgs_sent += target.members.size() - 1;  // per-dest
  return true;
}

bool TwoRoundEndpoint::handle_child_message(ProcessId from,
                                            const std::any& payload) {
  if (const auto* am = std::any_cast<wire::AgreeMsg>(&payload)) {
    agrees_[am->target].insert(from);
    return true;
  }
  if (const auto* sm = std::any_cast<wire::SyncMsg>(&payload)) {
    syncs_[sm->target][from] = gcs::SyncMsgData{sm->view, sm->cut};
    return true;
  }
  return false;
}

bool TwoRoundEndpoint::deliver_allowed(ProcessId q,
                                       std::int64_t next_index) const {
  if (pending_.empty()) return true;
  const View& target = pending_.front();
  const gcs::SyncMsgData* own = sync_of(target.id, self_);
  if (own == nullptr) return true;  // cut not committed yet

  // After committing, deliver up to the max cut over the (partially known)
  // transitional set; fall back to our own cut until peers' cuts arrive.
  std::int64_t limit = own->cut_of(q);
  for (ProcessId r : target.members) {
    if (!current_view_.contains(r)) continue;
    const gcs::SyncMsgData* sm = sync_of(target.id, r);
    if (sm != nullptr && sm->view == current_view_) {
      limit = std::max(limit, sm->cut_of(q));
    }
  }
  return next_index <= limit;
}

bool TwoRoundEndpoint::view_gate(const View& v,
                                 std::set<ProcessId>& transitional) {
  if (pending_.empty() || !(pending_.front() == v)) return false;
  if (!gather_transitional(v)) return false;
  for (const MemberRow& row : member_rows()) {
    std::int64_t agreed = 0;
    for (const auto& [r, sm] : t_) {
      agreed = std::max(agreed, sm->cut_of(row.id));
    }
    if (row.last_dlvrd != agreed) return false;
  }
  for (const auto& [r, sm] : t_) transitional.insert(r);
  return true;
}

bool TwoRoundEndpoint::try_forward() {
  // Min-copies style forwarding keyed on the agreed identifier: once every
  // participant's cut is known, the lowest-id holder of a missing message
  // from a non-transitional sender forwards it.
  if (pending_.empty()) return false;
  const View& target = pending_.front();
  if (!gather_transitional(target)) return false;
  const auto in_t = [&](ProcessId r) {
    return std::ranges::any_of(
        t_, [r](const auto& entry) { return entry.first == r; });
  };
  if (!in_t(self_)) return false;

  bool progress = false;
  for (ProcessId r : current_view_.members) {
    if (in_t(r)) continue;
    std::int64_t max_committed = 0;
    for (const auto& [u, sm] : t_) {
      max_committed = std::max(max_committed, sm->cut_of(r));
    }
    for (std::int64_t i = 1; i <= max_committed; ++i) {
      // The min-id holder (t_ is ascending) forwards to every member of T
      // missing message i that has no copy from us yet.
      std::optional<ProcessId> forwarder;
      bool fresh_left = false;
      for (const auto& [u, sm] : t_) {
        if (sm->cut_of(r) < i) {
          fresh_left = fresh_left ||
                       !forwarded_set_.contains({u, r, current_view_.id, i});
        } else if (!forwarder) {
          forwarder = u;
        }
      }
      if (!fresh_left || forwarder != self_) continue;
      const gcs::AppMsg* m = buffer(r, current_view_.id).get(i);
      if (m == nullptr) continue;
      std::set<ProcessId> fresh;
      for (const auto& [u, sm] : t_) {
        if (sm->cut_of(r) < i &&
            forwarded_set_.emplace(u, r, current_view_.id, i).second) {
          fresh.insert(u);
        }
      }
      gcs::wire::FwdMsg fm{r, current_view_, i, *m};
      transport_.send(nodes_of(fresh, /*exclude_self=*/true), net::Payload(fm),
                      encoded_size(fm));
      baseline_stats_.forwards_sent += fresh.size();
      progress = true;
    }
  }
  return progress;
}

void TwoRoundEndpoint::pre_view_effects(const View& v) {
  if (pending_.size() > 1 || mbrshp_view_.id > v.id) {
    ++baseline_stats_.obsolete_views_delivered;
  }
  VSGC_REQUIRE(!pending_.empty() && pending_.front() == v,
               "baseline installed a view it was not processing");
  pending_.pop_front();
  reliable_inputs_changed();
  agrees_.erase(v.id);
  syncs_.erase(v.id);
  agree_sent_.erase(v.id);
  sync_sent_.erase(v.id);
  forwarded_set_.clear();
  start_change_seen_ = false;
  block_status_ = BlockStatus::kUnblocked;
}

void TwoRoundEndpoint::reset_child_state() {
  pending_.clear();
  reliable_inputs_changed();
  agrees_.clear();
  syncs_.clear();
  agree_sent_.clear();
  sync_sent_.clear();
  forwarded_set_.clear();
  start_change_seen_ = false;
  block_status_ = BlockStatus::kUnblocked;
}

}  // namespace vsgc::baseline
