// Reference event kernel: the original std::priority_queue implementation
// that sim::Simulator's slab-arena kernel replaced. Every event costs two
// heap allocations (a shared_ptr<bool> liveness flag and a type-erased
// std::function) and sits in a binary heap ordered by (when, seq).
//
// It is kept as an oracle, not for use by the protocol stack:
// tests/kernel_identity_test.cpp checks that the optimized kernel fires
// events in exactly this kernel's order (with and without a NondetSource),
// and bench/bench_simperf.cpp measures the optimized kernel's speedup over
// it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "sim/nondet.hpp"
#include "sim/time.hpp"

namespace vsgc::sim {

class ReferenceTimerHandle {
 public:
  ReferenceTimerHandle() = default;
  explicit ReferenceTimerHandle(std::weak_ptr<bool> alive)
      : alive_(std::move(alive)) {}

  void cancel() {
    if (auto alive = alive_.lock()) *alive = false;
  }
  bool pending() const {
    auto alive = alive_.lock();
    return alive && *alive;
  }

 private:
  std::weak_ptr<bool> alive_;
};

class ReferenceSimulator {
 public:
  struct Stats {
    std::uint64_t events_scheduled = 0;
    std::uint64_t events_executed = 0;
    std::uint64_t events_cancelled = 0;
    std::size_t peak_queue_depth = 0;
  };

  Time now() const { return now_; }
  const Stats& stats() const { return stats_; }
  void set_nondet(NondetSource* source) { nondet_ = source; }

  ReferenceTimerHandle schedule(Time delay, std::function<void()> fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  ReferenceTimerHandle schedule_at(Time when, std::function<void()> fn) {
    auto alive = std::make_shared<bool>(true);
    queue_.push(Event{when, next_seq_++, alive, std::move(fn)});
    ++stats_.events_scheduled;
    if (queue_.size() > stats_.peak_queue_depth) {
      stats_.peak_queue_depth = queue_.size();
    }
    return ReferenceTimerHandle(alive);
  }

  std::size_t run_to_quiescence() {
    std::size_t executed = 0;
    while (!queue_.empty()) executed += step();
    return executed;
  }

  std::size_t run_until(Time deadline) {
    std::size_t executed = 0;
    while (!queue_.empty() && queue_.top().when <= deadline) {
      executed += step();
    }
    if (now_ < deadline) now_ = deadline;
    return executed;
  }

 private:
  struct Event {
    Time when;
    std::uint64_t seq;
    std::shared_ptr<bool> alive;
    std::function<void()> fn;

    bool operator>(const Event& other) const {
      if (when != other.when) return when > other.when;
      return seq > other.seq;
    }
  };

  Event pop_next() {
    Event ev = queue_.top();
    queue_.pop();
    if (nondet_ == nullptr || !*ev.alive) return ev;
    std::vector<Event> batch;
    batch.push_back(std::move(ev));
    while (!queue_.empty() && queue_.top().when == batch.front().when) {
      Event peer = queue_.top();
      queue_.pop();
      if (!*peer.alive) {
        ++stats_.events_cancelled;
        continue;
      }
      batch.push_back(std::move(peer));
    }
    std::size_t pick = 0;
    if (batch.size() > 1) {
      pick = nondet_->choose("sim.tiebreak", batch.size());
      if (pick >= batch.size()) pick = batch.size() - 1;
    }
    Event chosen = std::move(batch[pick]);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (i != pick) queue_.push(std::move(batch[i]));
    }
    return chosen;
  }

  std::size_t step() {
    Event ev = pop_next();
    now_ = ev.when > now_ ? ev.when : now_;
    if (!*ev.alive) {
      ++stats_.events_cancelled;
      return 0;
    }
    *ev.alive = false;
    ev.fn();
    ++stats_.events_executed;
    return 1;
  }

  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  Stats stats_;
  NondetSource* nondet_ = nullptr;
};

}  // namespace vsgc::sim
