// The benchmark's bookkeeping trace sink: per (process, installed view) it
// times the view change (first MbrStartChange after the previous install ->
// GcsView) and the blocked interval (GcsBlock -> GcsView), in sim time.
// Subclasses hear about crashes and recoveries through the hooks.
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "probe.hpp"
#include "spec/events.hpp"

namespace perfbench {

class ViewTimer : public vsgc::spec::TraceSink {
 public:
  ViewTimer(int processes, std::size_t capacity, SpanLog& log)
      : change_open_(static_cast<std::size_t>(processes), -1),
        block_open_(static_cast<std::size_t>(processes), -1),
        log_(log) {
    view_change.reserve(capacity);
    blocked.reserve(capacity);
  }

  void on_event(const vsgc::spec::Event& e) override {
    namespace spec = vsgc::spec;
    Span span(log_, SpanKind::kBenchSink);
    if (const auto* sc = std::get_if<spec::MbrStartChange>(&e.body)) {
      auto& open = change_open_[index(sc->p)];
      if (open < 0) open = e.at;
    } else if (const auto* b = std::get_if<spec::GcsBlock>(&e.body)) {
      auto& open = block_open_[index(b->p)];
      if (open < 0) open = e.at;
    } else if (const auto* v = std::get_if<spec::GcsView>(&e.body)) {
      const std::size_t i = index(v->p);
      close(change_open_[i], view_change, e.at);
      close(block_open_[i], blocked, e.at);
    } else if (const auto* c = std::get_if<spec::Crash>(&e.body)) {
      const std::size_t i = index(c->p);
      change_open_[i] = -1;  // the change is abandoned, not completed
      block_open_[i] = -1;
      on_crash(static_cast<int>(i));
    } else if (const auto* r = std::get_if<spec::Recover>(&e.body)) {
      on_recover(static_cast<int>(index(r->p)));
    }
  }

  std::vector<std::int64_t> view_change;  ///< sim us per installed view
  std::vector<std::int64_t> blocked;      ///< sim us per blocked interval
  std::uint64_t overflow = 0;  ///< samples lost to the reserved capacity

 protected:
  virtual void on_crash(int) {}
  virtual void on_recover(int) {}

 private:
  static std::size_t index(vsgc::ProcessId p) { return p.value - 1; }

  /// Appends only within the reserved capacity, so the sink never allocates.
  void close(std::int64_t& open, std::vector<std::int64_t>& out,
             std::int64_t at) {
    if (open >= 0) {
      if (out.size() < out.capacity()) out.push_back(at - open);
      else ++overflow;
    }
    open = -1;
  }

  std::vector<std::int64_t> change_open_;
  std::vector<std::int64_t> block_open_;
  SpanLog& log_;
};

}  // namespace perfbench
