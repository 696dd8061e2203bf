// Kernel identity harness: the optimized slab-arena kernel must produce the
// exact execution order of the original std::priority_queue kernel on every
// workload. The reference kernel (sim/reference_kernel.hpp) runs the same
// randomized self-scheduling/cancelling workload as sim::Simulator, with and
// without a scripted NondetSource, and the full firing sequences and kernel
// stats are compared element by element.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/nondet.hpp"
#include "sim/reference_kernel.hpp"
#include "sim/simulator.hpp"

namespace vsgc::sim {
namespace {

// --- Scripted nondeterminism: a deterministic non-default chooser ----------

class ScriptedNondet : public NondetSource {
 public:
  std::size_t choose(const char* /*kind*/, std::size_t n) override {
    ++calls_;
    return (calls_ * 7919u) % n;  // deterministic, frequently non-zero
  }

 private:
  std::size_t calls_ = 0;
};

// --- Randomized workload, identical for both kernels -----------------------
//
// Every decision (child count, delays, cancellations) comes from one LCG
// advanced inside handlers; the streams stay aligned exactly as long as the
// two kernels fire events in the same order, so any ordering divergence
// cascades into a visible trace mismatch.

struct WorkloadTrace {
  std::vector<std::pair<Time, int>> fired;
  std::uint64_t scheduled = 0;
  std::uint64_t executed = 0;
  std::uint64_t cancelled = 0;
  std::size_t peak_depth = 0;

  bool operator==(const WorkloadTrace&) const = default;
};

template <typename SimT, typename HandleT>
class Driver {
 public:
  WorkloadTrace run(std::uint64_t seed, NondetSource* nondet, int budget) {
    budget_ = budget;
    rng_ = seed * 2 + 1;
    if (nondet != nullptr) sim_.set_nondet(nondet);
    for (int i = 0; i < 5; ++i) {
      spawn(static_cast<Time>(next() % 4));
    }
    sim_.run_to_quiescence();
    trace_.scheduled = sim_.stats().events_scheduled;
    trace_.executed = sim_.stats().events_executed;
    trace_.cancelled = sim_.stats().events_cancelled;
    trace_.peak_depth = sim_.stats().peak_queue_depth;
    return trace_;
  }

 private:
  std::uint64_t next() {
    rng_ = rng_ * 6364136223846793005ull + 1442695040888963407ull;
    return rng_ >> 33;
  }

  void spawn(Time delay) {
    const int id = next_id_++;
    handles_.push_back(sim_.schedule(delay, [this, id] { fire(id); }));
  }

  void fire(int id) {
    trace_.fired.emplace_back(sim_.now(), id);
    if ((next() & 7u) == 0 && !handles_.empty()) {
      handles_[next() % handles_.size()].cancel();
    }
    // 1-2 children per firing (supercritical) so the workload runs until
    // the budget caps spawning, instead of going extinct early.
    const int kids = static_cast<int>(1 + next() % 2);
    for (int k = 0; k < kids && next_id_ < budget_; ++k) {
      // Small delays (0-3) force frequent same-timestamp ties, the hardest
      // ordering case and the one the NondetSource hooks into.
      spawn(static_cast<Time>(next() % 4));
    }
  }

  SimT sim_;
  WorkloadTrace trace_;
  std::vector<HandleT> handles_;
  std::uint64_t rng_ = 0;
  int next_id_ = 0;
  int budget_ = 0;
};

void expect_identical(std::uint64_t seed, bool with_nondet) {
  ScriptedNondet ref_nd, new_nd;
  Driver<ReferenceSimulator, ReferenceTimerHandle> ref;
  Driver<Simulator, TimerHandle> opt;
  const WorkloadTrace a =
      ref.run(seed, with_nondet ? &ref_nd : nullptr, 2000);
  const WorkloadTrace b =
      opt.run(seed, with_nondet ? &new_nd : nullptr, 2000);
  ASSERT_EQ(a.fired.size(), b.fired.size()) << "seed " << seed;
  for (std::size_t i = 0; i < a.fired.size(); ++i) {
    ASSERT_EQ(a.fired[i], b.fired[i])
        << "seed " << seed << " diverged at firing " << i;
  }
  EXPECT_EQ(a, b) << "stats diverged for seed " << seed;
  EXPECT_GT(a.executed, 100u) << "workload too small to be meaningful";
}

TEST(KernelIdentity, MatchesReferenceKernelAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    expect_identical(seed, /*with_nondet=*/false);
  }
}

TEST(KernelIdentity, MatchesReferenceKernelUnderScriptedNondet) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    expect_identical(seed, /*with_nondet=*/true);
  }
}

}  // namespace
}  // namespace vsgc::sim
