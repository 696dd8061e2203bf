// Allocation regression tests for the GCS driver loop (DESIGN.md §5).
//
// The end-point re-checks every locally controlled action's precondition
// after each input; a check whose action does not fire must allocate
// nothing. These tests count every global operator new over two whole-stack
// scenarios and bound the count per delivery. The counts are deterministic:
// an execution is a pure function of (code, seed).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "app/world.hpp"

namespace {

bool g_counting = false;
std::uint64_t g_allocs = 0;

}  // namespace

// Counting replacements of the global allocator. Out of line so the
// compiler never pairs an inlined free() with a new-expression.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_counting) ++g_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return operator new(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace vsgc {
namespace {

/// Allocations made while the scope is alive.
class AllocScope {
 public:
  AllocScope() : start_(g_allocs) { g_counting = true; }
  ~AllocScope() { g_counting = false; }
  std::uint64_t count() const { return g_allocs - start_; }

 private:
  std::uint64_t start_;
};

app::WorldConfig quiet_world(int members) {
  app::WorldConfig wc;
  wc.num_clients = members;
  wc.num_servers = 1;
  wc.seed = 1;
  wc.attach_checkers = false;
  wc.record_trace = false;
  return wc;
}

/// Payloads are built up front and moved into send(), so the counted phase
/// copies no test data.
std::vector<std::string> make_payloads(int count) {
  std::vector<std::string> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    out.emplace_back(64, static_cast<char>('a' + i % 26));
  }
  return out;
}

// 8 members in one view, closed loop: every member keeps twice the credit
// window outstanding and issues its next multicast when one of its own
// completes at all members. Before the driver-loop guards stopped
// allocating, this loop made 13.6 allocations per delivery (891,027 over
// 65,536 deliveries); with them, 3.85 (252,051). With the contiguous
// message store and the member table it makes 2.85 (187,091): the map
// nodes of msgs[q][v] are gone.
TEST(GcsAlloc, SteadyStateMulticastAllocatesAtMostThreePerDelivery) {
  constexpr int kMembers = 8;
  constexpr int kPerSender = 1024;
  app::WorldConfig wc = quiet_world(kMembers);
  app::World w(wc);
  w.start();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond));
  const View view = w.process(0).endpoint().current_view();

  std::vector<std::string> payloads = make_payloads(kMembers * kPerSender);
  std::vector<int> issued(kMembers, 0);
  std::vector<int> copies(static_cast<std::size_t>(kMembers) * kPerSender, 0);
  std::uint64_t deliveries = 0;
  std::uint64_t completed = 0;
  const auto issue = [&](int s) {
    int& n = issued[static_cast<std::size_t>(s)];
    if (n == kPerSender) return;
    w.client(s).send(std::move(
        payloads[static_cast<std::size_t>(s * kPerSender + n)]));
    ++n;
  };
  for (int r = 0; r < kMembers; ++r) {
    w.client(r).on_deliver([&](ProcessId from, const gcs::AppMsg& m) {
      ++deliveries;
      const int s = static_cast<int>(from.value) - 1;
      int& c = copies[static_cast<std::size_t>(s) * kPerSender +
                      static_cast<std::size_t>(m.uid - 1)];
      if (++c == kMembers) {
        ++completed;
        issue(s);
      }
    });
  }

  std::uint64_t allocs = 0;
  {
    AllocScope scope;
    const int outstanding =
        static_cast<int>(2 * wc.transport.send_window);
    for (int k = 0; k < outstanding; ++k) {
      for (int s = 0; s < kMembers; ++s) issue(s);
    }
    const sim::Time deadline = w.sim().now() + 60 * sim::kSecond;
    while (completed < std::uint64_t{kMembers} * kPerSender &&
           w.sim().now() < deadline) {
      w.run_for(sim::kMillisecond);
    }
    allocs = scope.count();
  }

  ASSERT_EQ(completed, std::uint64_t{kMembers} * kPerSender);
  ASSERT_EQ(deliveries, std::uint64_t{kMembers} * kMembers * kPerSender);
  EXPECT_EQ(w.process(0).endpoint().current_view(), view)
      << "the loop must run in one view";
  const double per_delivery =
      static_cast<double>(allocs) / static_cast<double>(deliveries);
  EXPECT_LE(per_delivery, 3.0) << allocs << " allocations over " << deliveries
                               << " deliveries";
}

// 16 members; every member has multicasts in flight when the last one
// leaves. Counted from the leave until all 15 remaining members installed
// the new view: sync messages, cuts, the deliveries the agreed cut requires
// and the view installs. Before the driver-loop guards stopped allocating,
// this window made 78,012 allocations; with them, 27,815. The contiguous
// message store and sync sends that copy the view and cut once and build
// their destination node set directly bring it to 24,515. What is left is
// work that fires, mostly storing the 225 received sync messages (each a
// copy of the sender's 16-member view and cut) and the messages and views
// delivered. The bound is that count plus 2%.
TEST(GcsAlloc, ViewChangeUnderTrafficAllocatesAtMostTheRecordedCount) {
  constexpr int kMembers = 16;
  constexpr int kInFlight = 8;  // multicasts per member at the leave
  constexpr std::uint64_t kRecordedAllocs = 24'515;
  app::World w(quiet_world(kMembers));
  w.start();
  ASSERT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond));
  std::set<ProcessId> remaining = w.all_members();
  remaining.erase(w.process(kMembers - 1).id());

  std::vector<std::string> payloads = make_payloads(kMembers * kInFlight);
  std::uint64_t deliveries = 0;
  for (int r = 0; r < kMembers; ++r) {
    w.client(r).on_deliver(
        [&](ProcessId, const gcs::AppMsg&) { ++deliveries; });
  }
  for (int k = 0; k < kInFlight; ++k) {
    for (int s = 0; s < kMembers; ++s) {
      w.client(s).send(
          std::move(payloads[static_cast<std::size_t>(s * kInFlight + k)]));
    }
  }
  w.run_for(sim::kMillisecond / 2);  // on the wire, not yet delivered

  std::uint64_t allocs = 0;
  {
    AllocScope scope;
    w.process(kMembers - 1).leave();
    const sim::Time deadline = w.sim().now() + 10 * sim::kSecond;
    while (!w.converged(remaining) && w.sim().now() < deadline) {
      w.run_for(sim::kMillisecond);
    }
    allocs = scope.count();
  }

  ASSERT_TRUE(w.converged(remaining));
  EXPECT_GT(deliveries, 0u);
  EXPECT_LE(allocs, kRecordedAllocs * 102 / 100)
      << allocs << " allocations over the view change";
}

}  // namespace
}  // namespace vsgc
