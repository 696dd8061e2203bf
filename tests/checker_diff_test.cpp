// Differential test for the interned-view WV_RFIFO / VS_RFIFO / SELF and
// TRANS_SET checkers (DESIGN.md §5): each is fed the same event stream as the
// map-keyed automaton it replaced (tests/helpers/map_checkers.hpp), and the
// two must reach the same verdict on every event — both accept, or both
// reject with the same message. The streams are recorded churn executions
// (with and without two-tier sync routing) and seeded mutations of them
// that plant the violations the checkers exist to catch.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "app/world.hpp"
#include "helpers/map_checkers.hpp"
#include "sim/failure_injector.hpp"
#include "spec/all_checkers.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace vsgc::spec {
namespace {

using Trace = std::vector<Event>;

/// The checker's message for the violation `event` raises, or nullopt.
template <typename Checker>
std::optional<std::string> verdict(Checker& c, const Event& event) {
  try {
    c.on_event(event);
  } catch (const InvariantViolation& e) {
    // Drop the "invariant violated: <expr> at <file>:<line>" prefix: the
    // two implementations differ there, not in what they report.
    const std::string what = e.what();
    const std::size_t sep = what.find(" — ");
    return sep == std::string::npos ? what : what.substr(sep);
  }
  return std::nullopt;
}

/// Feeds `trace` to a fresh New and a fresh Old checker, requiring equal
/// verdicts event by event; returns how many events both rejected.
template <typename New, typename Old>
int expect_same_verdicts(const Trace& trace, const std::string& label) {
  New fresh;
  Old oracle;
  int rejected = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const std::optional<std::string> got = verdict(fresh, trace[i]);
    const std::optional<std::string> want = verdict(oracle, trace[i]);
    EXPECT_EQ(got, want) << label << ": event " << i << " of "
                         << trace.size();
    if (got != want) return rejected;  // the states may differ from here on
    if (got) ++rejected;
  }
  return rejected;
}

/// TRANS_SET: the same per-event verdicts, then the same number of
/// recorded transitions and the same finalize() verdict.
int expect_trans_set_agrees(const Trace& trace, const std::string& label) {
  TransSetChecker fresh;
  testing::MapTransSetChecker oracle;
  int rejected = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const std::optional<std::string> got = verdict(fresh, trace[i]);
    const std::optional<std::string> want = verdict(oracle, trace[i]);
    EXPECT_EQ(got, want) << label << " trans_set: event " << i;
    if (got != want) return rejected;
    if (got) ++rejected;
  }
  EXPECT_EQ(fresh.transitions_recorded(), oracle.transitions_recorded())
      << label;
  const auto finalized = [](const auto& c) -> std::optional<std::string> {
    try {
      c.finalize();
    } catch (const InvariantViolation& e) {
      const std::string what = e.what();
      return what.substr(what.find(" — "));
    }
    return std::nullopt;
  };
  const std::optional<std::string> got = finalized(fresh);
  EXPECT_EQ(got, finalized(oracle)) << label << " trans_set finalize";
  return rejected + (got ? 1 : 0);
}

/// Rejections summed over the WV-family pairs and TRANS_SET.
int expect_family_agrees(const Trace& trace, const std::string& label) {
  return expect_same_verdicts<WvRfifoChecker, testing::MapWvRfifoChecker>(
             trace, label + " wv_rfifo") +
         expect_same_verdicts<VsRfifoChecker, testing::MapVsRfifoChecker>(
             trace, label + " vs_rfifo") +
         expect_same_verdicts<SelfChecker, testing::MapSelfChecker>(
             trace, label + " self") +
         expect_trans_set_agrees(trace, label);
}

/// One churn execution's recorded trace, run as the churn property tests
/// run it: converge, churn, stabilize, reconverge, probe.
Trace churn_trace(std::uint64_t seed, bool two_tier) {
  app::WorldConfig cfg;
  cfg.num_clients = 5;
  cfg.num_servers = 2;
  cfg.seed = seed;
  if (two_tier) {
    cfg.sync_routing.mode = gcs::SyncRouting::Mode::kTwoTier;
    for (std::uint32_t i = 1; i <= 5; ++i) {
      cfg.sync_routing.leader_of[ProcessId{i}] = ProcessId{i <= 3 ? 1u : 4u};
    }
  }
  app::World w(cfg);
  w.start();
  EXPECT_TRUE(w.run_until_converged(w.all_members(), 10 * sim::kSecond));
  sim::FailureInjector injector(w.fault_target(), {}, seed);
  injector.run_churn();
  injector.stabilize();
  EXPECT_TRUE(w.run_until_converged(w.all_members(), 60 * sim::kSecond));
  w.client(0).send("final-probe");
  w.run_for(3 * sim::kSecond);
  return w.trace().recorded();
}

template <typename Body>
std::vector<std::size_t> indices_of(const Trace& t) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (std::holds_alternative<Body>(t[i].body)) out.push_back(i);
  }
  return out;
}

ProcessId receiver(const Event& e) { return std::get<GcsDeliver>(e.body).p; }

/// Index of the first GcsView of `p` after `from`, if any.
std::optional<std::size_t> next_view_of(const Trace& t, std::size_t from,
                                        ProcessId p) {
  for (std::size_t j = from + 1; j < t.size(); ++j) {
    const auto* v = std::get_if<GcsView>(&t[j].body);
    if (v != nullptr && v->p == p) return j;
  }
  return std::nullopt;
}

enum class Mutation { kDrop, kSwap, kDuplicate, kCrossView, kRegressView };

/// `t` with one seeded violation of kind `m` planted, or nullopt when the
/// trace offers no place for it.
std::optional<Trace> mutate(Trace t, Mutation m, Rng& rng) {
  const std::vector<std::size_t> delivers = indices_of<GcsDeliver>(t);
  if (delivers.size() < 2) return std::nullopt;
  const std::size_t k = rng.next_below(delivers.size());
  const std::size_t i = delivers[k];
  switch (m) {
    case Mutation::kDrop:
      t.erase(t.begin() + static_cast<std::ptrdiff_t>(i));
      return t;
    case Mutation::kSwap: {
      // With the same receiver's next delivery: a FIFO inversion when both
      // come from one sender, a reordering across senders otherwise.
      for (std::size_t j = i + 1; j < t.size(); ++j) {
        const auto* d = std::get_if<GcsDeliver>(&t[j].body);
        if (d == nullptr || d->p != receiver(t[i])) continue;
        std::swap(t[i].body, t[j].body);
        return t;
      }
      return std::nullopt;
    }
    case Mutation::kDuplicate:
      t.insert(t.begin() + static_cast<std::ptrdiff_t>(i) + 1, t[i]);
      return t;
    case Mutation::kCrossView: {
      // Deliver the message after the receiver's next view instead.
      const std::optional<std::size_t> j = next_view_of(t, i, receiver(t[i]));
      if (!j) return std::nullopt;
      Event moved = t[i];
      t.insert(t.begin() + static_cast<std::ptrdiff_t>(*j) + 1, moved);
      t.erase(t.begin() + static_cast<std::ptrdiff_t>(i));
      return t;
    }
    case Mutation::kRegressView: {
      // After p recovers, give p's next view the id of the last view p had
      // before the crash: legal by Local Monotonicity against the initial
      // view, illegal against the preserved identifier floor.
      const std::vector<std::size_t> recovers = indices_of<Recover>(t);
      if (recovers.empty()) return std::nullopt;
      const std::size_t r = recovers[rng.next_below(recovers.size())];
      const ProcessId p = std::get<Recover>(t[r].body).p;
      std::optional<ViewId> last;
      for (std::size_t j = 0; j < r; ++j) {
        const auto* v = std::get_if<GcsView>(&t[j].body);
        if (v != nullptr && v->p == p) last = v->view.id;
      }
      const std::optional<std::size_t> j = next_view_of(t, r, p);
      if (!last || !j) return std::nullopt;
      std::get<GcsView>(t[*j].body).view.id = *last;
      return t;
    }
  }
  return std::nullopt;
}

void run_sweep(bool two_tier) {
  constexpr Mutation kAll[] = {Mutation::kDrop, Mutation::kSwap,
                               Mutation::kDuplicate, Mutation::kCrossView,
                               Mutation::kRegressView};
  int mutants = 0;
  int rejected_by_kind[std::size(kAll)] = {};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const std::string label = "seed " + std::to_string(seed) +
                              (two_tier ? " two-tier" : "");
    const Trace trace = churn_trace(seed, two_tier);
    ASSERT_GT(indices_of<GcsDeliver>(trace).size(), 0u) << label;
    EXPECT_EQ(expect_family_agrees(trace, label), 0)
        << label << ": an honest execution must pass";
    Rng rng(seed);
    for (std::size_t k = 0; k < std::size(kAll); ++k) {
      for (int n = 0; n < 3; ++n) {
        const std::optional<Trace> mutant = mutate(trace, kAll[k], rng);
        if (!mutant) continue;
        ++mutants;
        rejected_by_kind[k] += expect_family_agrees(
            *mutant, label + " mutation " + std::to_string(k) + "." +
                         std::to_string(n));
      }
    }
  }
  // Every kind of mutation must actually plant violations, or the
  // agreement above says little.
  EXPECT_GE(mutants, 200);
  for (std::size_t k = 0; k < std::size(kAll); ++k) {
    EXPECT_GT(rejected_by_kind[k], 0) << "mutation kind " << k;
  }
}

TEST(CheckerDiff, ChurnTracesAndMutationsAgreeWithMapOracle) {
  run_sweep(/*two_tier=*/false);
}

TEST(CheckerDiff, TwoTierChurnTracesAndMutationsAgreeWithMapOracle) {
  run_sweep(/*two_tier=*/true);
}

TEST(CheckerDiff, ViewsSharingAnIdStayDistinct) {
  // Two different views with one id, differing in their members or only in
  // their start ids (paper Section 3.1). A message sent in one and
  // delivered in the other was never sent in the receiver's view, and two
  // processes moving on from them did not move from the same view.
  const ProcessId p1{1};
  const ProcessId p2{2};
  const ProcessId p3{3};
  View a;
  a.id = ViewId{1, 0};
  a.members = {p1, p2};
  a.start_id = {{p1, StartChangeId{1}}, {p2, StartChangeId{1}}};
  View more_members = a;
  more_members.members.insert(p3);
  more_members.start_id[p3] = StartChangeId{1};
  View other_start = a;
  other_start.start_id[p2] = StartChangeId{2};
  View next = a;
  next.id = ViewId{2, 0};
  for (const View& b : {more_members, other_start}) {
    const gcs::AppMsg m{p1, 1, "m1"};
    Trace t;
    sim::Time at = 0;
    for (EventBody body : std::vector<EventBody>{
             GcsView{p1, a, {p1}}, GcsView{p2, b, {p2}}, GcsSend{p1, m},
             GcsDeliver{p2, p1, m}, GcsView{p1, next, {p1, p2}},
             GcsView{p2, next, {p2}}}) {
      t.push_back(Event{++at, std::move(body)});
    }
    EXPECT_GT(expect_family_agrees(t, "shared id"), 0);

    WvRfifoChecker wv;
    std::optional<std::string> what;
    for (std::size_t i = 0; i < 4; ++i) what = verdict(wv, t[i]);
    ASSERT_TRUE(what.has_value());
    EXPECT_NE(what->find("WV_RFIFO"), std::string::npos) << *what;
    EXPECT_NE(what->find("never sent"), std::string::npos) << *what;

    TransSetChecker trans_set;
    for (const Event& e : t) trans_set.on_event(e);
    try {
      trans_set.finalize();
      ADD_FAILURE() << "p2 in p1's transitional set must be rejected";
    } catch (const InvariantViolation& e) {
      EXPECT_NE(std::string(e.what()).find("moved from a different view"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace vsgc::spec
