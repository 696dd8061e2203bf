// `explore`: bounded model checking with mc::Explorer.
//
// The default ScenarioConfig (3 clients, 1 server, racing sends, a leave that
// triggers a view change) explored with max_deviations = 2 until the
// frontier is exhausted. Every explored run rebuilds an app::World and
// replays from time zero, so world construction, convergence and the sim +
// NondetSource path dominate. A unit of work is one unique trace.
#include <optional>
#include <string>

#include "common.hpp"
#include "mc/explorer.hpp"
#include "workloads.hpp"

namespace perfbench {

Result run_explore(const Options& opt) {
  using namespace vsgc;
  Result res;
  SpanLog log(opt.trace ? kSpanRecords : 0);

  mc::ScenarioConfig sc;
  sc.seed = opt.seed;
  if (opt.plant_failure) {  // the planted dup-delivery action on the menu
    sc.fault_slots = 1;
    sc.inject_bug = true;
  }
  mc::ExploreConfig xc;
  xc.max_deviations = 2;
  xc.max_runs = 100'000'000;  // never binding: exploration must exhaust
  xc.jobs = 1;

  mc::ExploreStats first;

  const auto unit = [&](int u) {
    UnitSample sample;
    const std::int64_t setup_start = u == 0 ? opt.start_ns : wall_ns();
    mc::Explorer explorer(sc, xc);
    // Set-up: one run of the default schedule (the exploration's root) so
    // lazy statics and allocator pools are warm before timing.
    const mc::RunResult warm = mc::run_scenario(sc, {});
    if (warm.violation && u == 0) {
      res.fail("explore: default schedule violates: " + warm.what);
    }

    sample.setup_s = static_cast<double>(wall_ns() - setup_start) * 1e-9;
    const std::uint64_t allocs0 = alloc_count();
    const std::int64_t cpu0 = work_cpu_ns();
    const std::int64_t wall0 = work_wall_ns();
    set_alloc_counting(true);
    log.set_enabled(opt.trace);
    std::optional<mc::RunResult> violation;
    {
      Span span(log, SpanKind::kExplore);
      violation = explorer.explore();
    }
    log.set_enabled(false);
    set_alloc_counting(false);
    sample.wall_s = static_cast<double>(work_wall_ns() - wall0) * 1e-9;
    sample.cpu_s = static_cast<double>(work_cpu_ns() - cpu0) * 1e-9;
    sample.allocs = alloc_count() - allocs0;
    const mc::ExploreStats& st = explorer.stats();
    sample.ops = st.unique_traces;

    if (u == 0) {
      first = st;
      res.attempted = st.runs;
      if (violation.has_value() || st.violations > 0) {
        res.fail("explore: violation: " +
                     (violation.has_value() ? violation->what : std::string()),
                 st.violations > 0 ? st.violations : 1);
      }
      if (!st.frontier_exhausted || st.budget_exhausted) {
        res.fail("explore: frontier not exhausted");
      }
    } else if (st.unique_traces != first.unique_traces ||
               st.runs != first.runs) {
      res.fail("explore: same seed, different exploration");
    }
    return sample;
  };

  const std::vector<UnitSample> units = run_units(opt, res, unit);
  add_end_to_end(res, units);

  if (opt.trace) {
    const auto f = [](auto v) { return static_cast<double>(v); };
    const double runs = f(first.runs);
    const auto& sim = first.sim_stats;
    // The explorer drives the sim: its span covers every run of every unit.
    const double explore_ns = f(log.totals(SpanKind::kExplore).total_ns);
    const double units_run = f(units.size());
    res.set("mc.runs_per_trace", ratio(runs, f(first.unique_traces)));
    res.set("mc.dedup_frac", ratio(f(first.deduped), runs + f(first.deduped)));
    res.set("mc.ns_per_run", ratio(explore_ns, runs * units_run));
    res.set("mc.choice_points_per_run", ratio(f(first.choice_points), runs));
    res.set("mc.events_per_run", ratio(f(sim.events_executed), runs));
    res.set("mc.depth_completed", f(first.depth_completed));
    res.set("sim.ns_per_event",
            ratio(explore_ns, f(sim.events_executed) * units_run));
    res.set("sim.cancelled_frac",
            ratio(f(sim.events_cancelled), f(sim.events_scheduled)));
    res.set("sim.peak_queue_depth", f(sim.peak_queue_depth));
    write_spans(res, opt, log);
  }
  return res;
}

}  // namespace perfbench
