// vsgc_stress: seeded stress fuzzer for the full GCS stack.
//
// Sweeps a range of seeds; for each seed it builds an app::World with every
// spec checker attached, drives a sim::FailureInjector churn schedule
// against it, then runs the stabilize-and-check-liveness epilogue (Property
// 4.2): heal everything, recover everyone, require reconvergence, send a
// probe, and check the recorded trace with the liveness checker.
//
// On any checker violation (safety thrown mid-run, or the liveness epilogue
// failing) it writes a self-contained repro bundle:
//
//   <out>/seed<N>/config.json        world + policy configuration
//   <out>/seed<N>/fault_script.json  the full fault schedule that failed
//   <out>/seed<N>/fault_script.min.json  greedily minimized schedule
//   <out>/seed<N>/trace.jsonl        full JSONL trace of the failing run
//   <out>/seed<N>/trace.min.jsonl    trace of the minimized run
//   <out>/seed<N>/violation.txt      the violation messages
//
// and a greedy fault-script minimizer re-runs the seed with ops elided one
// at a time, keeping every elision that preserves the violation — shrinking
// a ~50-op schedule to the handful of faults that matter.
//
// Replay: --replay <bundle-dir> re-executes a bundle (the minimized script
// if present) and reports whether the violation reproduces.
//
// Self-test: --inject-bug <step> arms a deliberate endpoint bug (a forged
// duplicate delivery) at the given churn step; with --expect-violation the
// exit code is 0 only if the bug was caught, minimized, and the minimized
// bundle replays to a violation — the CI pipeline check.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "app/world.hpp"
#include "obs/artifact.hpp"
#include "obs/json_codec.hpp"
#include "obs/trace_recorder.hpp"
#include "sim/batch.hpp"
#include "sim/failure_injector.hpp"
#include "spec/liveness_checker.hpp"
#include "util/assert.hpp"

namespace vsgc {
namespace {

namespace fs = std::filesystem;

/// Everything one seed's execution depends on; a repro bundle's config.json.
struct RunConfig {
  std::uint64_t seed = 0;
  int clients = 4;
  int servers = 1;
  int steps = 25;
  double drop = 0.0;
  bool two_tier = false;
  gcs::ForwardingKind forwarding = gcs::ForwardingKind::kMinCopies;
  int bug_at_step = -1;
  /// State-corruption mode (DESIGN.md §12): the churn policy draws corruption
  /// ops, the world attaches the eventual-safety checker bundle (violations
  /// tolerated inside eventual_window after an injection), and --inject-bug
  /// plants the unrecoverable kBugCorruptWedge instead of the dup-delivery
  /// forgery. Both fields round-trip through config.json so bundle replay and
  /// the minimizer judge every script subset under the *same* window bound.
  bool corrupt = false;
  sim::Time eventual_window = 30 * sim::kSecond;

  template <class V>
  void fields(V& v) {
    v(codec::field("seed", seed), codec::field("clients", clients),
      codec::field("servers", servers), codec::field("steps", steps),
      codec::field("drop", drop), codec::field("two_tier", two_tier),
      codec::field("forwarding", forwarding),
      codec::field("bug_at_step", bug_at_step),
      codec::field("corrupt", corrupt),
      codec::field("eventual_window", eventual_window));
  }
};

struct StressConfig {
  std::uint64_t seed_lo = 0;
  std::uint64_t seed_hi = 49;
  RunConfig run;  ///< `run.seed` is set per seed of the sweep
  std::string out_dir = "stress-out";
  bool minimize = true;
  bool expect_violation = false;
  std::string replay_dir;  // non-empty: replay a bundle instead of sweeping
  std::size_t jobs = 1;    // parallel sweep workers; 0 = hardware threads
};

app::WorldConfig world_config(const RunConfig& cfg) {
  app::WorldConfig wc;
  wc.num_clients = cfg.clients;
  wc.num_servers = cfg.servers;
  wc.seed = cfg.seed;
  wc.forwarding = cfg.forwarding;
  wc.net.drop_probability = cfg.drop;
  wc.eventual_checkers = cfg.corrupt;
  wc.eventual_window = cfg.eventual_window;
  if (cfg.two_tier) {
    wc.sync_routing.mode = gcs::SyncRouting::Mode::kTwoTier;
    const int half = (cfg.clients + 1) / 2;
    for (int i = 0; i < cfg.clients; ++i) {
      wc.sync_routing.leader_of[ProcessId{static_cast<std::uint32_t>(i + 1)}] =
          ProcessId{static_cast<std::uint32_t>(i < half ? 1 : half + 1)};
    }
  }
  return wc;
}

sim::FailureInjector::Policy make_policy(const RunConfig& cfg) {
  sim::FailureInjector::Policy policy;
  policy.steps = cfg.steps;
  policy.base_drop = cfg.drop;
  policy.bug_at_step = cfg.bug_at_step;
  if (cfg.corrupt) {
    policy.w_corrupt = 6;
    policy.bug_is_corruption = true;
  }
  return policy;
}

struct RunResult {
  bool violation = false;
  std::string what;
  sim::FaultScript script;       ///< ops actually applied
  std::vector<spec::Event> trace;
  sim::Simulator::Stats sim_stats;  ///< kernel counters at end of run
  sim::Time sim_time = 0;           ///< final simulated clock
  std::uint64_t tolerated = 0;      ///< eventual-bundle swallowed violations
};

/// One full execution: generate mode when `replay` is null, otherwise replay
/// of `*replay` with `elide` skipped. Any safety/liveness failure lands in
/// the result instead of propagating.
RunResult run_one(const RunConfig& cfg,
                  const sim::FaultScript* replay = nullptr,
                  const std::set<std::size_t>& elide = {}) {
  RunResult result;
  app::World w(world_config(cfg));
  sim::FailureInjector injector(w.fault_target(), make_policy(cfg), cfg.seed);
  try {
    w.start();
    if (!w.run_until_converged(w.all_members(), 10 * sim::kSecond)) {
      throw InvariantViolation("initial convergence failed (before faults)");
    }
    if (replay != nullptr) injector.replay(*replay, elide);
    else injector.run_churn();

    // Stabilize-and-check-liveness epilogue (Property 4.2).
    injector.stabilize();
    if (!w.run_until_converged(w.all_members(), 60 * sim::kSecond)) {
      throw InvariantViolation(
          "liveness: no reconvergence within 60s after stabilization");
    }
    w.client(0).send("stress-probe-" + std::to_string(cfg.seed));
    w.run_for(3 * sim::kSecond);
    w.check_transport_bounded();
    w.finalize_checkers();
    if (!spec::LivenessChecker::check(w.trace().recorded())) {
      throw InvariantViolation(
          "liveness: membership did not stabilize in the recorded trace");
    }
  } catch (const InvariantViolation& e) {
    result.violation = true;
    result.what = e.what();
  }
  result.script = injector.script();
  result.trace = w.trace().recorded();
  result.sim_stats = w.sim().stats();
  result.sim_time = w.sim().now();
  if (const auto* eventual = w.eventual_checkers()) {
    result.tolerated = eventual->tolerated();
  }
  return result;
}

/// Greedy fault-script minimizer: repeatedly try eliding each op; keep an
/// elision whenever the violation persists. Loops to a fixpoint (max 3
/// passes) so an op unlocked by a later removal still gets elided.
std::set<std::size_t> minimize(const RunConfig& cfg,
                               const sim::FaultScript& script) {
  std::set<std::size_t> elided;
  for (int pass = 0; pass < 3; ++pass) {
    bool changed = false;
    for (std::size_t i = 0; i < script.ops.size(); ++i) {
      if (elided.contains(i)) continue;
      std::set<std::size_t> trial = elided;
      trial.insert(i);
      if (run_one(cfg, &script, trial).violation) {
        elided = std::move(trial);
        changed = true;
      }
    }
    if (!changed) break;
  }
  return elided;
}

void write_text(const fs::path& path, const std::string& text) {
  std::ofstream os(path, std::ios::binary);
  os << text;
}

template <class T>
void write_json(const fs::path& path, const T& value) {
  write_text(path, obs::to_json(value, obs::JsonStyle::kPretty) + "\n");
}

template <class T>
bool read_json(const fs::path& path, T* out) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream text;
  text << in.rdbuf();
  return in && obs::parse_json(text.str(), out);
}

void write_trace(const fs::path& path, const std::vector<spec::Event>& trace) {
  std::ofstream os(path, std::ios::binary);
  obs::write_jsonl(trace, os);
}

sim::FaultScript subset(const sim::FaultScript& script,
                        const std::set<std::size_t>& elided) {
  sim::FaultScript out;
  out.seed = script.seed;
  for (std::size_t i = 0; i < script.ops.size(); ++i) {
    if (!elided.contains(i)) out.ops.push_back(script.ops[i]);
  }
  return out;
}

/// Writes the bundle; returns true if the minimized script still replays to
/// a violation (the bundle is actionable).
bool emit_bundle(const StressConfig& cfg, const RunConfig& run,
                 const RunResult& failed) {
  const fs::path dir =
      fs::path(cfg.out_dir) / ("seed" + std::to_string(run.seed));
  fs::create_directories(dir);
  write_json(dir / "config.json", run);
  write_json(dir / "fault_script.json", failed.script);
  write_trace(dir / "trace.jsonl", failed.trace);

  std::ostringstream violation;
  violation << failed.what << "\n";
  bool min_reproduces = false;
  if (cfg.minimize) {
    const std::set<std::size_t> elided = minimize(run, failed.script);
    const sim::FaultScript min_script = subset(failed.script, elided);
    const RunResult min_run = run_one(run, &min_script);
    min_reproduces = min_run.violation;
    write_json(dir / "fault_script.min.json", min_script);
    write_trace(dir / "trace.min.jsonl", min_run.trace);
    violation << "minimized: " << failed.script.ops.size() << " -> "
              << min_script.ops.size() << " ops\n";
    violation << "minimized violation: "
              << (min_run.violation ? min_run.what : "(did not reproduce)")
              << "\n";
  } else {
    // Without minimization the full script must still replay to a violation.
    min_reproduces = run_one(run, &failed.script).violation;
  }
  write_text(dir / "violation.txt", violation.str());
  std::cerr << "  repro bundle: " << dir.string() << "\n";
  return min_reproduces;
}

int replay_bundle(const StressConfig& cfg) {
  const fs::path dir = cfg.replay_dir;
  RunConfig run;
  if (!read_json(dir / "config.json", &run)) {
    std::cerr << "cannot parse " << (dir / "config.json").string() << "\n";
    return 2;
  }
  fs::path script_path = dir / "fault_script.min.json";
  if (!fs::exists(script_path)) script_path = dir / "fault_script.json";
  sim::FaultScript script;
  if (!read_json(script_path, &script)) {
    std::cerr << "cannot parse " << script_path.string() << "\n";
    return 2;
  }
  // A script only replays against the world its bundle describes.
  for (std::size_t i = 0; i < script.ops.size(); ++i) {
    const sim::FaultOp& op = script.ops[i];
    const std::string error = op.index_error(run.clients, run.servers);
    if (!error.empty()) {
      std::cerr << script_path.string() << ": op " << i << " (" << op.name()
                << " at " << op.at << "): " << error
                << " is out of range for config.json's " << run.clients
                << " clients and " << run.servers << " servers\n";
      return 2;
    }
  }
  const RunResult result = run_one(run, &script);
  if (result.violation) {
    std::cout << "replay of " << script_path.string()
              << " reproduces the violation:\n  " << result.what << "\n";
    return cfg.expect_violation ? 0 : 1;
  }
  std::cout << "replay of " << script_path.string() << " ran clean\n";
  return cfg.expect_violation ? 1 : 0;
}

int usage() {
  std::cerr <<
      "usage: vsgc_stress [--seeds LO:HI] [--clients N] [--servers M]\n"
      "                   [--steps K] [--drop P] [--two-tier] [--corrupt]\n"
      "                   [--eventual-window SECONDS]\n"
      "                   [--forwarding simple|mincopies] [--out DIR]\n"
      "                   [--no-minimize] [--inject-bug STEP]\n"
      "                   [--expect-violation] [--jobs N]\n"
      "  --jobs N   run N seeds in parallel (0 = all hardware threads);\n"
      "             output is identical for every N\n"
      "       vsgc_stress --replay BUNDLE_DIR [--expect-violation]\n";
  return 2;
}

}  // namespace
}  // namespace vsgc

int main(int argc, char** argv) {
  using namespace vsgc;
  StressConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seeds") {
      const std::string v = value();
      const auto colon = v.find(':');
      if (colon == std::string::npos) {
        cfg.seed_lo = cfg.seed_hi = std::strtoull(v.c_str(), nullptr, 10);
      } else {
        cfg.seed_lo = std::strtoull(v.substr(0, colon).c_str(), nullptr, 10);
        cfg.seed_hi = std::strtoull(v.substr(colon + 1).c_str(), nullptr, 10);
      }
    } else if (arg == "--clients") {
      cfg.run.clients = std::atoi(value().c_str());
    } else if (arg == "--servers") {
      cfg.run.servers = std::atoi(value().c_str());
    } else if (arg == "--steps") {
      cfg.run.steps = std::atoi(value().c_str());
    } else if (arg == "--drop") {
      cfg.run.drop = std::atof(value().c_str());
    } else if (arg == "--two-tier") {
      cfg.run.two_tier = true;
    } else if (arg == "--corrupt") {
      cfg.run.corrupt = true;
    } else if (arg == "--eventual-window") {
      cfg.run.eventual_window = std::atoi(value().c_str()) * sim::kSecond;
    } else if (arg == "--forwarding") {
      cfg.run.forwarding = value() == "simple"
                               ? gcs::ForwardingKind::kSimple
                               : gcs::ForwardingKind::kMinCopies;
    } else if (arg == "--out") {
      cfg.out_dir = value();
    } else if (arg == "--no-minimize") {
      cfg.minimize = false;
    } else if (arg == "--inject-bug") {
      cfg.run.bug_at_step = std::atoi(value().c_str());
    } else if (arg == "--expect-violation") {
      cfg.expect_violation = true;
    } else if (arg == "--replay") {
      cfg.replay_dir = value();
    } else if (arg == "--jobs") {
      cfg.jobs = static_cast<std::size_t>(std::strtoull(value().c_str(), nullptr, 10));
    } else {
      return usage();
    }
  }

  if (!cfg.replay_dir.empty()) return replay_bundle(cfg);
  if (cfg.seed_hi < cfg.seed_lo) return usage();

  const std::uint64_t seeds = cfg.seed_hi - cfg.seed_lo + 1;

  // Parallel sweep: one fully isolated World per seed on the batch engine.
  // Results are merged (printed, tallied, bundled) strictly in seed order, so
  // stdout/stderr and every bundle are byte-identical for any --jobs value.
  const auto wall_start = std::chrono::steady_clock::now();
  sim::BatchRunner runner(cfg.jobs);
  const auto seed_run = [&](std::uint64_t seed) {
    RunConfig run = cfg.run;
    run.seed = seed;
    return run;
  };
  const std::vector<RunResult> results = runner.map<RunResult>(
      static_cast<std::size_t>(seeds),
      [&](std::size_t i) { return run_one(seed_run(cfg.seed_lo + i)); });
  const double sweep_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  std::uint64_t violations = 0;
  std::uint64_t actionable = 0;
  std::uint64_t total_events = 0;
  obs::BenchArtifact artifact("stress");
  artifact.config("seeds") = seeds;
  artifact.config("jobs") = static_cast<std::uint64_t>(runner.jobs());
  artifact.config("clients") = cfg.run.clients;
  artifact.config("servers") = cfg.run.servers;
  artifact.config("steps") = cfg.run.steps;
  for (std::uint64_t seed = cfg.seed_lo; seed <= cfg.seed_hi; ++seed) {
    const RunResult& result = results[seed - cfg.seed_lo];
    total_events += result.sim_stats.events_executed;
    artifact.tally(result.sim_stats, result.sim_time);
    if (!result.violation) {
      std::cout << "seed " << seed << ": ok (" << result.script.ops.size()
                << " fault ops";
      if (cfg.run.corrupt) {
        std::cout << ", " << result.tolerated << " tolerated";
      }
      std::cout << ")\n";
      continue;
    }
    ++violations;
    std::cout << "seed " << seed << ": VIOLATION\n  " << result.what << "\n";
    if (emit_bundle(cfg, seed_run(seed), result)) ++actionable;
  }

  // Throughput summary (stderr, wall-clock — deliberately not part of the
  // deterministic stdout contract).
  if (sweep_seconds > 0.0) {
    std::ostringstream sweep;
    sweep.setf(std::ios::fixed);
    sweep.precision(2);
    sweep << "[sweep] " << seeds << " seeds in " << sweep_seconds << "s — "
          << (static_cast<double>(seeds) / sweep_seconds) << " seeds/sec, "
          << (static_cast<double>(total_events) / sweep_seconds / 1e6)
          << "M events/sec, jobs=" << runner.jobs();
    std::cerr << sweep.str() << "\n";
  }
  artifact.write_file();

  std::cout << "\n" << seeds << " seeds, " << violations << " violation(s)";
  if (violations > 0) std::cout << ", " << actionable << " minimized+replayed";
  std::cout << "\n";

  if (cfg.expect_violation) {
    // Self-test mode: success means the pipeline caught the planted bug AND
    // the (minimized) bundle replays to the violation.
    return violations > 0 && actionable == violations ? 0 : 1;
  }
  return violations == 0 ? 0 : 1;
}
