// Simulator-kernel and seed-sweep wall-clock performance bench.
//
// Unlike every other bench in this directory (which measure SIMULATED time
// and are machine-independent), this one measures the host: it is the repo's
// wall-clock perf trajectory (BENCH_simperf.json), tracking
//
//   1. kernel events/sec — the slab-arena/4-ary-heap kernel vs the original
//      queue kept in sim/reference_kernel.hpp (std::priority_queue of events
//      carrying a shared_ptr<bool> liveness flag and a std::function), run on
//      the same timer-churn workload in the same binary, so the speedup gate
//      is machine-independent even though the absolute numbers are not;
//   2. heap allocations per event for both kernels (global operator new
//      counter), the mechanism behind the speedup;
//   3. end-to-end stress-world sims/sec at --jobs 1 vs --jobs <hardware>,
//      the batch-engine scaling number.
//
// Gates (used by ci.sh): --check-kernel-speedup X and --check-sweep-speedup Y
// exit nonzero if the measured ratio falls below the bound. The sweep gate is
// only meaningful with > 1 hardware thread; ci.sh scales it to the runner.
#include <any>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "app/world.hpp"
#include "bench/helpers.hpp"
#include "net/network.hpp"
#include "sim/batch.hpp"
#include "sim/failure_injector.hpp"
#include "sim/reference_kernel.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter (report-only; not a gate — allocator internals
// may batch). Counts every operator new, including the simulator's own.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete[](p); }

namespace vsgc {
namespace {

using bench::Table;

// ---------------------------------------------------------------------------
// Kernel microbench: timer-churn workload shaped like the network layer's
// event mix — chains of self-rescheduling events (periodic timers / packet
// hops), each hop also arming a side delivery that is cancelled half the
// time before it fires (retransmit timers that an ack beats). Every
// scheduled event carries the chain's message payload, the way in-flight
// packets do; the payload type is the era-appropriate one, so each kernel
// pays its own scheduling path end to end:
//   legacy — std::any copied per scheduled delivery (one heap cell + message
//            copy each time, exactly what the old Network::send closure did
//            per recipient), inside a heap-allocated std::function, plus a
//            shared_ptr<bool> liveness cell;
//   new    — one refcounted net::Payload handle shared across deliveries
//            (a refcount tick per schedule), inline in the event slot.
// ---------------------------------------------------------------------------

struct KernelRun {
  std::uint64_t events_executed = 0;
  std::uint64_t events_cancelled = 0;
  double wall_seconds = 0.0;
  std::uint64_t allocations = 0;
};

/// Message body carried by every scheduled delivery: ~100 bytes, the size of
/// a small protocol message after serialization framing.
struct KernelMsg {
  std::uint64_t words[12] = {0};
};

template <typename SimT, typename HandleT, typename PayloadT>
struct KernelChain {
  SimT* sim = nullptr;
  std::uint32_t id = 0;
  std::uint32_t remaining = 0;
  HandleT side;
  PayloadT message;

  struct Hop {
    KernelChain* chain;
    PayloadT payload;         // copied per delivery (legacy) / handle (new)
    std::uint32_t kind;       // 0 = chain hop, 1 = side one-shot delivery

    void operator()() const {
      if (kind != 0) return;  // a side timer that an "ack" did not beat
      KernelChain& ch = *chain;
      if (ch.remaining == 0) return;
      --ch.remaining;
      if ((ch.remaining & 1U) == 0U) ch.side.cancel();
      ch.side = ch.sim->schedule(static_cast<sim::Time>(5 + ch.id % 7),
                                 Hop{chain, ch.message, 1});
      ch.sim->schedule(static_cast<sim::Time>(1 + ch.remaining % 3),
                       Hop{chain, ch.message, 0});
    }
  };
};

template <typename SimT, typename HandleT, typename PayloadT>
KernelRun run_kernel_workload(std::uint32_t chains,
                              std::uint32_t hops_per_chain) {
  using Chain = KernelChain<SimT, HandleT, PayloadT>;
  SimT sim;
  std::vector<Chain> state(chains);

  const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint32_t c = 0; c < chains; ++c) {
    state[c].sim = &sim;
    state[c].id = c;
    state[c].remaining = hops_per_chain;
    state[c].message = PayloadT{KernelMsg{}};
    sim.schedule(static_cast<sim::Time>(c % 5),
                 typename Chain::Hop{&state[c], state[c].message, 0});
  }
  sim.run_until(std::numeric_limits<sim::Time>::max() / 2);
  const auto t1 = std::chrono::steady_clock::now();

  KernelRun out;
  out.events_executed = sim.stats().events_executed;
  out.events_cancelled = sim.stats().events_cancelled;
  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  out.allocations =
      g_allocs.load(std::memory_order_relaxed) - allocs_before;
  return out;
}

// ---------------------------------------------------------------------------
// End-to-end sweep: a standard stress scenario (4 clients, 1 server, a short
// fault-churn schedule, reconvergence epilogue) per seed, swept with the
// batch engine at --jobs 1 vs --jobs <hardware>.
// ---------------------------------------------------------------------------

struct SweepRun {
  std::uint64_t seeds = 0;
  std::uint64_t events_executed = 0;
  double wall_seconds = 0.0;
};

std::uint64_t run_stress_world(std::uint64_t seed) {
  app::WorldConfig wc;
  wc.num_clients = 4;
  wc.num_servers = 1;
  wc.seed = seed;
  app::World w(wc);
  sim::FailureInjector::Policy policy;
  policy.steps = 10;
  sim::FailureInjector injector(w.fault_target(), policy, seed);
  try {
    w.start();
    w.run_until_converged(w.all_members(), 10 * sim::kSecond);
    injector.run_churn();
    injector.stabilize();
    w.run_until_converged(w.all_members(), 60 * sim::kSecond);
    w.checkers().finalize();
  } catch (const InvariantViolation&) {
    // A violation would be a correctness bug, not a perf signal; the stress
    // tool owns reporting those. Keep the bench's timing meaningful.
  }
  return w.sim().stats().events_executed;
}

SweepRun run_sweep(std::size_t jobs, std::uint64_t seeds) {
  const sim::BatchRunner runner(jobs);
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<std::uint64_t> events = runner.map<std::uint64_t>(
      static_cast<std::size_t>(seeds),
      [](std::size_t i) { return run_stress_world(1000 + i); });
  const auto t1 = std::chrono::steady_clock::now();
  SweepRun out;
  out.seeds = seeds;
  for (const std::uint64_t e : events) out.events_executed += e;
  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  return out;
}

double per_sec(std::uint64_t count, double seconds) {
  return seconds > 0.0 ? static_cast<double>(count) / seconds : 0.0;
}

}  // namespace
}  // namespace vsgc

int main(int argc, char** argv) {
  using namespace vsgc;

  double check_kernel_speedup = 0.0;
  double check_sweep_speedup = 0.0;
  std::uint32_t chains = 64;
  std::uint32_t hops = 8000;
  std::uint64_t sweep_seeds = 8;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--check-kernel-speedup") {
      check_kernel_speedup = std::atof(value().c_str());
    } else if (arg == "--check-sweep-speedup") {
      check_sweep_speedup = std::atof(value().c_str());
    } else if (arg == "--chains") {
      chains = static_cast<std::uint32_t>(std::atoi(value().c_str()));
    } else if (arg == "--hops") {
      hops = static_cast<std::uint32_t>(std::atoi(value().c_str()));
    } else if (arg == "--sweep-seeds") {
      sweep_seeds = std::strtoull(value().c_str(), nullptr, 10);
    } else {
      std::cerr << "usage: bench_simperf [--chains N] [--hops N]\n"
                   "                     [--sweep-seeds N]\n"
                   "                     [--check-kernel-speedup X]\n"
                   "                     [--check-sweep-speedup X]\n";
      return 2;
    }
  }

  std::cout << "simperf: kernel fast path + parallel seed sweep "
               "(wall-clock; host-dependent)\n";

  obs::BenchArtifact art("simperf");
  art.config("chains") = chains;
  art.config("hops_per_chain") = hops;
  art.config("sweep_seeds") = sweep_seeds;
  art.config("hardware_jobs") =
      static_cast<std::uint64_t>(sim::BatchRunner::hardware_jobs());

  // --- Kernel microbench: legacy queue vs slab-arena kernel. ---------------
  // Warm both allocators/caches once, then measure interleaved best-of-3:
  // each kernel keeps its fastest run, which cancels scheduler noise on
  // loaded CI runners without hiding systematic cost.
  run_kernel_workload<sim::ReferenceSimulator, sim::ReferenceTimerHandle,
                      std::any>(8, 200);
  run_kernel_workload<sim::Simulator, sim::TimerHandle, net::Payload>(8, 200);
  KernelRun legacy, fast;
  for (int rep = 0; rep < 3; ++rep) {
    const KernelRun l =
        run_kernel_workload<sim::ReferenceSimulator,
                            sim::ReferenceTimerHandle, std::any>(chains, hops);
    const KernelRun f =
        run_kernel_workload<sim::Simulator, sim::TimerHandle, net::Payload>(chains,
                                                                         hops);
    if (rep == 0 || l.wall_seconds < legacy.wall_seconds) legacy = l;
    if (rep == 0 || f.wall_seconds < fast.wall_seconds) fast = f;
  }
  VSGC_REQUIRE(legacy.events_executed == fast.events_executed,
               "kernel workload diverged: legacy executed "
                   << legacy.events_executed << ", new kernel "
                   << fast.events_executed);
  const double kernel_speedup =
      per_sec(fast.events_executed, fast.wall_seconds) /
      per_sec(legacy.events_executed, legacy.wall_seconds);

  Table kt({"kernel", "events", "wall (s)", "events/sec", "allocs/event"});
  const auto kernel_row = [&](const char* name, const KernelRun& run) {
    kt.row(name, run.events_executed, run.wall_seconds,
           per_sec(run.events_executed, run.wall_seconds),
           static_cast<double>(run.allocations) /
               static_cast<double>(run.events_executed));
    obs::JsonValue& row = art.add_result();
    row["case"] = std::string("kernel_") + name;
    row["events_executed"] = run.events_executed;
    row["events_cancelled"] = run.events_cancelled;
    row["wall_seconds"] = run.wall_seconds;
    row["events_per_sec"] = per_sec(run.events_executed, run.wall_seconds);
    row["allocations"] = run.allocations;
    return &row;
  };
  kernel_row("legacy", legacy);
  obs::JsonValue* fast_row = kernel_row("new", fast);
  (*fast_row)["speedup_vs_legacy"] = kernel_speedup;
  kt.print("kernel microbench (timer churn)");
  std::cout << "kernel speedup: " << kernel_speedup << "x\n";

  // --- End-to-end sweep: --jobs 1 vs --jobs <hardware>. --------------------
  const std::size_t hw = sim::BatchRunner::hardware_jobs();
  const SweepRun seq = run_sweep(1, sweep_seeds);
  const SweepRun par = hw > 1 ? run_sweep(hw, sweep_seeds) : seq;
  const double sweep_speedup =
      per_sec(par.seeds, par.wall_seconds) / per_sec(seq.seeds, seq.wall_seconds);

  Table st({"jobs", "seeds", "wall (s)", "seeds/sec", "events/sec (M)"});
  const auto sweep_row = [&](const char* name, std::size_t jobs,
                             const SweepRun& run) {
    st.row(jobs, run.seeds, run.wall_seconds,
           per_sec(run.seeds, run.wall_seconds),
           per_sec(run.events_executed, run.wall_seconds) / 1e6);
    obs::JsonValue& row = art.add_result();
    row["case"] = name;
    row["jobs"] = static_cast<std::uint64_t>(jobs);
    row["seeds"] = run.seeds;
    row["events_executed"] = run.events_executed;
    row["wall_seconds"] = run.wall_seconds;
    row["seeds_per_sec"] = per_sec(run.seeds, run.wall_seconds);
    row["events_per_sec"] = per_sec(run.events_executed, run.wall_seconds);
    return &row;
  };
  sweep_row("sweep_jobs1", 1, seq);
  obs::JsonValue* par_row = sweep_row("sweep_hw", hw, par);
  (*par_row)["speedup_vs_jobs1"] = sweep_speedup;
  st.print("end-to-end stress sweep");
  std::cout << "sweep speedup at jobs=" << hw << ": " << sweep_speedup
            << "x\n";

  art.write_file();

  // --- Gates. --------------------------------------------------------------
  int rc = 0;
  if (check_kernel_speedup > 0.0 && kernel_speedup < check_kernel_speedup) {
    std::cerr << "FAIL: kernel speedup " << kernel_speedup << "x < required "
              << check_kernel_speedup << "x\n";
    rc = 1;
  }
  if (check_sweep_speedup > 0.0 && sweep_speedup < check_sweep_speedup) {
    std::cerr << "FAIL: sweep speedup " << sweep_speedup << "x < required "
              << check_sweep_speedup << "x\n";
    rc = 1;
  }
  return rc;
}
