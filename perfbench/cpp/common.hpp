// Shared benchmark types: command-line options, the result every workload
// returns, the repeated-unit measurement loop, and the per-layer counters
// read from an app::World's public stats() accessors.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "app/world.hpp"
#include "obs/metrics.hpp"
#include "probe.hpp"

namespace perfbench {

/// Spans kept as records (and written out) per traced run; totals cover all.
constexpr std::size_t kSpanRecords = 50'000;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool plant_failure = false;  ///< self-test: inject one detectable failure
  std::string out_dir = ".";
  std::int64_t start_ns = 0;   ///< wall clock at main() entry
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<std::pair<std::string, double>> metrics;

  void set(const std::string& name, double value) {
    metrics.emplace_back(name, value);
  }
  void fail(const std::string& why, std::uint64_t count = 1) {
    failed += count;
    failures.push_back(why);
  }
};

/// One repetition of a workload's fixed unit of work. Every unit of a run
/// uses the same seed, so units differ only in host noise.
struct UnitSample {
  double setup_s = 0;
  double wall_s = 0;  ///< measured phase
  double cpu_s = 0;   ///< process CPU time in the measured phase
  std::uint64_t allocs = 0;
  std::uint64_t ops = 0;  ///< completed work: deliveries or unique traces
  double peak_rss_mb = 0;  ///< process peak RSS when the unit ended
  std::vector<double> probe_ms;  ///< host probes run over the unit
};

/// Probes kept per unit; far more than any workload's unit runs.
constexpr std::size_t kMaxProbes = 4096;
/// Probes behind one unit's speed. A unit with fewer (a stream unit takes
/// 0.4 s and runs 4) borrows its neighbours' until it has this many, so one
/// probe that was preempted cannot move the unit's figure.
constexpr std::size_t kMinProbes = 16;

/// Run `unit(i)` at least three times (once when tracing: the traced run
/// reports counts and span totals, not medians), then while another unit is
/// expected to finish inside `opt.seconds` (the expectation is the mean unit
/// time so far), so one run stays close to its time budget. A run that has
/// failed a check stops measuring.
template <class UnitFn>
std::vector<UnitSample> run_units(const Options& opt, const Result& res,
                                  UnitFn&& unit) {
  const std::size_t min_units = opt.trace ? 1 : 3;
  std::vector<UnitSample> samples;
  std::vector<double> probes;
  probes.reserve(kMaxProbes);
  const std::int64_t start = wall_ns();
  for (int i = 0;; ++i) {
    // The traced run reports no rates, so it runs no probes.
    probes.clear();
    if (!opt.trace) {
      probes.push_back(host_probe_ms());
      record_probes(&probes);
    }
    samples.push_back(unit(i));
    record_probes(nullptr);
    samples.back().peak_rss_mb = peak_rss_mb();
    samples.back().probe_ms = probes;
    if (res.failed > 0) break;
    const double elapsed = static_cast<double>(wall_ns() - start) * 1e-9;
    const double per_unit = elapsed / static_cast<double>(samples.size());
    if (samples.size() >= min_units && elapsed + per_unit > opt.seconds) {
      break;
    }
  }
  return samples;
}

/// Host speed at which the rates are reported, as a probe time: a round
/// figure near the probe's usual time on the 4-vCPU Xeon (2.1 GHz) host the
/// benchmark was written on (1.25-2.0 ms as its neighbours' load changed),
/// so scaled and unscaled rates stay close.
constexpr double kProbeRefMs = 2.0;

/// setup_s, ops_per_s, cpu_ns_per_op, allocs_per_op, peak_rss_mb, plus the
/// unit count, the unscaled rate, the median probe time, and the median and
/// p90 of the per-unit measured wall time (the median is the trace-overhead
/// baseline). Set-up time and the two rates are scaled to the reference host
/// speed: each unit's times are multiplied by kProbeRefMs / its probe
/// median. Peak RSS is read after unit 0:
/// the heap keeps growing slowly from one unit to the next, so a later
/// reading would depend on how many units the host had time for.
void add_end_to_end(Result& r, const std::vector<UnitSample>& units);

/// Counters summed over every transport, server and end-point of `w`.
struct StackCounters {
  vsgc::sim::Simulator::Stats sim;
  vsgc::net::Network::Stats net;
  std::uint64_t data_frames = 0;
  std::uint64_t entries = 0;
  std::uint64_t acks_standalone = 0;
  std::uint64_t acks_piggybacked = 0;
  std::uint64_t window_stalls = 0;
  std::uint64_t peak_unacked = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t sack_suppressed = 0;
  std::uint64_t server_frames = 0;
  std::uint64_t rounds = 0;
  std::uint64_t views_formed = 0;
  std::uint64_t obsolete_suppressed = 0;
  std::uint64_t full_views = 0;
  std::uint64_t delta_views = 0;
  std::uint64_t views_installed = 0;  ///< GCS view deliveries, all end-points
  std::uint64_t sync_msgs = 0;
  std::uint64_t sync_bytes = 0;
  std::uint64_t forwards = 0;
};

StackCounters read_counters(vsgc::app::World& w);

/// What happened between two readings: sums subtract, peaks keep `after`.
StackCounters operator-(const StackCounters& after, const StackCounters& before);
/// Totals over several worlds: sums add, peaks take the maximum.
StackCounters& operator+=(StackCounters& a, const StackCounters& b);

/// Per-layer metrics of the sim, net, transport, membership and gcs layers
/// from the counters and (traced run) the SpanCollector's span.* histograms.
void add_stack_layers(Result& r, const StackCounters& c,
                      std::uint64_t deliveries, const vsgc::obs::Registry& spans);

/// Wall-clock split of the traced run from the benchmark's own spans:
/// gcs.send_*, app.callback_*, sim.ns_per_event, spec.share, and the residual
/// time below the app layer.
void add_boundary_layers(Result& r, const SpanLog& log,
                         std::uint64_t deliveries, std::uint64_t sim_events,
                         double measured_wall_s);

/// Write `log` to <out_dir>/spans-<workload>-seed<N>.jsonl.
void write_spans(Result& r, const Options& opt, const SpanLog& log);

inline double ratio(double num, double den) {
  return den == 0 ? 0.0 : num / den;
}

}  // namespace perfbench
