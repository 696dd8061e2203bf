// FailureInjector: seeded, policy-driven fault scheduler (paper §8 + the
// DESIGN.md §3 "failure/partition injector" row).
//
// The injector composes the whole fault vocabulary of this repository —
// process crash/recover, graceful leave/rejoin, repeated multi-way
// partitions and heals, symmetric and asymmetric link down/up,
// drop-probability spikes, latency bursts, membership-server outages,
// crash-inside-delivery-callback, and interleaved application traffic —
// against any target (in practice app::World) through a thin callback
// surface, so it has no dependency on the protocol stack itself.
//
// Two modes share one code path:
//   * generate (run_churn): a seeded policy picks weighted random actions
//     with random gaps; every applied op is recorded into a FaultScript.
//   * replay: re-applies a recorded script, optionally with some ops elided
//     — the substrate of vsgc_stress's greedy fault-script minimizer.
// Both publish every fault on the TraceBus (spec::FaultInjected, plus the
// Crash/Recover events the endpoints emit themselves), so exported JSONL
// traces and Chrome-trace timelines show the exact adversarial schedule.
//
// Determinism: an injector run is a pure function of (target construction
// seed, policy, injector seed) — property tests assert byte-identical JSONL
// traces across same-seed runs.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "spec/events.hpp"
#include "util/field_list.hpp"
#include "util/rng.hpp"

namespace vsgc::sim {

/// The arguments a FaultOp kind uses (kFaultKinds): a is a process index
/// (kArgProcess) or a server index (kArgServer); a and b are node refs plus
/// oneway (kArgLink); b is a process index (kArgPeer); p (kArgDrop); t0 and
/// t1 (kArgLatency); v (kArgValue); payload; groups of node refs.
enum FaultArg : unsigned {
  kArgProcess = 1, kArgServer = 2, kArgLink = 4, kArgPeer = 8, kArgDrop = 16,
  kArgLatency = 32, kArgValue = 64, kArgPayload = 128, kArgGroups = 256,
};

/// One concrete fault (or traffic nudge) applied at a simulated time.
/// Every op is absolute and self-contained, so ANY subset of a script is a
/// valid schedule — the property the greedy minimizer relies on.
struct FaultOp {
  enum class Kind {
    kCrash,            ///< crash process a
    kRecover,          ///< recover process a
    kLeave,            ///< graceful leave of process a
    kRejoin,           ///< re-attach process a after a leave
    kServerDown,       ///< membership server a unreachable (node down)
    kServerUp,         ///< membership server a reachable again
    kPartition,        ///< multi-way partition into `groups`
    kWave,             ///< correlated failure wave: isolate groups[0] in bulk
    kWaveLift,         ///< lift a wave: de-isolate groups[0]
    kHeal,             ///< remove partition + all link failures + waves
    kLinkDown,         ///< link a->b down (both ways unless `oneway`)
    kLinkUp,           ///< link a->b back up
    kDrop,             ///< set network drop probability to `p`
    kLatency,          ///< set network base latency/jitter to t0/t1
    kCrashInDelivery,  ///< arm: process a crashes inside its next delivery
    kTraffic,          ///< process a multicasts `payload`
    kBugDupDeliver,    ///< test hook: forge a duplicate delivery trace event
    // State-corruption family (DESIGN.md §12): targeted transient mutations
    // of live protocol state. Recoverable by the stack's self-stabilization
    // paths; the eventual-safety checkers tolerate their fallout only inside
    // a bounded post-injection window.
    kCorruptSeq,       ///< bump p_a's CO_RFIFO next_seq toward p_b by `v`
    kCorruptAck,       ///< bump p_a's acked cursor toward p_b by `v`
    kCorruptReliable,  ///< drop p_b from p_a's transport reliable_set
    kCorruptView,      ///< overwrite p_a's membership view-id floor epoch = v
    kCorruptBackoff,   ///< set p_a's retransmit backoff toward p_b to `v`
    kBugCorruptWedge,  ///< test hook: unrecoverable endpoint view-epoch wedge
  };

  Time at = 0;
  Kind kind = Kind::kHeal;
  int a = -1;          ///< process/server index (see kind)
  int b = -1;          ///< second endpoint for link/corruption ops
  bool oneway = false;
  double p = 0.0;      ///< drop probability
  Time t0 = 0, t1 = 0; ///< latency base/jitter
  std::uint64_t v = 0; ///< corruption value (delta, epoch, or counter)
  std::vector<std::vector<int>> groups;  ///< partition components (encoded)
  std::string payload;

  /// Stable op name as published on the TraceBus and in scripts.
  const char* name() const;
  unsigned args() const;

  /// Empty if every index the op uses names one of `processes` processes or
  /// `servers` servers; otherwise describes the first one that does not.
  std::string index_error(int processes, int servers) const;

  /// JSON form: "at", "kind", then only the arguments the kind uses.
  template <class V>
  void fields(V& vis) {
    vis(codec::field("at", at), codec::field("kind", kind));
    const unsigned use = args();  // a reader has just set `kind`
    vis(codec::field_if(use & (kArgProcess | kArgServer | kArgLink), "a", a),
        codec::field_if(use & (kArgLink | kArgPeer), "b", b),
        codec::field_if(use & kArgLink, "oneway", oneway),
        codec::field_if(use & kArgDrop, "p", p),
        codec::field_if(use & kArgLatency, "t0", t0),
        codec::field_if(use & kArgLatency, "t1", t1),
        codec::field_if(use & kArgValue, "v", v),
        codec::field_if(use & kArgPayload, "payload", payload),
        codec::field_if(use & kArgGroups, "groups", groups));
  }
};

struct FaultKindInfo {
  FaultOp::Kind value;
  const char* name;
  unsigned args;  ///< FaultArg bits
};

inline constexpr unsigned kCorruptPairArgs =
    kArgProcess | kArgPeer | kArgValue;

inline constexpr FaultKindInfo kFaultKinds[] = {
    {FaultOp::Kind::kCrash, "crash", kArgProcess},
    {FaultOp::Kind::kRecover, "recover", kArgProcess},
    {FaultOp::Kind::kLeave, "leave", kArgProcess},
    {FaultOp::Kind::kRejoin, "rejoin", kArgProcess},
    {FaultOp::Kind::kServerDown, "server_down", kArgServer},
    {FaultOp::Kind::kServerUp, "server_up", kArgServer},
    {FaultOp::Kind::kPartition, "partition", kArgGroups},
    {FaultOp::Kind::kWave, "wave", kArgGroups},
    {FaultOp::Kind::kWaveLift, "wave_lift", kArgGroups},
    {FaultOp::Kind::kHeal, "heal", 0},
    {FaultOp::Kind::kLinkDown, "link_down", kArgLink},
    {FaultOp::Kind::kLinkUp, "link_up", kArgLink},
    {FaultOp::Kind::kDrop, "drop", kArgDrop},
    {FaultOp::Kind::kLatency, "latency", kArgLatency},
    {FaultOp::Kind::kCrashInDelivery, "crash_in_delivery", kArgProcess},
    {FaultOp::Kind::kTraffic, "traffic", kArgProcess | kArgPayload},
    {FaultOp::Kind::kBugDupDeliver, "bug_dup_deliver", 0},
    {FaultOp::Kind::kCorruptSeq, "corrupt_seq", kCorruptPairArgs},
    {FaultOp::Kind::kCorruptAck, "corrupt_ack", kCorruptPairArgs},
    {FaultOp::Kind::kCorruptReliable, "corrupt_reliable_set", kCorruptPairArgs},
    {FaultOp::Kind::kCorruptView, "corrupt_view_id", kArgProcess | kArgValue},
    {FaultOp::Kind::kCorruptBackoff, "corrupt_backoff", kCorruptPairArgs},
    {FaultOp::Kind::kBugCorruptWedge, "bug_corrupt_wedge",
     kArgProcess | kArgValue},
};

/// The JSON codec's name table for FaultOp::Kind (found by ADL).
constexpr std::span<const FaultKindInfo> enum_names(FaultOp::Kind) {
  return kFaultKinds;
}

/// Encoding of mixed process/server node references inside FaultOp fields
/// (partition groups and link endpoints): process i => i, server s => -(s+1).
inline int encode_process(int i) { return i; }
inline int encode_server(int s) { return -(s + 1); }
inline bool encodes_server(int v) { return v < 0; }
inline int decode_server(int v) { return -v - 1; }

/// A recorded fault schedule: replayable, serializable, minimizable.
struct FaultScript {
  std::uint64_t seed = 0;  ///< injector seed that generated it (provenance)
  std::vector<FaultOp> ops;

  template <class V>
  void fields(V& v) {
    v(codec::field("seed", seed), codec::field("ops", ops));
  }
};

/// The surface a deployment exposes to the injector. All callbacks must be
/// safe to invoke in any target state (guard internally and no-op instead of
/// failing), so that arbitrary script subsets replay cleanly.
struct FaultTarget {
  Simulator* sim = nullptr;
  spec::TraceBus* trace = nullptr;  ///< may be null (no fault events then)
  int num_processes = 0;
  int num_servers = 0;

  std::function<bool(int)> process_crashed;
  std::function<void(int)> crash_process;
  std::function<void(int)> recover_process;
  std::function<void(int)> leave_process;
  std::function<void(int)> rejoin_process;
  std::function<void(int, bool)> set_server_up;
  /// Partition into components of encoded node refs (see encode_process/
  /// encode_server); every node appears in exactly one component.
  std::function<void(const std::vector<std::vector<int>>&)> partition;
  /// Bulk wave isolation of encoded node refs (kWave / kWaveLift): the whole
  /// slice goes down (or comes back) in ONE call, so a 10% wave over 5k
  /// clients is O(slice) work, never O(slice x nodes) per-pair link edits.
  std::function<void(const std::vector<int>&, bool)> set_isolated;
  std::function<void()> heal;
  /// Link control between encoded node refs; `oneway` downs a->b only.
  std::function<void(int, int, bool, bool)> set_link;  // a, b, up, oneway
  std::function<void(double)> set_drop;
  std::function<void(Time, Time)> set_latency;  // base, jitter
  /// Arm (or disarm) "crash inside the next delivery callback" at process a.
  std::function<void(int, bool)> arm_crash_in_delivery;
  std::function<void(int, const std::string&)> send_traffic;
  /// Apply a state-corruption op (one of the kCorrupt*/kBugCorruptWedge
  /// kinds) to live protocol state. Must no-op gracefully when the target
  /// process is crashed or the referenced stream does not exist.
  std::function<void(const FaultOp&)> corrupt;
};

class FailureInjector {
 public:
  /// Weighted action mix and shape parameters for generate mode. Weight 0
  /// removes an action from the vocabulary (e.g. partitions in single-
  /// component tests); the defaults reproduce a broad churn mix.
  struct Policy {
    int steps = 25;                 ///< actions per run_churn()
    Time min_gap = 50 * kMillisecond;
    Time max_gap = 600 * kMillisecond;

    int w_traffic = 10;
    int w_crash = 3;
    int w_recover = 3;
    int w_leave = 1;
    int w_rejoin = 1;
    int w_partition = 2;
    int w_heal = 2;
    int w_link = 1;            ///< symmetric or one-way link flap
    int w_drop_spike = 1;
    int w_delay_burst = 1;
    int w_server_outage = 1;   ///< only effective with >= 2 servers
    int w_crash_in_delivery = 1;
    int w_partition_in_view_change = 1;  ///< leave, then partition mid-change
    /// Correlated failure wave: isolate a random `wave_fraction` slice of the
    /// processes in one bulk call, lift it after a random hold. Off by
    /// default; the scale bench turns it on to model rack/AZ failures.
    int w_wave = 0;
    double wave_fraction = 0.1;
    /// State-corruption family weight (off by default so crash/partition-only
    /// suites keep their exact-safety contract; vsgc_stress --corrupt and the
    /// mc corruption menu turn it on). One draw picks uniformly among the
    /// five recoverable corruption kinds.
    int w_corrupt = 0;

    int max_partition_ways = 3;
    double spike_drop = 0.4;
    Time spike_len = 300 * kMillisecond;
    Time burst_latency = 25 * kMillisecond;
    Time burst_jitter = 5 * kMillisecond;
    Time burst_len = 300 * kMillisecond;
    Time view_change_delay = 15 * kMillisecond;  ///< leave -> partition gap

    // Baseline the restores return to (mirror the target's network config).
    double base_drop = 0.0;
    Time base_latency = 1 * kMillisecond;
    Time base_jitter = 200;

    /// Test hook: at this churn step (if >= 0), forge a duplicate-delivery
    /// trace event — a deliberately injected "endpoint bug" that the spec
    /// checkers must catch (vsgc_stress --inject-bug, CI pipeline check).
    int bug_at_step = -1;

    /// When bug_at_step fires and this is set, plant kBugCorruptWedge (an
    /// unrecoverable view-epoch corruption that wedges reconvergence) instead
    /// of the duplicate-delivery forgery — the corruption-family variant of
    /// the pipeline self-check.
    bool bug_is_corruption = false;
  };

  FailureInjector(FaultTarget target, Policy policy, std::uint64_t seed);

  /// Generate mode: apply `policy.steps` weighted random actions separated
  /// by random gaps, advancing the target's simulator. Every applied op
  /// (including traffic and timed spike/burst restores) lands in script().
  void run_churn();

  /// Replay `script` against the target: advance the simulator to each op's
  /// time and apply it. Ops whose index is in `elide` are skipped (the
  /// minimizer's probe); time still advances identically.
  void replay(const FaultScript& script, const std::set<std::size_t>& elide = {});

  /// Apply one op at the current simulated time, recording it into script().
  /// The model checker's fault decision points (src/mc) land explorer-chosen
  /// faults mid-schedule through this; stabilize() still undoes them.
  void apply_now(const FaultOp& op) { apply(op, /*record=*/true); }

  /// Undo every outstanding fault so liveness can be checked: heal the
  /// network, restore baseline drop/latency, bring servers up, disarm
  /// delivery crashes, rejoin leavers, recover crashed processes.
  void stabilize();

  /// Everything applied so far (generate and replay both record).
  const FaultScript& script() const { return script_; }

 private:
  struct PendingOp {
    Time at;
    FaultOp op;
  };

  void apply(const FaultOp& op, bool record);
  void drain_pending(Time up_to);
  void schedule_restore(Time at, FaultOp op);
  bool generate_step(int step);
  void publish(const FaultOp& op);

  FaultTarget target_;
  Policy policy_;
  Rng rng_;
  FaultScript script_;

  // Mirror of the fault state we created (for picking valid actions and for
  // stabilize()); the target stays the source of truth for crash state.
  std::vector<bool> left_;
  std::vector<bool> server_down_;
  std::vector<FaultOp> downed_links_;
  std::vector<FaultOp> waves_;  ///< outstanding (un-lifted) kWave ops
  bool partitioned_ = false;
  std::vector<PendingOp> pending_;  ///< timed restores, sorted by time
  std::uint64_t traffic_counter_ = 0;
};

}  // namespace vsgc::sim
