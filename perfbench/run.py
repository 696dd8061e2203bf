#!/usr/bin/env python3
"""Full-stack benchmark runner.

    python3 perfbench/run.py --workload stream|churn|explore --seed N \
        --seconds S --trace 0|1 [--plant-failure]

Run from the repository root. Builds perfbench/ (and the protocol stack under
src/) in Release mode into $CARGO_TARGET_DIR, or .bench_build when that is
unset, then runs the workload in its own process:

  --trace 0  one untraced run; reports the end-to-end metrics.
  --trace 1  an untraced run and a traced run of S/2 seconds each; reports
             the per-layer metrics (span.* phases, wall-clock spans around
             each layer boundary, counters) and obs.trace_overhead_frac. The
             e2e.* sim-time metrics come from the untraced run. Spans are
             written to <build dir>/spans/.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is 0 only if every correctness check
passed; a build failure (for example, no src/ next to perfbench/) exits 2
without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("stream", "churn", "explore")
RUN_TIMEOUT_S = 170

# name -> (unit, better). Every workload reports every one, never 0.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "cpu_ns_per_op": ("ns", "lower"),
    "allocs_per_op": ("count", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

S, C, E = "stream", "churn", "explore"
DATA = (S, C)
ALL = (S, C, E)

# name -> (unit, better, workloads that exercise it). A workload that does
# not exercise a layer reports 0 for its metrics.
PER_LAYER = {
    "sim.events_per_delivery": ("count", "lower", DATA),
    "sim.ns_per_event": ("ns", "lower", ALL),
    "sim.cancelled_frac": ("ratio", "lower", ALL),
    "sim.peak_queue_depth": ("count", "lower", ALL),
    "net.packets_per_delivery": ("count", "lower", DATA),
    "net.bytes_per_packet": ("B", "higher", DATA),
    "net.drop_frac": ("ratio", "lower", DATA),
    "transport.entries_per_frame": ("count", "higher", DATA),
    "transport.ack_piggyback_frac": ("ratio", "higher", DATA),
    "transport.window_stalls_per_delivery": ("count", "lower", DATA),
    "transport.peak_unacked": ("count", "lower", DATA),
    "transport.retransmits_per_delivery": ("count", "lower", DATA),
    "transport.duplicates_per_delivery": ("count", "lower", DATA),
    "transport.sack_suppressed_frac": ("ratio", "higher", DATA),
    "transport.wire_p50_ms": ("ms", "lower", DATA),
    "transport.wire_p999_ms": ("ms", "lower", DATA),
    "membership.rounds_per_view": ("count", "lower", DATA),
    "membership.obsolete_suppressed_per_view": ("count", "lower", DATA),
    "membership.server_frames_per_view": ("count", "lower", DATA),
    "membership.delta_view_frac": ("ratio", "higher", DATA),
    "membership.wait_p50_ms": ("ms", "lower", DATA),
    "membership.wait_p95_ms": ("ms", "lower", DATA),
    "gcs.send_ns": ("ns", "lower", DATA),
    "gcs.send_allocs": ("count", "lower", DATA),
    "gcs.sender_queue_p999_ms": ("ms", "lower", DATA),
    "gcs.gate_p50_ms": ("ms", "lower", DATA),
    "gcs.gate_p999_ms": ("ms", "lower", DATA),
    "gcs.sync_msgs_per_view": ("count", "lower", DATA),
    "gcs.sync_bytes_per_view": ("B", "lower", DATA),
    "gcs.forwards_per_view": ("count", "lower", DATA),
    "gcs.blocking_p95_ms": ("ms", "lower", DATA),
    "gcs.sync_send_p95_ms": ("ms", "lower", DATA),
    "gcs.install_wait_p95_ms": ("ms", "lower", DATA),
    "app.queued_sends_frac": ("ratio", "lower", (C,)),
    "app.callback_ns": ("ns", "lower", DATA),
    "app.callback_share": ("ratio", "lower", DATA),
    "stack.residual_ns_per_delivery": ("ns", "lower", DATA),
    "spec.mbrshp.ns_per_event": ("ns", "lower", (C,)),
    "spec.wv_rfifo.ns_per_event": ("ns", "lower", (C,)),
    "spec.vs_rfifo.ns_per_event": ("ns", "lower", (C,)),
    "spec.trans_set.ns_per_event": ("ns", "lower", (C,)),
    "spec.self.ns_per_event": ("ns", "lower", (C,)),
    "spec.client.ns_per_event": ("ns", "lower", (C,)),
    "spec.events_per_delivery": ("count", "lower", (C,)),
    "spec.share": ("ratio", "lower", DATA),
    "obs.trace_overhead_frac": ("ratio", "lower", ALL),
    "mc.runs_per_trace": ("count", "lower", (E,)),
    "mc.dedup_frac": ("ratio", "higher", (E,)),
    "mc.ns_per_run": ("ns", "lower", (E,)),
    "mc.choice_points_per_run": ("count", "lower", (E,)),
    "mc.events_per_run": ("count", "lower", (E,)),
    "mc.depth_completed": ("count", "higher", (E,)),
    "fault.ops_applied": ("count", "lower", (C,)),
    "e2e.latency_p50_ms": ("ms", "lower", DATA),
    "e2e.latency_p999_ms": ("ms", "lower", DATA),
    "e2e.latency_samples": ("count", "higher", DATA),
    "e2e.net_bytes_per_delivery": ("B", "lower", DATA),
    "e2e.view_change_p50_ms": ("ms", "lower", DATA),
    "e2e.view_change_p95_ms": ("ms", "lower", DATA),
    "e2e.view_change_samples": ("count", "higher", DATA),
    "e2e.blocked_p95_ms": ("ms", "lower", DATA),
    "e2e.failed_frac": ("ratio", "lower", ALL),
    "e2e.unscaled_ops_per_s": ("1/s", "higher", ALL),
    "e2e.host_probe_ms": ("ms", "lower", ALL),
}

# Per-layer metrics taken from the untraced run of a --trace 1 invocation.
FROM_UNTRACED = tuple(n for n in PER_LAYER if n.startswith("e2e."))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    """Configure (once) and build; returns the binary path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
        except OSError as e:
            log(f"perfbench: cannot run {cmd[0]}: {e}")
            return None
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return None
    return os.path.join(out, "perfbench")


def run_binary(binary, args, seconds, traced, span_dir):
    """Run one workload process; returns its parsed JSON and exit code."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", "1" if traced else "0",
           "--out", span_dir]
    if args.plant_failure:
        cmd.append("--plant-failure")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S}s")
        return None, 1
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), proc.returncode
    except (IndexError, json.JSONDecodeError):
        log(proc.stderr[-4000:])
        log(f"perfbench: no result from {args.workload} "
            f"(exit {proc.returncode})")
        return None, proc.returncode or 1


def select(table, values, workload):
    """{name: {value, unit}} for every metric of `table`; 0 where the
    workload does not exercise the layer. A missing value the workload should
    report is an error in the benchmark itself."""
    out = {}
    for name in table:
        unit, where = table[name][0], table[name][-1]
        if name in values:
            value = values[name]
        elif workload not in where:
            value = 0
        else:
            raise KeyError(f"{workload} did not report {name}")
        out[name] = {"value": value, "unit": unit}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--plant-failure", action="store_true",
                    help="self-test: inject one failure the checks must see")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 2
    span_dir = os.path.join(out, "spans")
    os.makedirs(span_dir, exist_ok=True)

    if args.trace == 0:
        runs = [run_binary(binary, args, args.seconds, False, span_dir)]
    else:
        half = args.seconds / 2
        runs = [run_binary(binary, args, half, False, span_dir),
                run_binary(binary, args, half, True, span_dir)]
    if any(r is None for r, _ in runs):
        return 1

    attempted = sum(r["attempted"] for r, _ in runs)
    failed = sum(r["failed"] for r, _ in runs)
    correct = failed == 0 and all(code == 0 for _, code in runs)
    untraced = runs[0][0]["metrics"]
    if args.trace == 0:
        metrics = select(END_TO_END, untraced, args.workload)
    else:
        traced = dict(runs[1][0]["metrics"])
        for name in FROM_UNTRACED:
            traced[name] = untraced[name] if name in untraced else 0
        traced["obs.trace_overhead_frac"] = (
            traced["run.unit_wall_s"] / untraced["run.unit_wall_s"] - 1)
        metrics = select(PER_LAYER, traced, args.workload)

    for name, m in metrics.items():
        log(f"{name:44s} {m['value']:>16.6g} {m['unit']}")
    for r, _ in runs:  # the unit-time median and tail behind the rates
        m = r["metrics"]
        log(f"{'units':44s} {m['run.units']:>16.6g} count")
        log(f"{'unit_wall_p50':44s} {m['run.unit_wall_s']:>16.6g} s")
        log(f"{'unit_wall_p90':44s} {m['run.unit_wall_p90_s']:>16.6g} s")
    for r, _ in runs:
        for f in r["failures"]:
            log(f"FAILED: {f}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
