"""Smoke and self-tests of the full-stack benchmark.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

Each test runs perfbench/run.py (which builds on first use) with a short
--seconds; the explore workload still runs its minimum of three full
explorations, so the whole suite takes a few minutes.
"""

import importlib.util
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(ROOT, "perfbench", "run.py")

spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
runner = importlib.util.module_from_spec(spec)
spec.loader.exec_module(runner)


def run(workload, trace, *extra, seconds="1"):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", seconds, "--trace", str(trace), *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result


class BenchmarkJson(unittest.TestCase):
    def test_lists_the_metrics_the_runner_reports(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(runner.WORKLOADS))
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]},
            runner.END_TO_END)
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]},
            {k: v[:2] for k, v in runner.PER_LAYER.items()})
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])


class Smoke(unittest.TestCase):
    def check(self, workload, trace, table):
        code, result = run(workload, trace)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(table))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], table[name][0], name)
            self.assertIsInstance(metric["value"], (int, float), name)
        return result["metrics"]

    def test_end_to_end_metrics_are_never_zero(self):
        for workload in runner.WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check(workload, 0, runner.END_TO_END)
                for name, metric in metrics.items():
                    self.assertGreater(metric["value"], 0, name)

    def test_traced_run_reports_every_layer_and_writes_spans(self):
        for workload in runner.WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check(workload, 1, runner.PER_LAYER)
                self.assertEqual(metrics["e2e.failed_frac"]["value"], 0)
                spans = os.path.join(runner.build_dir(), "spans",
                                     f"spans-{workload}-seed7.jsonl")
                with open(spans) as f:
                    first = json.loads(f.readline())
                self.assertIn("span", first)


class PlantedFailure(unittest.TestCase):
    def test_failures_are_counted_and_fail_the_run(self):
        for workload in runner.WORKLOADS:
            with self.subTest(workload=workload):
                code, result = run(workload, 1, "--plant-failure")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertGreater(
                    result["metrics"]["e2e.failed_frac"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
