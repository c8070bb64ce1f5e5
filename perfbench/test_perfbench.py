#!/usr/bin/env python3
"""Self-tests of the wall-clock benchmark.

Run from the root of the repository:

    python3 perfbench/test_perfbench.py

They check that bad arguments are rejected without a result line, that a
short run of every workload prints every metric BENCHMARK.json names with
its unit and no failed op, that the traced run's report names every
per-layer metric, and that the input digest follows the seed. Short runs
use a small graph (--scale 1) so the whole suite takes well under a minute
after the first build.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
WORKLOADS = ["train", "serve", "serve_update"]

# Per-layer metrics the traced report prints beyond the result line: layer
# times that read 0 on workloads which bypass the layer.
REPORT_ONLY = ["sampling.traverse_ms", "sampling.negative_ms",
               "algo.backward_ms", "nn.apply_ms"]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(*args):
    return subprocess.run(RUN + list(args), capture_output=True, text=True,
                          cwd=ROOT, timeout=600)


def short_run(workload, seed=1, trace=0):
    return run("--workload", workload, "--seed", str(seed), "--seconds", "2",
               "--trace", str(trace), "--scale", "1", "--max-ops", "40")


def result_of(proc):
    last = proc.stdout.strip().splitlines()[-1]
    return json.loads(last)


def digest_of(proc):
    match = re.search(r"^digest (.*)$", proc.stdout, re.MULTILINE)
    return match.group(1) if match else None


class BadArguments(unittest.TestCase):
    CASES = [
        ["--seconds", "0"],
        ["--seconds", "-1"],
        ["--scale", "0"],
        ["--scale", "abc"],
        ["--rate", "0"],
        ["--rate", "-5"],
        ["--max-ops", "0"],
        ["--max-ops", "-3"],
        ["--trace", "2"],
        ["--seed", "x"],
        ["--workload", "bogus"],
        ["--no-such-flag", "1"],
        ["--seconds"],
    ]

    def test_rejected_without_result(self):
        for extra in self.CASES:
            with self.subTest(args=extra):
                args = ["--workload", "serve", "--seed", "1", "--trace", "0",
                        "--seconds", "1"] + extra
                proc = run(*args)
                self.assertNotEqual(proc.returncode, 0, proc.stdout)
                self.assertNotIn('"metrics"', proc.stdout)


class ShortRuns(unittest.TestCase):
    def test_end_to_end_metrics(self):
        spec = load_spec()
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = short_run(workload)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = result_of(proc)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertIn("failed_ratio 0.000000", proc.stdout)
                for name in ("op_p90_ms", "update_p50_ms"):
                    self.assertRegex(proc.stdout, r"\n%s +[0-9.]+ ms\n" % name)
                self.assertNotIn("\nfailure ", proc.stdout)
                metrics = result["metrics"]
                self.assertEqual(set(metrics),
                                 {m["name"] for m in spec["end_to_end"]})
                for m in spec["end_to_end"]:
                    self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
                    self.assertGreater(metrics[m["name"]]["value"], 0,
                                       m["name"])

    def test_per_layer_metrics(self):
        spec = load_spec()
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = short_run(workload, trace=1)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = result_of(proc)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                metrics = result["metrics"]
                self.assertEqual(set(metrics),
                                 {m["name"] for m in spec["per_layer"]})
                for m in spec["per_layer"]:
                    self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
                report = proc.stdout
                for name in list(metrics) + REPORT_ONLY:
                    self.assertRegex(report, r"\n  %s +" % re.escape(name))
                traces = os.path.join(ROOT, ".bench_build", "perfbench",
                                      "traces", "%s-1.json" % workload)
                with open(traces) as f:
                    spans = json.load(f)["spans"]
                self.assertTrue(any(s["name"] == "op" for s in spans))


class Digest(unittest.TestCase):
    def test_follows_seed(self):
        a = digest_of(run("--workload", "serve_update", "--seed", "5",
                          "--seconds", "0.5", "--trace", "0", "--scale", "1"))
        b = digest_of(run("--workload", "serve_update", "--seed", "5",
                          "--seconds", "0.5", "--trace", "0", "--scale", "1"))
        c = digest_of(run("--workload", "serve_update", "--seed", "6",
                          "--seconds", "0.5", "--trace", "0", "--scale", "1"))
        self.assertIsNotNone(a)
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)
        # Every part differs: graph, request roots and update schedule.
        for part_a, part_c in zip(a.split(), c.split()):
            self.assertNotEqual(part_a, part_c)


if __name__ == "__main__":
    unittest.main()
