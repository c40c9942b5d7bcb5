#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Runs every workload in smoke mode (one small job each), traced and
untraced, and checks that:
  - every workload prints exactly the metrics BENCHMARK.json declares,
    each in its declared unit: the end-to-end ones untraced, the
    per-layer ones traced;
  - each smoke run reports zero failed operations;
  - a planted wrong reference value is counted as a failed operation;
  - the metrics recomputed from a kept raw file equal the printed ones.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join("perfbench", "run.py")
WORKLOADS = ("detail", "sampled", "serve", "opt")

sys.path.insert(0, HERE)
import run  # noqa: E402


def bench(*args):
    p = subprocess.run(
        [sys.executable, RUN, *args], cwd=ROOT, capture_output=True, text=True)
    last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else None
    return p.returncode, (json.loads(last) if last else None), p.stderr


def raw_path(stderr):
    """The raw capture a run names on its standard error."""
    m = re.search(r"^perfbench: raw records: (\S+)$", stderr, re.M)
    return os.path.join(ROOT, m.group(1))


class PerfbenchTest(unittest.TestCase):
    runs = {}

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        for w in WORKLOADS:
            for trace in (0, 1):
                cls.runs[w, trace] = bench(
                    "--workload", w, "--seed", "7", "--seconds", "1",
                    "--trace", str(trace), "--smoke")

    def test_every_workload_runs_clean(self):
        for (w, trace), (code, result, err) in self.runs.items():
            with self.subTest(workload=w, trace=trace):
                self.assertEqual(code, 0, err)
                self.assertEqual(
                    set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], err)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)

    def test_metric_names_and_units_match_benchmark_json(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in self.spec[section]}
            for w in WORKLOADS:
                _, result, _ = self.runs[w, trace]
                with self.subTest(workload=w, trace=trace):
                    printed = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(printed, declared)
                    for v in result["metrics"].values():
                        self.assertIsInstance(v["value"], (int, float))

    def test_planted_wrong_reference_is_a_failed_operation(self):
        records = run.load(raw_path(self.runs["detail", 0][2]))
        planted = run.load_reference()
        planted["antlr"]["cycles"] += 1
        result = run.metrics_of(records, planted)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertEqual(result["attempted"], 1)

    def test_recompute_from_raw_records(self):
        code, result, err = bench(
            "--recompute", raw_path(self.runs["opt", 0][2]))
        self.assertEqual(code, 0, err)
        self.assertEqual(result, self.runs["opt", 0][1])


if __name__ == "__main__":
    unittest.main()
