#!/usr/bin/env python3
"""The stack benchmark's own test: tiny-size runs of every workload.

Run from the repository root:

  python3 stackbench/test_stackbench.py

Each workload runs untraced and traced on a small table; every metric that
BENCHMARK.json names must appear in the result with its unit, and every
answer must verify. A run with a deliberately wrong expected answer
(--corrupt-expected) must fail. The binary is built by stackbench/run.py.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--rows", "65536", "--sf", "0.01", "--seconds", "0.5"]
# Every workload the binary runs, including the two BENCHMARK.json leaves out.
WORKLOADS = ["point_lookup", "scan_aggregate", "tiered_mixed", "tpch_q1_q6"]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--trace", str(trace)] + TINY + list(extra)
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    return p.returncode, json.loads(lines[-1]) if lines else None


class StackBenchTest(unittest.TestCase):
    def check_metrics(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float))

    def test_every_workload_reports_every_metric(self):
        s = spec()
        for w in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    rc, result = run(w, trace)
                    self.assertEqual(rc, 0)
                    self.check_metrics(result, s[key])
                    if trace == 0:
                        for m in s[key]:
                            self.assertGreater(
                                result["metrics"][m["name"]]["value"], 0,
                                m["name"])

    def test_wrong_expected_answer_fails(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, result = run(w, 0, "--corrupt-expected")
                self.assertNotEqual(rc, 0)
                self.assertFalse(result["correct"])


if __name__ == "__main__":
    unittest.main()
