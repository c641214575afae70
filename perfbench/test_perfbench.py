#!/usr/bin/env python3
"""perfbench's own tests.

    python3 perfbench/test_perfbench.py

- The determinism self-test: every exact count (literals, unfolding events,
  state-graph states, refinement iterations, exact fallbacks, espresso
  counts) repeats across two runs, across jobs = 1 and jobs = nproc, across
  two seeds, and between the batch pass and the traced decomposition.
- The result contract: a short run of each mode prints, as its last line,
  a JSON result whose metrics are exactly BENCHMARK.json's, with their units.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]


def run(*args):
    return subprocess.run([*RUN, *args], cwd=ROOT, capture_output=True, text=True, timeout=600)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.declared = json.load(f)

    def test_exact_counts_repeat(self):
        result = run("--selftest")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("exact counts repeat", result.stdout)

    def check_contract(self, workload, trace, seconds):
        result = run("--workload", workload, "--seed", "7", "--seconds", seconds, "--trace", trace)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        last = json.loads(result.stdout.strip().splitlines()[-1])
        self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(last["correct"])
        self.assertGreaterEqual(last["attempted"], 1)
        self.assertEqual(last["failed"], 0)
        declared = self.declared["per_layer" if trace == "1" else "end_to_end"]
        self.assertEqual({m["name"]: m["unit"] for m in declared},
                         {name: m["unit"] for name, m in last["metrics"].items()})

    def test_contract(self):
        # serve needs 1000 requests before it may report its p99.
        for workload, seconds in (("table1", "1"), ("serve", "5")):
            for trace in ("0", "1"):
                with self.subTest(workload=workload, trace=trace):
                    self.check_contract(workload, trace, seconds)

    def test_bad_arguments_fail_without_a_result(self):
        result = run("--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0")
        self.assertNotEqual(result.returncode, 0)
        self.assertNotIn("\"correct\"", result.stdout)


if __name__ == "__main__":
    unittest.main()
