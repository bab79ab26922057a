#!/usr/bin/env python3
"""The benchmark's own test: its oracle has teeth and its output keeps the
BENCHMARK.json contract.

Run from the root of the repository:

    python3 perfbench/test_perfbench.py

For every workload it runs a short clean run, which must report correct
with zero failed operations, and a run with hw::FaultInjector attached to
every device under test (accumulator bit 30 flipped at rate 1.0, a fault
that keeps most argmax classes and so slips past class-based checks),
which must report incorrect with failed operations and exit non-zero. It
also checks that each run prints exactly the metrics BENCHMARK.json names
for its mode.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-open", "serve-wide")


def run(workload, trace=0, fault=0, seconds=1):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", str(seconds), "--trace", str(trace),
         "--inject-fault", str(fault)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stdout + proc.stderr


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        cls.end_to_end = [m["name"] for m in spec["end_to_end"]]
        cls.per_layer = [m["name"] for m in spec["per_layer"]]
        cls.workloads = [w["name"] for w in spec["workloads"]]

    def test_declared_workloads(self):
        self.assertEqual(sorted(self.workloads), sorted(WORKLOADS))

    def test_clean_runs_are_correct(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, log = run(workload)
                self.assertEqual(code, 0, log)
                self.assertEqual(sorted(result),
                                 ["attempted", "correct", "failed", "metrics"])
                self.assertTrue(result["correct"], log)
                self.assertEqual(result["failed"], 0, log)
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(sorted(result["metrics"]),
                                 sorted(self.end_to_end))
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_accumulator_fault_fails_the_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, log = run(workload, fault=1)
                self.assertNotEqual(code, 0, log)
                self.assertFalse(result["correct"], log)
                self.assertGreater(result["failed"], 0, log)

    def test_traced_run_reports_every_layer(self):
        code, result, log = run("serve-wide", trace=1, seconds=2)
        self.assertEqual(code, 0, log)
        self.assertEqual(sorted(result["metrics"]), sorted(self.per_layer))
        work = os.path.join(ROOT, ".bench_build", "perfbench-run")
        with open(os.path.join(work, "serve-wide.trace.json")) as f:
            events = json.load(f)["traceEvents"]
        names = {e["name"] for e in events}
        self.assertTrue({"coldstart", "device.self_test", "device.infer",
                         "device.infer_b1", "replay", "replay.conv_pass",
                         "hw.mmu_matmul", "request", "daemon.service"} <= names)
        with open(os.path.join(work, "serve-wide.layers.json")) as f:
            table = json.load(f)
        for row in ("device.unattributed_us", "device.b1_unattributed_us"):
            self.assertIn(row, table["metrics"])


if __name__ == "__main__":
    unittest.main()
