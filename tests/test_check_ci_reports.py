#!/usr/bin/env python3
"""The CI perf gate (`tools/check_ci_reports.py perf`) on small synthetic
perfbench results: what it passes, what it fails, that a failure names the
workload and metric, and the median pair ratio it prints.  Then the
protocheck sweep comparison (`sweep`) on two small reports."""
import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                     "tools", "check_ci_reports.py")
WORKLOADS = ("bulk_srclan", "chaos_baseline", "rpc_reconfig")
BENCHMARK = {
    "workloads": [{"name": w} for w in WORKLOADS],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "ops_per_cpu_s", "unit": "1/s", "better": "higher",
         "bound": 0.25},
    ],
}
# Five runs a side, spread like real runs of one commit.
SPREAD = (0.9, 1.1, 1.0, 0.95, 1.05)


def result(ops, correct=True, failed=0):
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {"setup_s": {"value": 0.07, "unit": "s"},
                        "ops_per_cpu_s": {"value": ops, "unit": "1/s"}}}


class PerfGate(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = self.tmp.name
        with open(os.path.join(self.dir, "BENCHMARK.json"), "w") as f:
            json.dump(BENCHMARK, f)
        self.runs = {side: {w: [result(1000 * s) for s in SPREAD]
                            for w in WORKLOADS} for side in ("base", "head")}

    def tearDown(self):
        self.tmp.cleanup()

    def gate(self):
        for side, workloads in self.runs.items():
            os.makedirs(os.path.join(self.dir, side))
            for w, runs in workloads.items():
                for pair, r in enumerate(runs, 1):
                    path = os.path.join(self.dir, side, f"{w}.{pair}.out")
                    with open(path, "w") as f:
                        f.write(f"{w} seed 1: 3 reps\n{json.dumps(r)}\n")
        proc = subprocess.run(
            [sys.executable, CHECK, "perf",
             os.path.join(self.dir, "BENCHMARK.json"),
             os.path.join(self.dir, "base"), os.path.join(self.dir, "head")],
            capture_output=True, text=True)
        return proc.returncode, proc.stdout

    def test_within_bounds_passes(self):
        self.runs["head"]["rpc_reconfig"] = [result(900 * s) for s in SPREAD]
        code, out = self.gate()
        self.assertEqual(code, 0, out)
        self.assertNotIn("FAIL", out)

    def test_ops_drop_fails_and_names_the_workload(self):
        self.runs["head"]["bulk_srclan"] = [result(700 * s) for s in SPREAD]
        code, out = self.gate()
        self.assertEqual(code, 1, out)
        failures = [l for l in out.splitlines() if l.startswith("FAIL")]
        self.assertEqual(len(failures), 1, out)
        self.assertIn("bulk_srclan ops_per_cpu_s", failures[0])

    def test_incorrect_run_fails(self):
        self.runs["head"]["chaos_baseline"][2] = result(1000, correct=False)
        code, out = self.gate()
        self.assertEqual(code, 1, out)
        self.assertIn("correct: false", out)

    def test_missing_workload_fails(self):
        del self.runs["head"]["rpc_reconfig"]
        code, out = self.gate()
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL rpc_reconfig: no head runs", out)

    def test_higher_failed_share_fails(self):
        self.runs["head"]["rpc_reconfig"][0] = result(1000, failed=1)
        code, out = self.gate()
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL rpc_reconfig: head failed", out)

    def test_prints_median_of_per_pair_ratios(self):
        # Pair ratios 0.97, 0.95, 0.99, 0.96, 0.98: their median is 0.97,
        # while the ratio of the two sides' medians (990 / 1000) is 0.99.
        ratios = (0.97, 0.95, 0.99, 0.96, 0.98)
        self.runs["head"]["chaos_baseline"] = [
            result(1000 * s * r) for s, r in zip(SPREAD, ratios)]
        code, out = self.gate()
        self.assertEqual(code, 0, out)
        line = next(l for l in out.splitlines()
                    if "chaos_baseline ops_per_cpu_s" in l)
        self.assertIn("head median 990 vs base 1000", line)
        self.assertIn("median pair ratio 0.970", line)


def schedule(sid, log_hash="00ff", ok=True, points=12, dropped=3):
    return {"id": sid, "ok": ok, "decision_points": points,
            "dropped_decisions": dropped, "log_hash": log_hash,
            "wall_ms": 1.5}


class SweepCheck(unittest.TestCase):
    def check(self, current):
        committed = [schedule("small3:cut0:o0:-"),
                     schedule("small3:cut0:o1:-")]
        with tempfile.TemporaryDirectory() as d:
            paths = []
            for name, runs in (("current", current), ("committed", committed)):
                paths.append(os.path.join(d, f"{name}.json"))
                with open(paths[-1], "w") as f:
                    json.dump({"explore": {"wall_ms": 10.0}, "runs": runs}, f)
            proc = subprocess.run([sys.executable, CHECK, "sweep", *paths],
                                  capture_output=True, text=True)
        return proc.returncode, proc.stdout

    def test_equal_schedules_pass_whatever_their_wall_time(self):
        current = [schedule("small3:cut0:o1:-"), schedule("small3:cut0:o0:-")]
        current[0]["wall_ms"] = 99.0
        code, out = self.check(current)
        self.assertEqual(code, 0, out)
        self.assertNotIn("FAIL", out)

    def test_moved_log_hash_fails_and_names_the_schedule(self):
        current = [schedule("small3:cut0:o0:-"),
                   schedule("small3:cut0:o1:-", log_hash="0100")]
        code, out = self.check(current)
        self.assertEqual(code, 1, out)
        failures = [l for l in out.splitlines() if l.startswith("FAIL")]
        self.assertEqual(len(failures), 1, out)
        self.assertTrue(
            failures[0].startswith("FAIL small3:cut0:o1:-: log_hash differ"),
            out)


if __name__ == "__main__":
    unittest.main()
