#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 rgbench/test_rgbench.py

Each workload runs at reduced size (--small 1). The tests check that every
metric BENCHMARK.json declares is printed with its unit, that the run carries
its fingerprint, and that every output check fails when the value it guards
is perturbed. Takes a few minutes; the first run also builds the benchmark.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Output check -> the workload that runs it.
CHECKS = {
    "corner_reference": "corner_signoff",
    "corner_quadrature": "corner_signoff",
    "mc_mean": "mc_validate",
    "mc_sigma": "mc_validate",
    "batch_status": "placed_batch",
    "batch_exact": "placed_batch",
}

FINGERPRINT_KEYS = ["cpus", "compiler", "build_type", "commit", "src_sha256", "seed",
                    "workdir_fs"]


def run(workload, trace=0, perturb=None, seed=7):
    cmd = [sys.executable, str(ROOT / "rgbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "2", "--trace", str(trace), "--small", "1"]
    if perturb:
        cmd += ["--perturb", perturb]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if len(lines) < 2:
        raise AssertionError(f"{workload}: no result (exit {proc.returncode}):\n"
                             f"{proc.stderr[-3000:]}")
    return proc.returncode, json.loads(lines[-2])["fingerprint"], json.loads(lines[-1])


class MetricsPrinted(unittest.TestCase):
    def check_metrics(self, trace, declared):
        want = {m["name"]: m["unit"] for m in declared}
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                code, fp, result = run(w["name"], trace=trace)
                self.assertEqual(code, 0)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertIs(result["correct"], True)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)
                for name, v in result["metrics"].items():
                    self.assertIsInstance(v["value"], (int, float), name)
                    # End-to-end metrics are bounded relative to their median,
                    # so none may read zero.
                    if trace == 0:
                        self.assertGreater(v["value"], 0, name)
                for key in FINGERPRINT_KEYS:
                    self.assertIn(key, fp)
                self.assertEqual(fp["failed_checks"], [])

    def test_end_to_end_metrics(self):
        self.check_metrics(0, SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        self.check_metrics(1, SPEC["per_layer"])


class ChecksAreNotVacuous(unittest.TestCase):
    def test_each_check_fails_when_its_output_is_perturbed(self):
        for check, workload in CHECKS.items():
            with self.subTest(check=check):
                code, fp, result = run(workload, perturb=check)
                self.assertNotEqual(code, 0)
                self.assertIs(result["correct"], False)
                self.assertEqual(fp["failed_checks"], [check])


if __name__ == "__main__":
    unittest.main(verbosity=2)
