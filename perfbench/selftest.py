#!/usr/bin/env python3
"""Self-tests of the benchmark harness (about 45 s on one core).

    python3 perfbench/selftest.py

Named so that the repository's pytest run does not collect it: it runs
benchmark passes, which belong to the benchmark, not to the unit suite.
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import unittest
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as w  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
SEED = 7
PERTURBED = 5


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _reference() -> dict:
    with open(BENCH_DIR / "reference.json") as fh:
        return json.load(fh)


def _traced_pass(reference: dict):
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    workload = w.EvaluateN13(SEED, reference, str(out_dir))
    tracer = Tracer("selftest")
    tracer.install()
    try:
        clock = w.Clock(tracer)
        result = workload.run_pass(0, clock)
    finally:
        tracer.uninstall()
    return result, tracer, clock.total


class TracedPasses(unittest.TestCase):
    """Two traced evaluate-n13 passes on one seed, one with a bad reference."""

    @classmethod
    def setUpClass(cls):
        good = _reference()
        bad = copy.deepcopy(good)
        keys = [w.plan_key(p) for p in w.EvaluateN13(SEED, good, "").inputs(0)]
        for key in keys[:PERTURBED]:
            bad["evaluate_n13_mu"][key] += 1e-9
        cls.bad = _traced_pass(bad)
        cls.good = _traced_pass(good)

    def test_perturbed_reference_counts_as_failures(self):
        bad, _, _ = self.bad
        good, _, _ = self.good
        self.assertEqual(good.failed, 0, good.failures)
        self.assertEqual(bad.failed, PERTURBED, bad.failures)
        self.assertEqual(bad.attempted, good.attempted)

    def test_self_times_and_harness_add_up_to_wall(self):
        for _, tracer, wall in (self.bad, self.good):
            metrics = tracer.layer_metrics(wall)
            total = sum(v for k, (v, _) in metrics.items()
                        if k.endswith(".self_pct"))
            total += metrics["trace.harness_pct"][0]
            self.assertAlmostEqual(total, 100.0, delta=1e-6)
            self.assertGreater(metrics["trace.harness_pct"][0], 0.0)

    def test_counts_repeat_exactly(self):
        first = self.bad[1].layer_metrics(self.bad[2])
        second = self.good[1].layer_metrics(self.good[2])
        counts = [k for k, (_, unit) in first.items() if unit == "count"]
        self.assertIn("_engine.advance_batch.rows", counts)
        for key in counts:
            self.assertEqual(first[key][0], second[key][0], key)
        self.assertGreater(first["_engine.advance_batch.calls"][0], 0)

    def test_layer_metrics_match_spec(self):
        _, tracer, wall = self.good
        names = set(tracer.layer_metrics(wall))
        names.add("sequences.evaluate_monte_carlo.std_error")
        self.assertEqual(names, {m["name"] for m in _spec()["per_layer"]})


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class SpeedProbeTest(unittest.TestCase):

    def test_samples_inside_timed_calls_and_keeps_out_its_time(self):
        probe = SpeedProbe("small")
        clock = w.Clock(probe=probe)
        probe.start()
        try:
            _spin(0.2)
            self.assertEqual(probe.samples, [])
            t0 = time.perf_counter()
            clock.call(_spin, 0.3)
            wall = time.perf_counter() - t0
        finally:
            probe.stop()
        self.assertGreaterEqual(len(probe.samples), 3)
        self.assertGreater(probe.spent, 0.0)
        self.assertAlmostEqual(clock.total + probe.spent, wall, delta=0.01)
        self.assertGreater(probe.speed(), 0.0)
        self.assertEqual(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)


class CommandLine(unittest.TestCase):

    def test_metric_names(self):
        spec = _spec()
        for group in ("end_to_end", "per_layer"):
            for m in spec[group]:
                self.assertTrue(NAME_RE.fullmatch(m["name"]), m["name"])

    def test_untraced_run_reports_every_end_to_end_metric(self):
        spec = _spec()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
             "montecarlo-n30", "--seed", "3", "--seconds", "0", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(
            set(result["metrics"]), {m["name"] for m in spec["end_to_end"]})
        for name, metric in result["metrics"].items():
            self.assertTrue(NAME_RE.fullmatch(name), name)
            self.assertGreater(metric["value"], 0.0, name)

    def test_fails_without_the_program(self):
        bare = ROOT / ".perfbench_out" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload",
                 "evaluate-n13", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
