#!/usr/bin/env python3
"""lossyphase benchmark: one workload per process, metrics on stdout.

    python3 perfbench/run.py --workload evaluate-n13 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ./src.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones;
with --trace 1 a single traced pass gives the per-layer ones and the spans
are written under .perfbench_out/.  The lines above it give the same
numbers for reading, with the BLAS thread count and sample counts.
"""

from __future__ import annotations

import os

# One BLAS thread: the plain single-threaded baseline, and never more
# threads than the two cores the baseline was measured on.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import SpeedProbe  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 3
SETUP_PERIOD = 0.02  # set-up is short: sample its speed more often


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and make the inputs, then exit "
                             "(used to time set-up in a fresh process)")
    return parser.parse_args(argv)


def import_program():
    """Import lossyphase from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import lossyphase
    where = Path(lossyphase.__file__).resolve()
    if (ROOT / "src") not in where.parents:
        raise ImportError(f"lossyphase imported from {where}, not {ROOT}/src")


def blas_threads() -> int | None:
    """Threads the OpenBLAS bundled with numpy will use, if it can be asked."""
    import ctypes
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def time_setup(args) -> float:
    """Median set-up time of fresh processes that only import and make inputs.

    Each process's wall time, less its speed probe's own time, is rescaled
    to the reference speed with the speed the probe sampled in it.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, check=True, timeout=120, cwd=ROOT,
                              capture_output=True, text=True)
        wall = time.perf_counter() - t0
        spent, speed = map(float, proc.stdout.split())
        times.append((wall - spent) * speed)
    return statistics.median(times)


def percentile(samples: list[float], q: int) -> float:
    """q-th percentile (inclusive method); a single sample is its own."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def run_passes(workload, seconds: float, tracer, probe):
    """The passes that fill `seconds` at the baseline speed; one if traced.

    The count depends on --seconds and the workload only, not on how fast
    the machine runs today, so every run of a workload does the same work.
    """
    from workloads import Clock
    clock = Clock(tracer, probe)
    if tracer is not None:
        n_passes = 1
    else:
        n_passes = max(1, round(seconds / workload.pass_s))
    results = [workload.run_pass(i, clock) for i in range(n_passes)]
    return results, clock.total


def main(argv=None) -> int:
    args = parse_args(argv)
    setup_probe = None
    if args.setup_only:
        setup_probe = SpeedProbe("python")
        setup_probe.active = True
        setup_probe.start(SETUP_PERIOD)
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import lossyphase from {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(BENCH_DIR / "reference.json") as fh:
        reference = json.load(fh)
    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](
        args.seed, reference, str(OUT_DIR))
    workload.inputs(0)
    if setup_probe is not None:
        setup_probe.stop()
        print(setup_probe.spent, setup_probe.speed())
        return 0

    tracer = probe = None
    if args.trace:
        tracer = Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        tracer.install()
    else:
        probe = SpeedProbe(workload.kernel)
        probe.start()
    try:
        results, timed_s = run_passes(workload, args.seconds, tracer, probe)
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        if tracer is not None:
            tracer.uninstall()
        if probe is not None:
            probe.stop()

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    for r in results:
        for what in r.failures[:20]:
            print(f"check failed: {what}", file=sys.stderr)
    lines = [
        f"workload {args.workload} seed {args.seed} passes {len(results)} "
        f"timed {timed_s:.3f} s",
        f"blas_threads {blas_threads()} (OPENBLAS_NUM_THREADS="
        f"{os.environ['OPENBLAS_NUM_THREADS']}, nproc {os.cpu_count()})",
        f"error_rate {failed / max(attempted, 1):.6g} "
        f"({failed} of {attempted} operations failed)",
    ]
    for key in sorted(results[0].info):
        vals = [r.info[key] for r in results]
        lines.append(f"info {key} {statistics.median(vals)!r}")

    if tracer is not None:
        metrics = tracer.layer_metrics(timed_s)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
        metrics["sequences.evaluate_monte_carlo.std_error"] = (
            results[0].info.get("n30_std_error", 0.0), "1")
    else:
        # Raw times are printed, not bounded: see "Why the bounded time is
        # rescaled to a reference speed" in README.md.
        op_ms = [ms for r in results for ms in r.op_ms]
        work_per_s = sum(r.work for r in results) / sum(r.work_s for r in results)
        lines.append(f"info work_per_s {work_per_s!r}")
        lines.append(f"info op_p50_ms {statistics.median(op_ms)!r}")
        lines.append(f"info op_p99_ms {percentile(op_ms, 99)!r}")
        lines.append(f"info wall_s "
                     f"{statistics.median(r.wall_s for r in results)!r}")
        lines.append(f"info speed {probe.speed()!r}")
        lines.append(f"speed probe: {probe.kernel} kernel, "
                     f"{len(probe.samples)} samples, {probe.spent:.3f} s")
        lines.append(f"op samples {len(op_ms)} ({workload.unit} per pass: "
                     f"{results[0].work:.0f})")
        metrics = {
            "setup_s": (time_setup(args), "s"),
            "norm_s": (timed_s * probe.speed() / len(results), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
    for name, (value, unit) in metrics.items():
        lines.append(f"metric {name} {value!r} {unit}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
