#!/usr/bin/env python3
"""Run the benchmark command repeatedly and summarise the spread.

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json
    python3 perfbench/baseline.py --workloads evaluate-n13 --runs 5

For each workload: --runs untraced runs, each with another seed, then
--traced traced runs on one seed.  For every end-to-end metric it prints
the median, the quartiles and the spread (interquartile distance over the
median) against the bound in BENCHMARK.json; per-layer metrics are medians
of the traced runs, whose counts must agree exactly.  The tracing overhead
is the traced pass time minus the untraced median pass time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["run_s"] = elapsed
    result["lines"] = lines[:-1]
    return result


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def environment(sample_lines: list[str]) -> dict:
    import numpy as np
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    cpu = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    threads = next((ln for ln in sample_lines if ln.startswith("blas_threads")),
                   "")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": threads,
    }


def main() -> None:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", type=int, default=2)
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "workloads": {}}
    sample_lines: list[str] = []
    for workload in args.workloads:
        runs = []
        for i in range(args.runs):
            r = run_once(spec, workload, args.first_seed + i, 0)
            runs.append(r)
            sample_lines = r["lines"]
            print(f"{workload} seed {args.first_seed + i}: run {r['run_s']:.1f} s "
                  f"failed {r['failed']}/{r['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in r["metrics"].items()), flush=True)
        entry = {"failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "run_s": summarise([r["run_s"] for r in runs]),
                 "end_to_end": {}}
        infos = [dict(ln.split()[1:3] for ln in r["lines"]
                      if ln.startswith("info ")) for r in runs]
        entry["info"] = {k: summarise([float(i[k]) for i in infos])
                         for k in infos[0]}
        for k, s in entry["info"].items():
            print(f"  {k:12s} median {s['median']:.6g} spread "
                  f"{s['spread']:.4f} (printed, not bounded)")
        for name in bounds:
            s = summarise([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            s["bound"] = bounds[name]
            entry["end_to_end"][name] = s
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {name:12s} median {s['median']:.6g} {s['unit']} "
                  f"spread {s['spread']:.4f} (bound {bounds[name]}){flag}")

        traced = [run_once(spec, workload, args.first_seed, 1)
                  for _ in range(args.traced)]
        if traced:
            layer = {}
            for name, m in traced[0]["metrics"].items():
                vals = [t["metrics"][name]["value"] for t in traced]
                if m["unit"] == "count" and len(set(vals)) != 1:
                    raise SystemExit(f"{workload}: {name} differs: {vals}")
                layer[name] = {"median": statistics.median(vals),
                               "unit": m["unit"]}
            entry["per_layer"] = layer
            traced_wall = layer["trace.wall_s"]["median"]
            untraced = entry["info"]["wall_s"]["median"]
            entry["tracing_overhead_s"] = traced_wall - untraced
            print(f"  traced pass {traced_wall:.3f} s, overhead "
                  f"{traced_wall - untraced:+.3f} s "
                  f"({100 * (traced_wall / untraced - 1):+.1f}%)")
        summary["workloads"][workload] = entry

    summary["environment"] = environment(sample_lines)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
