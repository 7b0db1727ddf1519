#!/usr/bin/env python3
"""Regenerate perfbench/reference.json from the program at this commit.

    python3 perfbench/make_reference.py      # about 8 minutes on one core

The data: the N=9 optimize pareto table (Holevo variance per plan, best plan,
SQL baseline); the speedup mu of every N=13 split at every (chi2, chi4) the
evaluate-n13 workload can draw; high-trial Monte Carlo mu for the N=30 row
and its SQL row; and the three Fisher maxima of the scalar-api workload.
Regenerate it only when a change is meant to alter these numbers, and say so.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads as w  # noqa: E402
from lossyphase import fisher, optimizer, sequences  # noqa: E402
from lossyphase.sequences import SequencePlan  # noqa: E402

MC_REFERENCE_TRIALS = 2 ** 18
MC_REFERENCE_SEED = 20140618


def optimize_n9() -> dict:
    result = optimizer.optimize(9, w.ETA, 0.1)
    best = result.best_plan
    return {
        "pareto": [
            [p.n1, p.n2, p.chi2, p.n4, p.chi4,
             "inf" if r.holevo_variance == float("inf") else r.holevo_variance]
            for p, r in result.pareto_table
        ],
        "best_plan": [best.n1, best.n2, best.chi2, best.n4, best.chi4],
        "sql_baseline": optimizer.sql_baseline(9, w.ETA),
    }


def evaluate_n13_mu() -> dict:
    out = {}
    for n1, n2, n4 in w.N13_SPLITS:
        chi2s = w.CHI_GRID if n2 else (0.0,)
        chi4s = w.CHI_GRID if n4 else (0.0,)
        for chi2, chi4 in itertools.product(chi2s, chi4s):
            plan = SequencePlan(n1, n2, chi2, n4, chi4, w.ETA)
            out[w.plan_key(plan)] = sequences.evaluate_exact_with_speedup(plan).mu
    return out


def montecarlo_n30() -> dict:
    out = {}
    for key, plan in (("n30_row", w.N30_ROW), ("n30_sql", w.N30_SQL)):
        rep = sequences.evaluate_monte_carlo(plan, MC_REFERENCE_TRIALS,
                                             MC_REFERENCE_SEED)
        out[key] = {"mu": rep.mu, "std_error": rep.mc_std_error,
                    "trials": MC_REFERENCE_TRIALS, "rng_seed": MC_REFERENCE_SEED}
    return out


def fisher_maxima() -> dict:
    return {
        "chi_n2": list(fisher.max_fisher_over_chi(2, w.ETA)),
        "chi_n4": list(fisher.max_fisher_over_chi(4, w.ETA)),
        "optimal4": list(fisher.max_fisher_exact_optimal4(w.ETA)),
    }


def main() -> None:
    ref = {}
    for key, make in (("optimize_n9", optimize_n9),
                      ("evaluate_n13_mu", evaluate_n13_mu),
                      ("montecarlo_n30", montecarlo_n30),
                      ("fisher", fisher_maxima)):
        print(f"computing {key}", file=sys.stderr, flush=True)
        ref[key] = make()
    with open(BENCH_DIR / "reference.json", "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
