#!/usr/bin/env python3
"""The N=13 near-tie between the splits (9,0,1) and (7,1,1) as eta moves.

At eta = 0.6 the optimizer's best N=13 plan is (9,0,1) at chi4 = 1.3, not
the paper's (7,1,1) at chi2 = 1.7, chi4 = 1.3 (README, "The N=13
near-tie").  For each eta this prints the best Holevo variance of each
split on the 0.1 chi grid: (9,0,1) over its 21 chi4 values, and (7,1,1)
over chi2 in [1.4, 2] x chi4 in [1, 1.6].  Each split walks as one tree,
about a second per eta.  The default run covers eta = 0.60, 0.635 and
0.64; pass `all` for the README's seven rows and the bisected crossing.
"""

import sys

from lossyphase.sequences import SequencePlan, evaluate_plans_with_speedup

GRID = [k / 10 for k in range(21)]
DEFAULT_ETAS = (0.60, 0.635, 0.64)
README_ETAS = (0.55, 0.60, 0.62, 0.635, 0.64, 0.65, 0.70)


def best_variances(eta: float) -> tuple[float, float]:
    """Best V_H of (9,0,1) and of (7,1,1) at eta."""
    splits = ([SequencePlan(9, 0, 0.0, 1, chi4, eta) for chi4 in GRID],
              [SequencePlan(7, 1, chi2, 1, chi4, eta)
               for chi2 in GRID[14:] for chi4 in GRID[10:17]])
    return tuple(min(r.holevo_variance for r in evaluate_plans_with_speedup(plans))
                 for plans in splits)


def gap(eta: float) -> float:
    """V(7,1,1) - V(9,0,1) at eta: positive where (9,0,1) wins."""
    v901, v711 = best_variances(eta)
    return v711 - v901


def crossing(lo: float, hi: float, tol: float = 1e-4) -> float:
    """The eta in [lo, hi] where the gap changes sign, bisected to tol;
    the gap must be positive at lo and negative at hi."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if gap(mid) > 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


if __name__ == "__main__":
    full = sys.argv[1:] == ["all"]
    print(f"{'eta':>6} {'(9,0,1)':>10} {'(7,1,1)':>10} {'V(7,1,1) - V(9,0,1)':>20}")
    for eta in README_ETAS if full else DEFAULT_ETAS:
        v901, v711 = best_variances(eta)
        print(f"{eta:6.3f} {v901:10.6f} {v711:10.6f} {v711 - v901:20.1e}")
    if full:
        print(f"\n(9,0,1) wins below eta = {crossing(0.635, 0.64):.4f}, "
              "(7,1,1) above it")
