"""Search over grouped sequence plans at a fixed total photon number.

Enumerates every split N = N1 + 2 N2 + 4 N4 crossed with chi values on a
grid, evaluates the Holevo variance of each plan, and reports the best one
together with the full table of results.  The all-single-photon plan is
always in the candidate set and serves as the SQL baseline.
"""

from __future__ import annotations

import io
import math
from dataclasses import asdict, dataclass

from lossyphase.sequences import (
    EvaluationReport,
    SequencePlan,
    evaluate_exact,
    evaluate_exact_with_speedup,
    evaluate_monte_carlo,
    evaluate_plans_with_speedup,
)

__all__ = [
    "OptimizationResult",
    "METHODS",
    "enumerate_plans",
    "evaluate_plans",
    "optimize",
    "sql_baseline",
    "pareto_csv",
]

PARETO_CSV_HEADER = "n1,n2,chi2,n4,chi4,eta,mu,holevo_variance,branches,method"
METHODS = ("exact", "speedup", "mc")


@dataclass(frozen=True)
class OptimizationResult:
    total_photons: int
    eta: float
    best_plan: SequencePlan
    best_variance: float
    pareto_table: tuple[tuple[SequencePlan, EvaluationReport], ...]

    def to_json_dict(self) -> dict:
        return {
            "total_photons": self.total_photons,
            "eta": self.eta,
            "best_plan": asdict(self.best_plan),
            "best_variance": (
                "inf" if math.isinf(self.best_variance) else self.best_variance
            ),
            "pareto_table": [
                {"plan": asdict(p), "report": r.to_json_dict()}
                for p, r in self.pareto_table
            ],
        }


def _chi_grid(step: float) -> list[float]:
    n_steps = int(round(2.0 / step))
    grid = [round(i * step, 12) for i in range(n_steps + 1)]
    return [g for g in grid if g <= 2.0 + 1e-12]


def enumerate_plans(
    total_photons: int, chi_grid_step: float, eta: float = 1.0
) -> list[SequencePlan]:
    """All grouped plans with the given photon budget.

    Splits are ordered by decreasing N1 (then decreasing N2), chi values
    ascending, matching the tie-breaking rule of `optimize`.  chi entries
    are omitted (held at 0) when the corresponding count is zero.
    """
    if total_photons < 1:
        raise ValueError("total_photons must be >= 1")
    if not 0.0 < chi_grid_step <= 2.0:
        raise ValueError("chi_grid_step must be in (0, 2]")
    grid = _chi_grid(chi_grid_step)
    plans = []
    splits = [
        (n1, n2, n4)
        for n4 in range(total_photons // 4 + 1)
        for n2 in range((total_photons - 4 * n4) // 2 + 1)
        for n1 in (total_photons - 2 * n2 - 4 * n4,)
    ]
    splits.sort(key=lambda s: (-s[0], -s[1]))
    for n1, n2, n4 in splits:
        chi2s = grid if n2 > 0 else [0.0]
        chi4s = grid if n4 > 0 else [0.0]
        for chi2 in chi2s:
            for chi4 in chi4s:
                plans.append(
                    SequencePlan(n1=n1, n2=n2, chi2=chi2, n4=n4, chi4=chi4,
                                 eta=eta)
                )
    return plans


def evaluate_plans(
    plans: list[SequencePlan], method: str, mc_trials: int, mc_seed: int
) -> list[EvaluationReport]:
    """Reports for plans, in input order, by one of METHODS: "exact"
    enumerates each plan, "speedup" walks each split's plans as one
    merged tree (evaluate_plans_with_speedup), "mc" samples each plan."""
    if method == "speedup":
        return evaluate_plans_with_speedup(plans)
    if method == "exact":
        return [evaluate_exact(p) for p in plans]
    if method == "mc":
        return [evaluate_monte_carlo(p, mc_trials, mc_seed) for p in plans]
    raise ValueError(f"unknown method {method!r}: expected exact, speedup or mc")


def optimize(
    total_photons: int,
    eta: float,
    chi_grid_step: float = 0.1,
    evaluator: str = "speedup",
    mc_trials: int = 10 ** 5,
    mc_seed: int = 0,
) -> OptimizationResult:
    """Evaluate every candidate plan and return the variance minimizer.

    Ties are broken toward larger N1, then smaller chi2, then smaller chi4,
    which is exactly the enumeration order, so the first minimum wins (the
    all-single-photon plan when every variance is infinite, as at eta = 0).
    evaluator is one of METHODS (see evaluate_plans).
    Branch-guard violations name the first offending plan.
    """
    plans = enumerate_plans(total_photons, chi_grid_step, eta)
    reports = evaluate_plans(plans, evaluator, mc_trials, mc_seed)
    table = tuple(zip(plans, reports))
    best_plan, best = min(table, key=lambda row: row[1].holevo_variance)
    return OptimizationResult(
        total_photons=total_photons,
        eta=eta,
        best_plan=best_plan,
        best_variance=best.holevo_variance,
        pareto_table=table,
    )


def sql_baseline(total_photons: int, eta: float) -> float:
    """Holevo variance of the all-single-photon plan (the SQL reference)."""
    if total_photons < 1:
        raise ValueError("total_photons must be >= 1")
    plan = SequencePlan(n1=total_photons, eta=eta)
    return evaluate_exact_with_speedup(plan).holevo_variance


def pareto_csv(result: OptimizationResult) -> str:
    """The full result table in CSV form (header is part of the contract)."""
    buf = io.StringIO()
    buf.write(PARETO_CSV_HEADER + "\n")
    for plan, report in result.pareto_table:
        vh = report.holevo_variance
        buf.write(
            f"{plan.n1},{plan.n2},{plan.chi2},{plan.n4},{plan.chi4},"
            f"{plan.eta},{report.mu!r},{'inf' if math.isinf(vh) else repr(vh)},"
            f"{report.branches_evaluated},{report.method}\n"
        )
    return buf.getvalue()
