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

from lossyphase._engine import release_heap
from lossyphase.sequences import (
    BranchGuardError,
    EvaluationReport,
    SequencePlan,
    _check_guard,
    evaluate_exact,
    evaluate_exact_with_speedup,
    evaluate_monte_carlo,
    evaluate_plans_with_speedup,
)
from lossyphase.states import _require_integer, _require_real

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
# The work guard of optimize: plans, and records walked (trials with "mc")
# summed over the plans, counted before any plan is built, and the chi
# points of any search's grid, fisher-scan's too (README, "Command line").
PLAN_BUDGET = 10 ** 6
WORK_BUDGET = 10 ** 10


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


def _chi_grid_size(step: float, lo: float = 0.0, hi: float = 2.0) -> int:
    """Points lo + i step rounded to 12 decimals that stay <= hi, counted
    unbuilt: optimize's chi2 and chi4 over [0, 2], fisher-scan's chi grid.
    A step so small that the count overflows a float is refused."""
    if math.isinf(steps := (hi - lo) / step):
        raise BranchGuardError(f"chi step {step!r} gives too many chi points to count, "
                               f"beyond the work guard {PLAN_BUDGET}")
    n_steps = int(round(steps))
    while round(lo + n_steps * step, 12) > hi:
        n_steps -= 1
    return n_steps + 1


def _chi_grid(step: float, lo: float = 0.0, hi: float = 2.0) -> list[float]:
    """The points _chi_grid_size counts, refused beyond PLAN_BUDGET."""
    size = _chi_grid_size(step, lo, hi)
    if size > PLAN_BUDGET:
        raise BranchGuardError(f"{size} chi points exceed the work guard "
                               f"{PLAN_BUDGET} at chi step {step!r}")
    return [round(lo + i * step, 12) for i in range(size)]


def _splits(total_photons: int, chi_grid_step: float) -> tuple[list, float]:
    """The splits (N1, N2, N4) by decreasing N1, then N2, and the step as a
    float, once the arguments are checked."""
    _require_integer("total_photons", total_photons, least=1)
    if not 0.0 < (step := _require_real("chi_grid_step", chi_grid_step)) <= 2.0:
        raise ValueError("chi_grid_step must be in (0, 2]")
    splits = [
        (n1, n2, n4)
        for n4 in range(total_photons // 4 + 1)
        for n2 in range((total_photons - 4 * n4) // 2 + 1)
        for n1 in (total_photons - 2 * n2 - 4 * n4,)
    ]
    return sorted(splits, key=lambda s: (-s[0], -s[1])), step


def enumerate_plans(
    total_photons: int, chi_grid_step: float, eta: float = 1.0
) -> list[SequencePlan]:
    """All grouped plans with the given photon budget.

    Splits are ordered by decreasing N1 (then decreasing N2), chi values
    ascending, matching the tie-breaking rule of `optimize`.  chi entries
    are omitted (held at 0) when the corresponding count is zero.
    """
    splits, step = _splits(total_photons, chi_grid_step)
    grid = _chi_grid(step)
    plans = []
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


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}: expected exact, speedup or mc")


def evaluate_plans(
    plans: list[SequencePlan], method: str, mc_trials: int, mc_seed: int
) -> list[EvaluationReport]:
    """Reports for plans, in input order, by one of METHODS: "exact"
    enumerates each plan, "speedup" walks each split's plans as one
    merged tree (evaluate_plans_with_speedup), "mc" samples each plan."""
    _check_method(method)
    if method == "speedup":
        return evaluate_plans_with_speedup(plans)
    if method == "exact":
        return [evaluate_exact(p) for p in plans]
    return [evaluate_monte_carlo(p, mc_trials, mc_seed) for p in plans]


def _check_work(total_photons: int, chi_grid_step: float, eta: float,
                evaluator: str, mc_trials: int) -> None:
    """Raise BranchGuardError when a search asks for more than PLAN_BUDGET
    plans or WORK_BUDGET records (trials with "mc"), from the arguments
    alone.  An unknown evaluator is refused before anything else, and a
    split whose plans exceed the branch guard before the budgets, naming
    its first plan as its evaluator would."""
    _check_method(evaluator)
    splits, step = _splits(total_photons, chi_grid_step)
    size = _chi_grid_size(step)
    if evaluator == "mc":
        _require_integer("trials", mc_trials, least=1)
    plans = work = 0
    for n1, n2, n4 in splits:
        count = size ** ((n2 > 0) + (n4 > 0))
        per_plan = mc_trials
        if evaluator != "mc":
            first = SequencePlan(n1, n2, 0.0, n4, 0.0, eta)
            per_plan = (first.exact_leaf_count() if evaluator == "exact"
                        else first.speedup_leaf_count())
            _check_guard(first, per_plan)
        plans, work = plans + count, work + count * per_plan
    asked = f"for optimize --n {total_photons} --chi-step {step!r}"
    if plans > PLAN_BUDGET:
        raise BranchGuardError(f"{plans} plans exceed the work guard {PLAN_BUDGET} {asked}")
    if work > WORK_BUDGET:
        unit = "trials" if evaluator == "mc" else "records"
        raise BranchGuardError(
            f"{work} {unit} exceed the work guard {WORK_BUDGET} {asked} "
            f"--method {evaluator}")


def optimize(
    total_photons: int,
    eta: float,
    chi_grid_step: float = 0.1,
    evaluator: str = "speedup",
    mc_trials: int = 10 ** 5,
    mc_seed: int = 0,
) -> OptimizationResult:
    """Evaluate every candidate plan and return the variance minimizer.

    The first minimum in enumeration order wins, so ties go to larger N1,
    then smaller chi2, then smaller chi4 (the all-single-photon plan when
    every variance is infinite).  evaluator is one of METHODS.  Raises
    BranchGuardError, before any plan is built, beyond the work guard
    (PLAN_BUDGET plans, WORK_BUDGET records or trials) or the branch guard.
    """
    _check_work(total_photons, chi_grid_step, eta, evaluator, mc_trials)
    plans = enumerate_plans(total_photons, chi_grid_step, eta)
    reports = evaluate_plans(plans, evaluator, mc_trials, mc_seed)
    # The walks are done: hand their kept heap back before the result's
    # objects add to the peak.
    release_heap()
    table = tuple(zip(plans, reports))
    best_plan, best = min(table, key=lambda row: row[1].holevo_variance)
    return OptimizationResult(
        total_photons=total_photons,
        eta=best_plan.eta,
        best_plan=best_plan,
        best_variance=best.holevo_variance,
        pareto_table=table,
    )


def sql_baseline(total_photons: int, eta: float) -> float:
    """Holevo variance of the all-single-photon plan (the SQL reference)."""
    _require_integer("total_photons", total_photons, least=1)
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
