"""Exact and Monte Carlo evaluation of adaptive measurement sequences.

A sequence plan uses N1 single photons, then N2 two-photon and N4
four-photon loss-resistant states (grouped in that order).  The controlled
phase before each detection comes from the locally optimal feedback rule;
averaging over the unknown phase, the mean sharpness of the whole record is

    mu = sum over outcome records |first harmonic of the unnormalized
         posterior at the leaf|,

which the exact evaluator accumulates over the full outcome tree
(3^N1 6^N2 15^N4 records).  The sum over the children of a row at the last
detection is the expected sharpness that the feedback has just maximised
for that row, so the walk ends at the last feedback and never builds the
leaves; the reported record counts come from the plan in closed form.  The
binomial speedup removes the loss branching of the single-photon stage:
lost single photons never change the posterior, so the tree only needs the
2^n lossless records for each count n of surviving photons, reweighted
binomially.  Plans beyond the enumeration guard are handled by a seeded
Monte Carlo estimator.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from lossyphase import _engine
from lossyphase.detection import build_likelihood_table
from lossyphase.posterior import variance_from_sharpness
from lossyphase.states import make_loss_resistant, make_single_photon

__all__ = [
    "SequencePlan",
    "EvaluationReport",
    "BranchGuardError",
    "DEFAULT_BRANCH_GUARD",
    "evaluate_exact",
    "evaluate_exact_with_speedup",
    "evaluate_monte_carlo",
]

DEFAULT_BRANCH_GUARD = 10 ** 8
_CHUNK_ROWS = 8192
_MC_CHUNK = 16384


class BranchGuardError(RuntimeError):
    """Exact enumeration would exceed the configured leaf budget."""


@dataclass(frozen=True)
class SequencePlan:
    """Grouped sequence: n1 single photons, n2 chi2-states, n4 chi4-states."""

    n1: int
    n2: int = 0
    chi2: float = 0.0
    n4: int = 0
    chi4: float = 0.0
    eta: float = 1.0

    def __post_init__(self):
        if min(self.n1, self.n2, self.n4) < 0:
            raise ValueError("state counts must be non-negative")
        if self.n2 > 0 and not 0.0 <= self.chi2 <= 2.0:
            raise ValueError(f"chi2={self.chi2} outside [0, 2]")
        if self.n4 > 0 and not 0.0 <= self.chi4 <= 2.0:
            raise ValueError(f"chi4={self.chi4} outside [0, 2]")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta={self.eta} outside [0, 1]")

    @property
    def total_photons(self) -> int:
        return self.n1 + 2 * self.n2 + 4 * self.n4

    def exact_leaf_count(self) -> int:
        return 3 ** self.n1 * 6 ** self.n2 * 15 ** self.n4

    def speedup_leaf_count(self) -> int:
        return (2 ** (self.n1 + 1) - 1) * 6 ** self.n2 * 15 ** self.n4


@dataclass(frozen=True)
class EvaluationReport:
    mu: float
    holevo_variance: float
    branches_evaluated: int
    method: str
    mc_std_error: float | None
    wall_time_s: float

    def to_json_dict(self) -> dict:
        return {
            "mu": self.mu,
            "holevo_variance": (
                "inf" if math.isinf(self.holevo_variance) else self.holevo_variance
            ),
            "branches_evaluated": self.branches_evaluated,
            "method": self.method,
            "mc_std_error": self.mc_std_error,
            "wall_time_ms": self.wall_time_s * 1e3,
        }


def _report(mu: float, leaves: int, method: str, t0: float,
            std_error: float | None = None) -> EvaluationReport:
    return EvaluationReport(mu, variance_from_sharpness(mu), leaves, method,
                            std_error, time.perf_counter() - t0)


def _check_guard(plan: SequencePlan, total: int, branch_guard: int) -> None:
    if total > branch_guard:
        raise BranchGuardError(
            f"{total} leaves exceed the branch guard {branch_guard} for {plan}"
        )


@dataclass(frozen=True)
class _Stage:
    count: int
    cmat: np.ndarray
    single_photon: bool  # closed-form feedback instead of numeric

    def thetas(self, batch: np.ndarray) -> np.ndarray:
        """Feedback phase per row; the kernels are looked up on every call."""
        if self.single_photon:
            return _engine.closed_form_theta_batch(batch)
        return _engine.numeric_theta_batch(batch, self.cmat)


def _plan_stages(plan: SequencePlan, lossless_singles: bool) -> list[_Stage]:
    """One stage per state type, in the plan's detection order."""
    stages = []
    if plan.n1 > 0:
        table = build_likelihood_table(
            make_single_photon(), 1.0 if lossless_singles else plan.eta)
        cmat = _engine.table_matrix(table) if lossless_singles else table.matrix
        stages.append(_Stage(plan.n1, cmat, True))
    if plan.n2 > 0:
        table = build_likelihood_table(make_loss_resistant(1, plan.chi2), plan.eta)
        stages.append(_Stage(plan.n2, table.matrix, False))
    if plan.n4 > 0:
        table = build_likelihood_table(make_loss_resistant(2, plan.chi4), plan.eta)
        stages.append(_Stage(plan.n4, table.matrix, False))
    return stages


def _walk_tree(stages: list[_Stage]) -> float:
    """Sum of |leaf first harmonics| over the whole outcome tree.

    Depth-first over (stage, step) with batches of posterior rows.  At the
    last detection the children are not built: their summed |first
    harmonic| is the expected sharpness at the feedback phase just chosen.
    Branches whose coefficients are exactly zero (structurally impossible
    outcomes) are dropped.  Batches are split to a fixed row cap, which also
    fixes the summation order.  The band starts at the flat prior's single
    coefficient and widens with each detection.  An empty stage list
    gives 0.
    """
    if not stages:
        return 0.0
    root = np.ones((1, 1), dtype=complex)
    mu = 0.0
    stack: list[tuple[np.ndarray, int, int]] = [(root, 0, 0)]
    while stack:
        batch, si, step = stack.pop()
        stage = stages[si]
        thetas = stage.thetas(batch)
        if si == len(stages) - 1 and step == stage.count - 1:
            mu += float(
                _engine.expected_sharpness_batch(batch, stage.cmat, thetas).sum())
            continue
        children = _engine.advance_batch(batch, stage.cmat, thetas)
        children = children.reshape(-1, children.shape[2])
        children = children[np.abs(children).max(axis=1) > 0.0]
        next_si, next_step = (si, step + 1) if step + 1 < stage.count else (si + 1, 0)
        for lo in range(0, children.shape[0], _CHUNK_ROWS):
            stack.append((children[lo: lo + _CHUNK_ROWS], next_si, next_step))
    return mu


def evaluate_exact(
    plan: SequencePlan, branch_guard: int = DEFAULT_BRANCH_GUARD
) -> EvaluationReport:
    """Exact mean sharpness by enumerating every outcome record."""
    t0 = time.perf_counter()
    _check_guard(plan, plan.exact_leaf_count(), branch_guard)
    mu = _walk_tree(_plan_stages(plan, lossless_singles=False))
    return _report(mu, plan.exact_leaf_count(), "exact", t0)


def evaluate_exact_with_speedup(
    plan: SequencePlan, branch_guard: int = DEFAULT_BRANCH_GUARD
) -> EvaluationReport:
    """Exact evaluation with the single-photon loss branching removed.

    For each count n of surviving single photons, evaluates the sharpness
    mu_n of the record with n lossless single photons followed by the lossy
    multi-photon stages, then combines them with binomial loss weights.
    Identical to evaluate_exact up to rounding.
    """
    t0 = time.perf_counter()
    _check_guard(plan, plan.speedup_leaf_count(), branch_guard)
    eta = plan.eta
    stages = _plan_stages(plan, lossless_singles=True)
    multi = stages[1:] if plan.n1 > 0 else stages
    mu = 0.0
    for n_alive in range(plan.n1 + 1):
        walk = [replace(stages[0], count=n_alive)] + multi if n_alive else multi
        mu_n = _walk_tree(walk)
        weight = (
            math.comb(plan.n1, n_alive)
            * eta ** n_alive
            * (1.0 - eta) ** (plan.n1 - n_alive)
        )
        mu += weight * mu_n
    return _report(mu, plan.speedup_leaf_count(), "exact_with_speedup", t0)


def _simulate_chunk(stages: list[_Stage], rng: np.random.Generator,
                    n_trials: int) -> np.ndarray:
    """Per-trial residuals exp(i(phi_hat - phi)) for one batch of trials."""
    phi = rng.uniform(0.0, 2.0 * math.pi, n_trials)
    batch = np.ones((n_trials, 1), dtype=complex)
    for stage in stages:
        for _ in range(stage.count):
            thetas = stage.thetas(batch)
            probs = np.clip(
                _engine.outcome_probabilities(stage.cmat, phi - thetas).real,
                0.0, None)
            cdf = np.cumsum(probs, axis=1)
            cdf /= cdf[:, -1:]
            u = rng.random(n_trials)
            picks = (u[:, None] > cdf).sum(axis=1)
            batch = _engine.advance_selected(batch, stage.cmat, picks, thetas)
            norms = np.abs(batch).max(axis=1)
            norms[norms == 0.0] = 1.0
            batch /= norms[:, None]
    phi_hat = np.angle(_engine.first_harmonic(batch))
    return np.exp(1j * (phi_hat - phi))


def evaluate_monte_carlo(
    plan: SequencePlan, trials: int, rng_seed: int
) -> EvaluationReport:
    """Sampled estimate of the mean sharpness, with a bootstrap error bar.

    Each trial draws the unknown phase uniformly, runs the adaptive
    sequence sampling outcomes from the true probabilities, and estimates
    the phase as the argument of the posterior's first harmonic; mu is
    |mean of exp(i(phi_hat - phi))| over trials.  Fully reproducible for a
    given seed (trials are processed in fixed-size chunks).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    t0 = time.perf_counter()
    ss_sim, ss_boot = np.random.SeedSequence(rng_seed).spawn(2)
    rng = np.random.default_rng(ss_sim)
    stages = _plan_stages(plan, lossless_singles=False)
    residuals = np.empty(trials, dtype=complex)
    done = 0
    while done < trials:
        n = min(_MC_CHUNK, trials - done)
        residuals[done: done + n] = _simulate_chunk(stages, rng, n)
        done += n
    mu = float(abs(residuals.mean()))
    boot_rng = np.random.default_rng(ss_boot)
    boot = np.empty(200)
    for b in range(boot.size):
        idx = boot_rng.integers(0, trials, trials)
        boot[b] = abs(residuals[idx].mean())
    return _report(mu, trials, "monte_carlo", t0, float(boot.std(ddof=1)))
