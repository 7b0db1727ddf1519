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
2^n lossless records for each count n of surviving photons, each weighted
by the binomial probability that n of the N1 photons survive.

The speedup walks a whole split (N1, N2, N4, eta) as one tree.  Its
lossless single-photon stage is a prefix: at every depth n = 0..N1 its
records also leave, scaled by their binomial weight and zero-padded to
one band, and enter the multi-photon stages in shared chunks; at each
stage a row fans out to the stage's chi values (its key records them)
and uses its own table, via per-row likelihood stacks.  The weights live
in the rows, as every branch probability does, so the walk sums one mu
per key.  evaluate_exact is the same walker with one key and no weights.

The prefix root is flat, so its feedback is theta = 0 and its two
children are twins: the second is the first rotated by pi (odd harmonics
negated).  Every table has the port-swap symmetry (see _engine), so a pi
rotation leaves each feedback choice as it is and only rotates and
permutes the children: the two subtrees add the same sharpness up to
rounding, and the speedup walks the first at twice its weight, half the
prefix rows.  The twin premise is checked exactly on every walk.  The
tree's other symmetry, the mirror phi -> -phi, is not merged: numeric
feedback breaks near-ties toward the smallest theta, which is not
mirror-covariant, and merging mirror twins moved mu by 2e-10 on an N=13
split.  evaluate_exact merges nothing and stays the reference.  Plans
beyond the enumeration guard are handled by a seeded Monte Carlo estimator.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

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
    "evaluate_plans_with_speedup",
    "evaluate_monte_carlo",
]

DEFAULT_BRANCH_GUARD = 10 ** 8
_CHUNK_ROWS = 256
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
    """One plan's result; wall_time_s is shared equally by the plans of
    one split walk (the split's wall time over its plan count)."""

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


def _report(mu: float, leaves: int, method: str, wall_s: float,
            std_error: float | None = None) -> EvaluationReport:
    return EvaluationReport(mu, variance_from_sharpness(mu), leaves, method,
                            std_error, wall_s)


def _check_guard(plan: SequencePlan, total: int, branch_guard: int) -> None:
    if total > branch_guard:
        raise BranchGuardError(
            f"{total} leaves exceed the branch guard {branch_guard} for {plan}"
        )


@dataclass(frozen=True)
class _Stage:
    count: int
    cmat: np.ndarray  # (outcomes, d), or (chi values, outcomes, d) in a split
    single_photon: bool  # closed-form feedback instead of numeric
    weights: tuple[float, ...] = ()  # lossless prefix: the weight of each depth

    def thetas(self, batch: np.ndarray, cmat: np.ndarray | None = None) -> np.ndarray:
        """Feedback per row against cmat (default: own); kernels looked up per call."""
        if self.single_photon:
            return _engine.closed_form_theta_batch(batch)
        return _engine.numeric_theta_batch(batch, self.cmat if cmat is None else cmat)


def _split_stages(plans: list[SequencePlan],
                  lossless_singles: bool) -> tuple[list[_Stage], np.ndarray]:
    """The stages of one split (n1, n2, n4, eta) in detection order, and
    each plan's key: its index in the product of the multi-photon stages'
    sorted distinct chi values.  Lossless singles form a prefix stage whose
    weight k, C(n1, k) eta^k (1 - eta)^(n1 - k), is the probability that
    exactly k of the n1 single photons survive."""
    first = plans[0]
    stages, keys = [], np.zeros(len(plans), dtype=np.int64)
    if first.n1 > 0:
        n1, eta = first.n1, first.eta
        table = build_likelihood_table(make_single_photon(), 1.0 if lossless_singles else eta)
        cmat = _engine.table_matrix(table) if lossless_singles else table.matrix
        weights = tuple(math.comb(n1, k) * eta ** k * (1.0 - eta) ** (n1 - k)
                        for k in range(n1 + 1)) if lossless_singles else ()
        stages.append(_Stage(n1, cmat, True, weights))
    for half_n, count, chi_of in ((1, first.n2, lambda p: p.chi2),
                                  (2, first.n4, lambda p: p.chi4)):
        if count:
            chis = sorted({chi_of(p) for p in plans})
            mats = [build_likelihood_table(make_loss_resistant(half_n, chi),
                                           first.eta).matrix for chi in chis]
            stages.append(_Stage(count, np.stack(mats) if mats[1:] else mats[0], False))
            keys = keys * len(chis) + [chis.index(chi_of(p)) for p in plans]
    return stages, keys


def _plan_stages(plan: SequencePlan, lossless_singles: bool) -> list[_Stage]:
    """One stage per state type, in the plan's detection order."""
    return _split_stages([plan], lossless_singles)[0]


def _merge_root_twins(children: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """The flat root's first child at twice its weight, for both.

    At theta = 0 the second child is the first with its odd harmonics
    negated: the same posterior rotated by pi.  Every kernel is covariant
    under that rotation, so the second subtree adds the sharpness of the
    first; scaling by 2 is exact, so the kept subtree's feedback is
    unchanged bit for bit.  Both premises are checked, not assumed.
    """
    d = np.arange(children.shape[2]) - (children.shape[2] - 1) // 2
    if not (children.shape[:2] == (1, 2) and np.all(thetas == 0.0)
            and np.array_equal(children[:, 1], children[:, 0] * (-1.0) ** d)):
        raise RuntimeError(
            "prefix root twins broken: at theta = 0 the second child of the "
            "flat root must be the first rotated by pi (odd harmonics negated)")
    return 2.0 * children[:, :1]


def _walk_tree(stages: list[_Stage]) -> np.ndarray:
    """Summed |leaf first harmonic| per key over the outcome tree.

    Each row carries its key.  Entering a stage with m chi values a row
    fans out to m rows, each with its own chi value's matrix; keys number
    the chi choices, first stage outermost.  A prefix stage (one with
    weights) is left at every depth k = 0..count: its rows go on scaled by
    weights[k] and zero-padded to the band of depth count, gathered into
    shared batches (with no next stage, the sharpness a depth-k row adds
    is scaled by weights[k + 1]).  So the weights live in the rows, as
    every branch probability does (see _engine).  At its step 0, the flat
    root, the prefix keeps one of its two pi-twin children at twice the
    weight (_merge_root_twins; only the pi half of the tree's symmetry is
    exact, see the module docstring).
    Depth-first in batches of at most _CHUNK_ROWS rows, fan-outs made a
    chunk at a time: this fixes the summation order and holds only a few
    chunks per depth.  At the last detection the children are not built:
    their summed |first harmonic| is the expected sharpness at the
    feedback just chosen.  Exactly zero rows (impossible outcomes) are
    dropped.  With no stages the sum is a single zero.
    """
    fans = [s.cmat.shape[0] if s.cmat.ndim == 3 else 1 for s in stages]
    strides = [math.prod(fans[si + 1:]) for si in range(len(fans))]
    mu = np.zeros(math.prod(fans))
    # (rows, key per row, first fanned-out row to walk, stage, step)
    pending = [(np.ones((1, 1), dtype=complex), np.zeros(1, dtype=np.int64), 0, 0, 0)]
    leaving: list[tuple[np.ndarray, np.ndarray]] = []  # prefix rows for stage 1
    while stages and (pending or leaving):
        if leaving and (not pending or sum(c.size for _, c in leaving) >= _CHUNK_ROWS):
            pending.append((*map(np.concatenate, zip(*leaving)), 0, 1, 0))
            leaving = []
        rows, cells, lo, si, step = pending.pop()
        fan = fans[si] if step == 0 else 1
        end = min(lo + _CHUNK_ROWS, rows.shape[0] * fan)
        if end < rows.shape[0] * fan:
            pending.append((rows, cells, end, si, step))
        flat = np.arange(lo, end)
        batch, cells = rows[flat // fan], cells[flat // fan] + flat % fan * strides[si]
        stage, last = stages[si], si == len(stages) - 1
        if stage.weights and not last:
            pad = ((0, 0), ((stage.count - step) * (stage.cmat.shape[-1] // 2),) * 2)
            leaving.append((np.pad(batch * stage.weights[step], pad), cells))
        if step == stage.count:
            continue
        cmat = stage.cmat if fans[si] == 1 else stage.cmat[cells // strides[si] % fans[si]]
        thetas = stage.thetas(batch, cmat)
        if last and (stage.weights or step == stage.count - 1):
            sharp = _engine.expected_sharpness_batch(batch, cmat, thetas)
            if stage.weights:
                sharp *= stage.weights[step + 1]
            mu += np.bincount(cells, sharp, mu.size)
            if step == stage.count - 1:
                continue
        children = _engine.advance_batch(batch, cmat, thetas)
        if stage.weights and step == 0:
            children = _merge_root_twins(children, thetas)
        n_out = children.shape[1]
        children = children.reshape(-1, children.shape[2])
        alive = np.flatnonzero(np.abs(children).max(axis=1) > 0.0)
        more = bool(stage.weights) or step + 1 < stage.count
        next_si, next_step = (si, step + 1) if more else (si + 1, 0)
        pending.append((children[alive], cells[alive // n_out], 0, next_si, next_step))
    return mu


def evaluate_exact(
    plan: SequencePlan, branch_guard: int = DEFAULT_BRANCH_GUARD
) -> EvaluationReport:
    """Exact mean sharpness by enumerating every outcome record."""
    t0 = time.perf_counter()
    _check_guard(plan, plan.exact_leaf_count(), branch_guard)
    mu = _walk_tree(_plan_stages(plan, lossless_singles=False))[0]
    return _report(float(mu), plan.exact_leaf_count(), "exact", time.perf_counter() - t0)


def evaluate_plans_with_speedup(
    plans: list[SequencePlan], branch_guard: int = DEFAULT_BRANCH_GUARD
) -> list[EvaluationReport]:
    """evaluate_exact_with_speedup for many plans, reports in input order.

    The plans of one split (n1, n2, n4, eta) walk as one tree over the
    product of their chi values; splits go in order of first appearance,
    each after a branch guard check naming its first plan.  A report's
    wall_time_s is its split's wall time divided by the split's plan count.
    """
    splits: dict[tuple, list[int]] = {}
    for i, p in enumerate(plans):
        splits.setdefault((p.n1, p.n2, p.n4, p.eta), []).append(i)
    reports: list[EvaluationReport] = [None] * len(plans)
    for idx in splits.values():
        t0 = time.perf_counter()
        first = plans[idx[0]]
        _check_guard(first, first.speedup_leaf_count(), branch_guard)
        stages, keys = _split_stages([plans[i] for i in idx], lossless_singles=True)
        mu = _walk_tree(stages)
        wall_s = (time.perf_counter() - t0) / len(idx)
        for i, key in zip(idx, keys):
            reports[i] = _report(float(mu[key]), first.speedup_leaf_count(),
                                 "exact_with_speedup", wall_s)
    return reports


def evaluate_exact_with_speedup(
    plan: SequencePlan, branch_guard: int = DEFAULT_BRANCH_GUARD
) -> EvaluationReport:
    """Exact evaluation with the single-photon loss branching removed: the
    2^n lossless records of each count n of surviving single photons are
    weighted binomially.  Identical to evaluate_exact up to rounding."""
    return evaluate_plans_with_speedup([plan], branch_guard)[0]


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
    return _report(mu, trials, "monte_carlo", time.perf_counter() - t0,
                   float(boot.std(ddof=1)))
