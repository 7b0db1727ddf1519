"""Exact and Monte Carlo evaluation of adaptive measurement sequences.

A sequence plan uses N1 single photons, then N2 two-photon and N4
four-photon loss-resistant states (grouped in that order).  The controlled
phase before each detection comes from the one-step feedback rule (closed
form for single photons; otherwise the best of 32 grid brackets on [0, pi),
refined by damped Newton inside that bracket, see `_engine`); averaging
over the unknown phase, the mean sharpness of the whole record is

    mu = sum over outcome records |first harmonic of the unnormalized
         posterior at the leaf|,

which the exact evaluator accumulates over the full outcome tree
(3^N1 6^N2 15^N4 records).  The sum over the children of a row at the last
detection is the expected sharpness that the feedback has just maximised
for that row, so the walk ends at the last feedback and never builds the
leaves; since that feedback builds no children, its Newton refinement may
stop on the gradient instead of the step (see `_engine._refine_newton`).
The reported record counts come from the plan in closed form.

The binomial speedup removes the all-lost branching of every stage: a
detection that loses all N of its photons multiplies the posterior by the
constant p0 = (1 - eta)^N alone, so it changes no later feedback.  A
record with j phase-carrying outcomes among the c detections of a stage
stands for the C(c, j) records that differ only in where its c - j
all-lost outcomes fall, each scaled by p0^(c - j).  So each stage
branches only on the outcomes whose likelihood depends on phase, and its
rows leave for the next stage at every depth j with that binomial weight.
For the single photons this is the familiar reduction to the 2^n records
of the n surviving photons, weighted by C(N1, n) eta^n (1 - eta)^(N1 - n).
p0 is read off each table's all-lost row, which is checked to carry no
phase, and the feedback is still chosen against the whole table.

The speedup walks a whole split (N1, N2, N4, eta) as one tree.  Rows
leaving a stage are zero-padded to one band and enter the next stage in
shared chunks; at each stage a row fans out to the stage's chi values
(its key records them) and uses its own table, via per-row likelihood
stacks.  The weights live in the rows, as every branch probability does,
so the walk sums one mu per key.  evaluate_exact is the same walker with
one key and unmerged stages, which branch on every outcome.

The root of the single-photon stage is flat, so its feedback is
theta = 0 and its two children are twins: the second is the first
rotated by pi (odd harmonics negated).  Every table has the port-swap
symmetry (see _engine), so a pi rotation leaves each feedback choice as
it is and only rotates and permutes the children: the two subtrees add
the same sharpness up to rounding, and the speedup walks the first at
twice its weight, half the single-photon rows.  The twin premise is
checked exactly on every walk.  The tree's other symmetry, the mirror
phi -> -phi, is not merged: numeric feedback breaks near-ties toward the
smallest theta, which is not mirror-covariant, and merging mirror twins
moved mu by 2e-10 on an N=13 split.  evaluate_exact merges nothing and
stays the reference.  Plans beyond the enumeration guard are handled by
a seeded Monte Carlo estimator.

The Monte Carlo walks the distinct outcome records it samples: a trial's
posterior, and so its feedback, depends only on its record, so the
feedback and the Bayes update run once per distinct record and each
trial looks its row up (3, 9, 54, 324 and about 3,900 records after the
first five detections of 16,384 N=30-row trials).  The draws stay per
trial.  Results match the per-trial walk to rounding, not bit for bit:
numpy's complex products of a strided column round differently at
different row counts (residuals within 1e-11 on the N=30 SQL row).
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
        if not 0.0 <= self.chi2 <= 2.0:
            raise ValueError(f"chi2={self.chi2} outside [0, 2]")
        if not 0.0 <= self.chi4 <= 2.0:
            raise ValueError(f"chi4={self.chi4} outside [0, 2]")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta={self.eta} outside [0, 1]")

    @property
    def total_photons(self) -> int:
        return self.n1 + 2 * self.n2 + 4 * self.n4

    def exact_leaf_count(self) -> int:
        return 3 ** self.n1 * 6 ** self.n2 * 15 ** self.n4

    def speedup_leaf_count(self) -> int:
        """Records of the merged walk: every stage branches on its 2, 5 or
        14 phase-carrying outcomes and its rows leave at every depth.  The
        merge of the root's pi twins is not counted."""
        return ((2 ** (self.n1 + 1) - 1) * ((5 ** (self.n2 + 1) - 1) // 4)
                * ((14 ** (self.n4 + 1) - 1) // 13))


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
    # Merged stages only: the all-lost probability p0 of each chi value.
    # The all-lost outcome (the table's last row) is not branched on; its
    # records leave as binomial weights instead (see _walk_tree).
    lost: np.ndarray | None = None

    def thetas(self, batch: np.ndarray, cmat: np.ndarray | None = None) -> np.ndarray:
        """Feedback per row against cmat (default: own); kernels looked up per call."""
        if self.single_photon:
            return _engine.closed_form_theta_batch(batch)
        return _engine.numeric_theta_batch(batch, self.cmat if cmat is None else cmat)

    def sharpened(self, batch: np.ndarray, cmat: np.ndarray,
                  settle: bool) -> tuple[np.ndarray, np.ndarray]:
        """Feedback per row and the expected sharpness at it; settle for a
        feedback whose theta builds no children."""
        if self.single_photon:
            thetas = _engine.closed_form_theta_batch(batch)
            return thetas, _engine.expected_sharpness_batch(batch, cmat, thetas)
        return _engine._theta_and_sharpness(batch, cmat, settle)


def _all_lost(mats: np.ndarray) -> np.ndarray:
    """p0 of each table: the (L = N, k = 0) row, the last, at d = 0.

    Losing every photon multiplies the posterior by p0 alone, which is
    what lets a merged stage turn that outcome into weights; a row that
    is not p0 at d = 0 and zero elsewhere is rejected, not assumed away.
    """
    rows = mats[:, -1, :]
    p0 = rows[:, rows.shape[1] // 2].real
    expect = np.zeros_like(rows)
    expect[:, rows.shape[1] // 2] = p0
    if not np.array_equal(rows, expect):
        raise RuntimeError(
            "all-lost row broken: the (L = N, k = 0) outcome must be a real "
            "constant p0 at d = 0 and zero elsewhere")
    return p0


def _split_stages(plans: list[SequencePlan],
                  merge_lost: bool) -> tuple[list[_Stage], np.ndarray]:
    """The stages of one split (n1, n2, n4, eta) in detection order, and
    each plan's key: its index in the product of the multi-photon stages'
    sorted distinct chi values.  merge_lost makes every stage merged:
    each carries the all-lost probability of each of its chi values."""
    first = plans[0]
    stages, keys = [], np.zeros(len(plans), dtype=np.int64)
    for n_photons, count, chi_of in ((1, first.n1, lambda p: 0.0),
                                     (2, first.n2, lambda p: p.chi2),
                                     (4, first.n4, lambda p: p.chi4)):
        if count:
            chis = sorted({chi_of(p) for p in plans})
            mats = np.stack([build_likelihood_table(
                make_single_photon() if n_photons == 1
                else make_loss_resistant(n_photons // 2, chi), first.eta).matrix
                for chi in chis])
            stages.append(_Stage(count, mats if chis[1:] else mats[0], n_photons == 1,
                                 _all_lost(mats) if merge_lost else None))
            keys = keys * len(chis) + [chis.index(chi_of(p)) for p in plans]
    return stages, keys


def _plan_stages(plan: SequencePlan) -> list[_Stage]:
    """One unmerged stage per state type, in the plan's detection order."""
    return _split_stages([plan], merge_lost=False)[0]


def _merge_root_twins(children: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """The flat root's first child at twice its weight, for both.

    At theta = 0 the second child is the first with its odd harmonics
    negated: the same posterior rotated by pi.  Every kernel is covariant
    under that rotation, so the second subtree adds the sharpness of the
    first; scaling by 2 is exact, so the kept subtree's feedback is
    unchanged bit for bit.  Both premises are checked, not assumed.
    """
    d = _engine._band(children.shape[2])
    if not (children.shape[:2] == (1, 2) and np.all(thetas == 0.0)
            and np.array_equal(children[:, 1], children[:, 0] * (-1.0) ** d)):
        raise RuntimeError(
            "single-photon root twins broken: at theta = 0 the second child "
            "of the flat root must be the first rotated by pi (odd harmonics "
            "negated)")
    return 2.0 * children[:, :1]


def _walk_tree(stages: list[_Stage]) -> np.ndarray:
    """Summed |leaf first harmonic| per key over the outcome tree.

    Each row carries its key.  Entering a stage with m chi values a row
    fans out to m rows, each with its own chi value's matrix; keys number
    the chi choices, first stage outermost.  A row's depth j in a stage
    of count c is the number of detections it has branched on there.
    An unmerged stage branches on every outcome, so its rows all reach
    depth c and leave for the next stage there.  A merged stage does not
    branch on the all-lost outcome, which only scales the posterior by its
    row's p0: the c - j all-lost detections of a depth-j record can fall
    in C(c, j) places, so its rows leave at every depth j, scaled by
    C(c, j) p0^(c - j) and zero-padded to the band of depth c, and are
    gathered into shared batches per stage.  A zero weight (eta = 1)
    leaves no row.  So the weights live in the rows, as every branch
    probability does (see _engine).  The feedback is still chosen against
    the whole table, all-lost row included, as in the unmerged walk.

    At the last detection the children are not built: their summed |first
    harmonic| is the expected sharpness S at the feedback just chosen,
    and that feedback stops on its gradient (the settled kernel).  In a
    merged last stage every depth j < c counts S, scaled by C(c - 1, j)
    p0^(c - 1 - j): the number and weight of the unmerged nodes at the
    last detection that a depth-j row stands for.  At the flat root of a
    merged first single-photon stage the walk keeps one of its two pi-twin
    children at twice the weight (_merge_root_twins; only the pi half of
    the tree's symmetry is exact, see the module docstring).
    Depth-first in batches of at most _CHUNK_ROWS rows, fan-outs made a
    chunk at a time: this fixes the summation order and holds only a few
    chunks per depth.  Exactly zero rows (impossible outcomes) are
    dropped.  With no stages the sum is a single zero.
    """
    fans = [s.cmat.shape[0] if s.cmat.ndim == 3 else 1 for s in stages]
    strides = [math.prod(fans[si + 1:]) for si in range(len(fans))]
    lost = [np.zeros(fan) if s.lost is None else s.lost for s, fan in zip(stages, fans)]
    mu = np.zeros(math.prod(fans))
    # (rows, key per row, first fanned-out row to walk, stage, depth)
    pending = [(np.ones((1, 1), dtype=complex), np.zeros(1, dtype=np.int64), 0, 0, 0)]
    leaving: list[list] = [[] for _ in stages]  # rows that left stage si
    while stages and (pending or any(leaving)):
        for si, out in enumerate(leaving):
            if out and (not pending or sum(c.size for _, c in out) >= _CHUNK_ROWS):
                pending.append((*map(np.concatenate, zip(*out)), 0, si + 1, 0))
                leaving[si] = []
        rows, cells, lo, si, step = pending.pop()
        fan = fans[si] if step == 0 else 1
        end = min(lo + _CHUNK_ROWS, rows.shape[0] * fan)
        if end < rows.shape[0] * fan:
            pending.append((rows, cells, end, si, step))
        flat = np.arange(lo, end)
        batch, cells = rows[flat // fan], cells[flat // fan] + flat % fan * strides[si]
        stage, count, last = stages[si], stages[si].count, si == len(stages) - 1
        chi = cells // strides[si] % fans[si]
        if not last:
            weight = math.comb(count, step) * lost[si][chi] ** (count - step)
            keep = np.flatnonzero(weight)
            if keep.size:
                pad = ((0, 0), ((count - step) * (stage.cmat.shape[-1] // 2),) * 2)
                leaving[si].append((np.pad(batch[keep] * weight[keep, None], pad),
                                    cells[keep]))
            if step == count:
                continue
        cmat = stage.cmat if fans[si] == 1 else stage.cmat[chi]
        settle = last and step == count - 1
        if last and (settle or lost[si].any()):
            thetas, sharp = stage.sharpened(batch, cmat, settle)
            weight = math.comb(count - 1, step) * lost[si][chi] ** (count - 1 - step)
            mu += np.bincount(cells, sharp * weight, mu.size)
            if settle:
                continue
        else:
            thetas = stage.thetas(batch, cmat)
        merged = stage.lost is not None
        children = _engine.advance_batch(batch, cmat[..., :-1, :] if merged else cmat,
                                         thetas)
        if merged and stage.single_photon and si == step == 0:
            children = _merge_root_twins(children, thetas)
        n_out = children.shape[1]
        children = children.reshape(-1, children.shape[2])
        alive = np.flatnonzero(np.abs(children).max(axis=1) > 0.0)
        pending.append((children[alive], cells[alive // n_out], 0, si, step + 1))
    return mu


def evaluate_exact(
    plan: SequencePlan, branch_guard: int = DEFAULT_BRANCH_GUARD
) -> EvaluationReport:
    """Exact mean sharpness by enumerating every outcome record."""
    t0 = time.perf_counter()
    _check_guard(plan, plan.exact_leaf_count(), branch_guard)
    mu = _walk_tree(_plan_stages(plan))[0]
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
        stages, keys = _split_stages([plans[i] for i in idx], merge_lost=True)
        mu = _walk_tree(stages)
        wall_s = (time.perf_counter() - t0) / len(idx)
        for i, key in zip(idx, keys):
            reports[i] = _report(float(mu[key]), first.speedup_leaf_count(),
                                 "exact_with_speedup", wall_s)
    return reports


def evaluate_exact_with_speedup(
    plan: SequencePlan, branch_guard: int = DEFAULT_BRANCH_GUARD
) -> EvaluationReport:
    """Exact evaluation with the all-lost outcome of every stage folded
    into binomial weights (see the module docstring).  Identical to
    evaluate_exact up to rounding; branches_evaluated is the merged walk's
    record count, speedup_leaf_count."""
    return evaluate_plans_with_speedup([plan], branch_guard)[0]


def _simulate_chunk(stages: list[_Stage], rng: np.random.Generator,
                    n_trials: int) -> np.ndarray:
    """Per-trial residuals exp(i(phi_hat - phi)) for one batch of trials.

    A trial's posterior, and so its feedback, depends only on its outcome
    record, so the walk keeps one row per distinct record drawn so far
    (nodes) and each trial's index into them (node).  The feedback runs
    once per node; the outcome probabilities and draws stay per trial, in
    the same order of rng calls.  The drawn children are numbered by
    np.unique, and only the distinct ones are updated and normalised.

    All nodes live in one (n_trials, 2J + 1) buffer, J the plan's total
    band order, preallocated with the root at row 0's centre; the live
    nodes are the view of its first rows over the current band, which the
    feedback and first_harmonic read.  The update writes the children in
    place: np.unique sorts them by parent and every node has a child, so
    child i's parent is at most i, and blocks of _engine._BLOCK_ROWS
    children, taken from the last down, each gather their parents before
    overwriting rows no lower block still reads.  So one generation of
    nodes is alive, and the feedback's row blocks stay below it.  Every
    row is computed as in a single pass, bit for bit.
    """
    phi = rng.uniform(0.0, 2.0 * math.pi, n_trials)
    top = sum(stage.count * (stage.cmat.shape[-1] // 2) for stage in stages)
    buf = np.zeros((n_trials, 2 * top + 1), dtype=complex)
    buf[0, top] = 1.0
    half = 0
    nodes = buf[:1, top: top + 1]
    node = np.zeros(n_trials, dtype=np.int64)
    for stage in stages:
        n_out = stage.cmat.shape[0]
        for _ in range(stage.count):
            node_thetas = stage.thetas(nodes)
            cdf = np.cumsum(np.clip(
                _engine.outcome_probabilities(stage.cmat, phi - node_thetas[node]).real,
                0.0, None), axis=1)
            cdf /= cdf[:, -1:]
            picks = (rng.random(n_trials)[:, None] > cdf).sum(axis=1)
            child, node = np.unique(node * n_out + picks, return_inverse=True)
            del cdf, picks  # per trial: not kept through the next feedback
            parent = child // n_out
            band = slice(top - half, top + half + 1)
            half += stage.cmat.shape[-1] // 2
            wide = slice(top - half, top + half + 1)
            for lo in reversed(range(0, child.size, _engine._BLOCK_ROWS)):
                rows = slice(lo, min(lo + _engine._BLOCK_ROWS, child.size))
                block = _engine.advance_selected(buf[parent[rows], band], stage.cmat,
                                                 child[rows] % n_out,
                                                 node_thetas[parent[rows]])
                norms = np.abs(block).max(axis=1)
                norms[norms == 0.0] = 1.0
                block /= norms[:, None]
                buf[rows, wide] = block
            nodes = buf[:child.size, wide]
    phi_hat = np.angle(_engine.first_harmonic(nodes))[node]
    return np.exp(1j * (phi_hat - phi))


def evaluate_monte_carlo(
    plan: SequencePlan, trials: int, rng_seed: int
) -> EvaluationReport:
    """Sampled estimate of the mean sharpness, with its standard error.

    Each trial draws the unknown phase uniformly, runs the adaptive
    sequence sampling outcomes from the true probabilities, and estimates
    the phase as the argument of the posterior's first harmonic; mu is
    |mean of exp(i(phi_hat - phi))| over trials.  The error bar is mu's
    first-order standard error: the population std of the residuals
    projected on the direction of their mean, over sqrt(trials) (0 for
    one trial; np.angle(0) = 0 keeps it defined at a zero mean).  Fully
    reproducible for a given seed (trials are processed in fixed-size
    chunks).  Each chunk updates one posterior per distinct outcome
    record, not per trial (see _simulate_chunk), so its cost follows the
    records drawn.
    """
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    t0 = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence(rng_seed).spawn(1)[0])
    stages = _plan_stages(plan)
    residuals = np.empty(trials, dtype=complex)
    done = 0
    while done < trials:
        n = min(_MC_CHUNK, trials - done)
        residuals[done: done + n] = _simulate_chunk(stages, rng, n)
        done += n
    mean = residuals.mean()
    along = (residuals * np.exp(-1j * np.angle(mean))).real
    return _report(float(abs(mean)), trials, "monte_carlo", time.perf_counter() - t0,
                   float(along.std() / math.sqrt(trials)))
