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
stays the reference.

Plans beyond the enumeration guard are sampled by the same walk.  Its
rows are outcome records, each carrying the number of trials that drew
it; the root holds them all, and at each detection but the last a row
splits its trials among its outcomes with one multinomial draw at the
predictive probabilities a0(child) / a0(row).  So the records reaching
the last detection are distributed as the first N - 1 outcomes of trials
at uniformly drawn true phases.  Given a whole record, the residual
exp(i(phi_hat - phi)) has mean |a1| / a0, since phi_hat is the argument
of a1; averaged over the last outcome that is S / a0, the expected
sharpness at the last feedback.  So each row scores S (rows are kept at
a0 = 1), and the mean score estimates mu without bias and with far less
variance than the residuals: it is their Rao-Blackwellisation (Casella
and Robert, Biometrika 83, 81 (1996)).
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


def _walk_tree(stages: list[_Stage], rng: np.random.Generator | None = None,
               trials: int = 1) -> np.ndarray:
    """Per key, the summed |leaf first harmonic| over the outcome tree, and
    the sum of the same terms times their sharpness (rows 0 and 1).

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
    dropped.  With no stages the sums are a single zero.

    Every row also carries a trial count, which scales its terms: 1 in an
    exact walk.  With rng the walk samples the unmerged stages of one plan
    instead (see the module docstring): the root carries all trials, and
    at each detection but the last one multinomial draw per chunk splits
    every row's trials among its outcomes.  Only the drawn children are
    built, a chunk at a time from their parents' chunk, and normalized to
    a0 = 1; so each depth holds one parent chunk and a few integers per
    drawn child, whatever the trials.  A sampled walk takes chunks of
    _engine._BLOCK_ROWS rows and the whole rest of a batch once at most
    one more chunk would remain, so uneven draws leave no small calls.
    """
    fans = [s.cmat.shape[0] if s.cmat.ndim == 3 else 1 for s in stages]
    strides = [math.prod(fans[si + 1:]) for si in range(len(fans))]
    lost = [np.zeros(fan) if s.lost is None else s.lost for s, fan in zip(stages, fans)]
    sums = np.zeros((2, math.prod(fans)))
    chunk, spare = (_CHUNK_ROWS, 0) if rng is None else (_engine._BLOCK_ROWS,) * 2
    # (rows, key and trials per fanned-out or drawn row, draws or None,
    #  first row to walk, stage, depth)
    pending = [(np.ones((1, 1), dtype=complex), np.zeros(1, dtype=np.int64),
                np.array([trials]), None, 0, 0, 0)]
    leaving: list[list] = [[] for _ in stages]  # rows that left stage si
    while stages and (pending or any(leaving)):
        for si, out in enumerate(leaving):
            if out and (not pending or sum(c.size for _, c, _ in out) >= chunk):
                pending.append((*map(np.concatenate, zip(*out)), None, 0, si + 1, 0))
                leaving[si] = []
        rows, cells, counts, drawn, lo, si, step = pending.pop()
        fan = fans[si] if step == 0 else 1
        size = rows.shape[0] * fan if drawn is None else drawn[0].size
        end = lo + chunk
        if end + spare < size:
            pending.append((rows, cells, counts, drawn, end, si, step))
        else:
            end = size
        flat = np.arange(lo, end)
        stage, count, last = stages[si], stages[si].count, si == len(stages) - 1
        cells, counts = cells[flat // fan] + flat % fan * strides[si], counts[flat // fan]
        if drawn is None:
            batch = rows[flat // fan]
        else:
            parent, outcome, theta = (a[flat] for a in drawn)
            batch = _engine.advance_selected(rows[parent], stage.cmat, outcome, theta)
            batch /= batch[:, batch.shape[1] // 2].real[:, None]
        chi = cells // strides[si] % fans[si]
        if not last:
            weight = math.comb(count, step) * lost[si][chi] ** (count - step)
            keep = np.flatnonzero(weight)
            if keep.size:
                pad = ((0, 0), ((count - step) * (stage.cmat.shape[-1] // 2),) * 2)
                leaving[si].append((np.pad(batch[keep] * weight[keep, None], pad),
                                    cells[keep], counts[keep]))
            if step == count:
                continue
        cmat = stage.cmat if fans[si] == 1 else stage.cmat[chi]
        settle = last and step == count - 1
        if last and (settle or lost[si].any()):
            thetas, sharp = stage.sharpened(batch, cmat, settle)
            terms = sharp * (math.comb(count - 1, step)
                             * lost[si][chi] ** (count - 1 - step) * counts)
            sums += [np.bincount(cells, terms, sums.shape[1]),
                     np.bincount(cells, terms * sharp, sums.shape[1])]
            if settle:
                continue
        else:
            thetas = stage.thetas(batch, cmat)
        if rng is not None:
            w = _engine._g1_weights(batch, cmat, harmonic=0)  # a0 of every child
            p = np.einsum("bod,bd->bo", w, _engine._phases(thetas, w.shape[2])).real
            p = p.clip(0.0)
            draws = rng.multinomial(counts, p / p.sum(axis=1, keepdims=True))
            parent, outcome = np.nonzero(draws)
            pending.append((batch, cells[parent], draws[parent, outcome],
                            (parent, outcome, thetas[parent]), 0, si, step + 1))
            continue
        merged = stage.lost is not None
        children = _engine.advance_batch(batch, cmat[..., :-1, :] if merged else cmat,
                                         thetas)
        if merged and stage.single_photon and si == step == 0:
            children = _merge_root_twins(children, thetas)
        n_out = children.shape[1]
        children = children.reshape(-1, children.shape[2])
        alive = np.flatnonzero(np.abs(children).max(axis=1) > 0.0)
        pending.append((children[alive], cells[alive // n_out],
                        counts[alive // n_out], None, 0, si, step + 1))
    return sums


def evaluate_exact(
    plan: SequencePlan, branch_guard: int = DEFAULT_BRANCH_GUARD
) -> EvaluationReport:
    """Exact mean sharpness by enumerating every outcome record."""
    t0 = time.perf_counter()
    _check_guard(plan, plan.exact_leaf_count(), branch_guard)
    mu = _walk_tree(_plan_stages(plan))[0, 0]
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
        mu = _walk_tree(stages)[0]
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


def evaluate_monte_carlo(
    plan: SequencePlan, trials: int, rng_seed: int
) -> EvaluationReport:
    """Sampled estimate of the mean sharpness, with its standard error.

    The tree walk samples trials outcome records, drawn as a trial at a
    uniform unknown phase draws them, and mu is the mean of their scores,
    each record's conditional sharpness (see the module docstring).  The
    error bar is the population std of the scores over sqrt(trials): 0 for
    one trial, and for a plan of one detection, which draws nothing.  Fully
    reproducible for a given seed; the cost follows the distinct records
    drawn, and the memory a few chunks per depth, whatever the trials.
    """
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    t0 = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence(rng_seed).spawn(1)[0])
    total, squares = _walk_tree(_plan_stages(plan), rng, trials)[:, 0]
    mu = total / trials
    variance = max(squares / trials - mu * mu, 0.0)  # rounding can dip below 0
    return _report(float(mu), trials, "monte_carlo", time.perf_counter() - t0,
                   math.sqrt(variance / trials))
