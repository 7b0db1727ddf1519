"""Exact and Monte Carlo evaluation of adaptive measurement sequences.

A plan uses N1 single photons, then N2 two-photon and N4 four-photon
loss-resistant states, in that order, with `_engine`'s one-step feedback
before each detection.  Averaged over the unknown phase, the mean sharpness
of the whole record is

    mu = sum over outcome records |first harmonic of the unnormalized
         posterior at the leaf|.

Every evaluator is one walk of the outcome tree, `_walk_tree`.  These are
the derivations it rests on.

Last detection.  The summed |first harmonic| of a row's children at the
last detection is the expected sharpness S that the feedback has just
maximised, so the walk scores S there and never builds the leaves; that
theta builds no children, so its Newton may also stop on the gradient.

All-lost merge (the speedup).  A detection that loses all N photons
multiplies the posterior by the constant p0 = (1 - eta)^N and changes no
later feedback.  A record with j phase-carrying outcomes among the c
detections of a stage stands for the C(c, j) records that differ only in
where its c - j all-lost outcomes fall.  So a merged stage branches only on
the phase-carrying outcomes, and its rows leave for the next stage at every
depth j, scaled by C(c, j) p0^(c - j).  The last detection is scored, not
branched on, so in the last stage a depth-j row scores S scaled by
C(c - 1, j) p0^(c - 1 - j).  p0 is read off each table's all-lost row,
which is checked to carry no phase; the feedback still sees the whole
table.  The plans of one split (N1, N2, N4, eta) walk as one tree, whose
rows fan out over each stage's chi values and carry them as a key.

Root pi twins.  The flat single-photon root's feedback is 0, so its second
child is the first rotated by pi (odd harmonics negated).  Every table has
the port-swap symmetry of `detection`, so the two subtrees add the same
sharpness, and the merged walk keeps the first at twice its weight; both
premises are checked on every walk.  The mirror phi -> -phi is not merged:
the feedback breaks near-ties toward the smallest theta, which is not
mirror-covariant.

Bit-identical fold.  evaluate_exact merges no records and stays the
reference.  Yet an all-lost outcome scales the posterior by the real
constant p0 and a flat posterior's feedback is exactly 0, so the records
(+, lost) and (lost, +) hold the same bits, and so do their subtrees.  Each
chunk of an unmerged stage keeps one row of every group equal bit for bit
and of one key, counted by the group's size: only the order of the final
sum changes.

Sampled walk (Monte Carlo).  Plans beyond the branch guard are sampled over
the same merged stages; a row's count is its trials, and the root holds all
of them.  Losing all photons does not depend on the phase, the feedback or
the record, so the number M of a trial's phase-carrying outcomes among the
c detections of a stage (c - 1 in the last) is Binomial(c, 1 - p0).  A
depth-j row stops its trials with M = j by one binomial draw at
h_j = P(M = j | M >= j), and one multinomial draw splits the rest among the
phase-carrying outcomes at the predictive probabilities a0(child) / a0(row).
Only drawn children are built, normalized to a0 = 1, so the records reaching
the last detection are distributed as the first N - 1 outcomes of trials at
uniform true phases, less the all-lost outcomes, which only scale the
posterior.  Given a whole record, the residual exp(i(phi_hat - phi)) has
mean |a1| / a0; averaged over the last outcome that is S / a0 = S.  So each
record scores S, and the mean score estimates mu without bias and with less
variance than the residuals: it is their Rao-Blackwellisation (Casella and
Robert, Biometrika 83, 81 (1996)).  The sampled walk keeps both pi twins.

Only rows of nonzero score add to the sum: in a sampled walk those that
stop trials, in the others those of nonzero weight, which an unmerged
stage's rows below full depth lack.  So every walk scores S on those rows
alone, though every row gets its feedback, which its children or its
other trials need.  And a sampled feedback builds no exact subtree: a
theta off in its last bits moves a draw only if a uniform falls that close
to a boundary, and S, at its maximum, only to second order.  So every
numeric feedback of a sampled walk takes the settled stop, which ends in
Newton's quadratic regime, while the exact and merged walks settle the
last detection alone and stay bit for bit.

Harmonic horizon.  A detection whose table has order q (q = 1, 2 or 4, its
photon number) reads a row's harmonics 1 - q..1 + q for the feedback and
the expected sharpness, -q..q for the predictive probabilities and a0 for
the normalization, and its child's harmonic k is sum_d c_d a_(k-d) over
|d| <= q.  So the detections ahead of a row at depth step of stage si
read at most its harmonics |k| <= H = 1 + q_si (count_si - step) + sum over
the later stages of q_s count_s: at the last detection H = 1 + q, and one
depth up H grows by q, just what the child's harmonics inside its own H
read of the parent.  A sampled row keeps only |k| <= min(its band, H):
advance_batch builds only those (its keep), and rows leaving a stage
are cut, or padded, to the next stage's H at depth 0.  Every kept harmonic
has the bits it has in the whole row, since a one-outcome product does not
round with its output width (`_engine`), so no mu or error bar moves.
Exact and merged walks keep whole rows.  Their advance_batch multiplies
several outcomes at once, which rounds with the output width; cutting
after that product costs a copy, and rows that then agree bit for bit fold
in evaluate_exact, which moves mu in the last bits.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from lossyphase import _engine
from lossyphase.detection import build_likelihood_table
from lossyphase.posterior import variance_from_sharpness
from lossyphase.states import _require_integer, _require_real, _state_for

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
# Rows per chunk of an exact or merged walk, and of a sampled walk, whose
# chunk size fixes every Monte Carlo mu (README, "Performance notes", chunks
# and blocks).
_CHUNK_ROWS = 256
_SAMPLE_ROWS = 1024


class BranchGuardError(RuntimeError):
    """Work refused before it starts: a walk beyond DEFAULT_BRANCH_GUARD
    records, or an optimize or fisher-scan run beyond its work guard."""


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
        for name in ("n1", "n2", "n4"):
            _require_integer(name, getattr(self, name), least=0)
        for key, hi in (("chi2", 2.0), ("chi4", 2.0), ("eta", 1.0)):
            object.__setattr__(self, key, _require_real(key, getattr(self, key), 0.0, hi))

    @property
    def total_photons(self) -> int:
        return self.n1 + 2 * self.n2 + 4 * self.n4

    def exact_leaf_count(self) -> int:
        return 3 ** self.n1 * 6 ** self.n2 * 15 ** self.n4

    def speedup_leaf_count(self) -> int:
        """Records of the merged walk, the root's pi twins both counted."""
        return ((2 ** (self.n1 + 1) - 1) * ((5 ** (self.n2 + 1) - 1) // 4)
                * ((14 ** (self.n4 + 1) - 1) // 13))


@dataclass(frozen=True)
class EvaluationReport:
    """One plan's result; the plans of one split walk share its wall time
    equally."""

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


def _check_guard(plan: SequencePlan, total: int) -> None:
    if total > DEFAULT_BRANCH_GUARD:
        raise BranchGuardError(
            f"{total} leaves exceed the branch guard {DEFAULT_BRANCH_GUARD} for {plan}"
        )


@dataclass(frozen=True)
class _Stage:
    count: int
    cmat: np.ndarray  # (outcomes, d), or (chi values, outcomes, d) in a split
    # Merged stages only: p0 of each chi value (the all-lost merge).
    lost: np.ndarray | None = None

    def feedback(self, batch: np.ndarray, cmat: np.ndarray, *, settle: bool = False,
                 sharpness: bool = False):
        """Feedback per row against cmat and, with sharpness, the expected
        sharpness at it; settle as in `_engine.numeric_theta_batch`.  A
        single-photon table (order 1) takes the closed form."""
        if cmat.shape[-1] != 3:
            return _engine.numeric_theta_batch(batch, cmat, settle=settle,
                                               sharpness=sharpness)
        thetas = _engine.closed_form_theta_batch(batch)
        if not sharpness:
            return thetas
        return thetas, _engine.expected_sharpness_batch(batch, cmat, thetas)


def _all_lost(mats: np.ndarray) -> np.ndarray:
    """p0 of each table: its last, all-lost row at d = 0.  Raises
    RuntimeError unless that row is p0 at d = 0 and zero elsewhere."""
    rows = mats[:, -1, :]
    p0 = rows[:, rows.shape[1] // 2].real
    expect = np.zeros_like(rows)
    expect[:, rows.shape[1] // 2] = p0
    if not np.array_equal(rows, expect):
        raise RuntimeError(
            "all-lost row broken: the (L = N, k = 0) outcome must be a real "
            "constant p0 at d = 0 and zero elsewhere")
    return p0


def _stop_hazard(span: int, p0: np.ndarray) -> np.ndarray:
    """h[k, j] = P(M = j | M >= j) for M ~ Binomial(span, q = 1 - p0[k]).

    From h_span = 1 down, h_j = h_{j+1} p0 / (h_{j+1} p0 + q (span - j) /
    (j + 1)), by P(M = j + 1) / P(M = j) = q (span - j) / (p0 (j + 1)): no
    binomial coefficient is formed, so h stays finite for long stages and
    tiny or unit eta.  p0 is clipped to [0, 1], which it may miss by
    rounding at eta = 0.
    """
    p0 = p0.clip(0.0, 1.0)
    h = np.ones((p0.size, span + 1))
    for j in range(span - 1, -1, -1):
        kept = h[:, j + 1] * p0
        h[:, j] = kept / (kept + (1.0 - p0) * (span - j) / (j + 1))
    return h


def _split_stages(plans: list[SequencePlan],
                  merge_lost: bool) -> tuple[list[_Stage], np.ndarray]:
    """The stages of one split (n1, n2, n4, eta) in detection order, and
    each plan's key: its index in the product of the stages' sorted
    distinct chi values.  merge_lost makes every stage merged."""
    first = plans[0]
    stages, keys = [], np.zeros(len(plans), dtype=np.int64)
    for n_photons, count, chi_of in ((1, first.n1, lambda p: 0.0),
                                     (2, first.n2, lambda p: p.chi2),
                                     (4, first.n4, lambda p: p.chi4)):
        if count:
            chis = sorted({chi_of(p) for p in plans})
            mats = np.stack([build_likelihood_table(_state_for(n_photons, chi),
                                                    first.eta).matrix for chi in chis])
            stages.append(_Stage(count, mats if chis[1:] else mats[0],
                                 _all_lost(mats) if merge_lost else None))
            keys = keys * len(chis) + [chis.index(chi_of(p)) for p in plans]
    return stages, keys


def _plan_stages(plan: SequencePlan) -> list[_Stage]:
    """One unmerged stage per state type, in the plan's detection order."""
    return _split_stages([plan], merge_lost=False)[0]


def _merge_root_twins(children: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """The flat root's first child at twice its weight, for both (the root
    pi twins of the module docstring).  Raises RuntimeError unless theta
    is 0 and the second child is the first with odd harmonics negated."""
    d = _engine._band(children.shape[2])
    if not (children.shape[:2] == (1, 2) and np.all(thetas == 0.0)
            and np.array_equal(children[:, 1], children[:, 0] * (-1.0) ** d)):
        raise RuntimeError(
            "single-photon root twins broken: at theta = 0 the second child "
            "of the flat root must be the first rotated by pi (odd harmonics "
            "negated)")
    return 2.0 * children[:, :1]


@functools.lru_cache(maxsize=None)
def _key_multipliers(words: int) -> np.ndarray:
    """Odd 64-bit multipliers, one per word position of a row."""
    halves = np.random.default_rng(words).integers(0, 2 ** 63, words, dtype=np.uint64)
    return _engine._read_only(halves * np.uint64(2) + np.uint64(1))


def _fold_equal_rows(batch: np.ndarray, cells: np.ndarray,
                     counts: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each group of rows equal bit for bit and of one key as its first row,
    counted by the group's summed count, in order of first occurrence (the
    bit-identical fold of the module docstring).

    Equal rows have equal integer keys (their words times the multipliers,
    summed with wraparound, plus the cell), so distinct keys return the
    inputs untouched; a collision only costs the full fold.
    """
    words = batch.view(np.uint64)
    key = words @ _key_multipliers(words.shape[1]) + cells.view(np.uint64)
    key.sort()
    if (key[1:] != key[:-1]).all():
        return batch, cells, counts
    raw = np.concatenate([batch.view(np.uint8).reshape(batch.shape[0], -1),
                          cells.view(np.uint8).reshape(cells.size, -1)], axis=1)
    _, first, group = np.unique(raw.view(np.dtype((np.void, raw.shape[1])))[:, 0],
                                return_index=True, return_inverse=True)
    kept = np.sort(first)
    summed = np.zeros(kept.size, dtype=counts.dtype)
    np.add.at(summed, np.searchsorted(kept, first[group]), counts)
    return batch[kept], cells[kept], summed


def _index(rows: np.ndarray, size: int) -> np.ndarray | slice:
    """rows as an index into size rows: a slice of all of them, which
    gathers nothing, when rows holds all."""
    return slice(None) if rows.size == size else rows


def _walk_tree(stages: list[_Stage], rng: np.random.Generator | None = None,
               trials: int = 1) -> np.ndarray:
    """Per key, the count-weighted sum of the leaf terms |first harmonic|
    (row 0) and of the same terms times their sharpness (row 1); a single
    zero with no stages.

    Keys number the stages' chi choices, first stage outermost; a row's
    depth (step) counts the detections it has branched on in its stage.
    Stages with lost set are merged, the others branch on every outcome and fold
    bit-identical rows; with rng the walk samples trials records instead
    (see the module docstring for all three).  Rows go depth first in
    chunks of at most _CHUNK_ROWS, one kernel block, or when sampling of
    _SAMPLE_ROWS, where a chunk takes the whole rest of a batch once at
    most one more would remain; so the order of every sum is fixed.
    Exactly zero rows are skipped by index.  Once a chunk has taken its
    rows (a view or a gather of them), it holds no reference to its pending
    entry's rows or their index.
    """
    fans = [s.cmat.shape[0] if s.cmat.ndim == 3 else 1 for s in stages]
    strides = [math.prod(fans[si + 1:]) for si in range(len(fans))]
    lost = [np.zeros(fan) if s.lost is None else s.lost for s, fan in zip(stages, fans)]
    # Detections a stage's merged losses fall among: the last stage's last
    # detection is scored, not branched on.
    spans = [s.count - (si == len(stages) - 1) for si, s in enumerate(stages)]
    orders = [s.cmat.shape[-1] // 2 for s in stages]
    # 1 + the orders of the detections from stage si on: a sampled row at
    # (si, step) keeps |k| <= reach[si] - orders[si] step (the harmonic
    # horizon of the module docstring); a row that leaves stage si has the
    # half-width reach[0] - reach[si + 1].
    reach = [1 + sum(q * s.count for q, s in zip(orders[si:], stages[si:]))
             for si in range(len(stages) + 1)]
    if rng is not None:
        hazards = [_stop_hazard(span, p0) for span, p0 in zip(spans, lost)]
    sums = np.zeros((2, math.prod(fans)))
    chunk, spare = (_CHUNK_ROWS, 0) if rng is None else (_SAMPLE_ROWS,) * 2

    def enter(si, rows, cells, counts):  # rows entering stage si, each held once
        return rows, None, None, cells, counts, 0, si, 0

    # (rows, the row of rows each walked row reads or None for all, its
    #  (outcome, theta) or None, key and trials, first row to walk, stage,
    #  depth); at depth 0 walked row j is row j // fan at chi j % fan.
    pending = [enter(0, np.ones((1, 1), dtype=complex), np.zeros(1, dtype=np.int64),
                     np.array([trials]))] if stages else []
    leaving: list[list] = [[] for _ in stages]  # rows that left stage si
    while pending or any(leaving):
        for si, out in enumerate(leaving):
            if out and (not pending or sum(c.size for _, c, _ in out) >= chunk):
                pending.append(enter(si + 1, *map(np.concatenate, zip(*out))))
                leaving[si] = []
        rows, parent, drawn, cells, counts, lo, si, step = pending.pop()
        fan = 1 if step else fans[si]
        end = lo + chunk
        if end + spare < cells.size * fan:
            pending.append((rows, parent, drawn, cells, counts, end, si, step))
        else:
            end = cells.size * fan
        stage, span, last = stages[si], spans[si], si == len(stages) - 1
        take = slice(lo, end) if fan == 1 else np.arange(lo, end) // fan
        batch = rows[take] if parent is None else rows[parent[take]]
        cells, counts = cells[take], counts[take]
        # An entry with chunks left keeps its arrays through pending.
        rows = parent = None
        if fan > 1:
            cells = cells + np.arange(lo, end) % fan * strides[si]
        if drawn is not None:
            outcome, theta = (a[take] for a in drawn)
            batch = _engine.advance_batch(batch, stage.cmat[outcome][:, None], theta,
                                          keep=reach[si] - orders[si] * step)[:, 0]
            batch /= batch[:, batch.shape[1] // 2].real[:, None]
        elif stage.lost is None:
            batch, cells, counts = _fold_equal_rows(batch, cells, counts)
        chi = cells // strides[si] % fans[si]
        cmat = stage.cmat if fans[si] == 1 else stage.cmat[chi]
        # Rows whose remaining merged detections all lose their photons.
        if rng is None:
            weight = math.comb(span, step) * lost[si][chi] ** (span - step)
            stopped = counts
        else:
            stopped = rng.binomial(counts, hazards[si][chi, step])
            weight, counts = (stopped > 0) * 1.0, counts - stopped
        # A sampled walk's feedback builds only sampled children: it settles.
        settle = rng is not None or step == span
        if last:
            # Only rows of nonzero score add to the sums, so S is taken on
            # them alone, fused with the feedback when every row scores.
            score = weight * stopped
            scored = np.flatnonzero(score)
            if scored.size == score.size:
                thetas, sharp = stage.feedback(batch, cmat, settle=settle, sharpness=True)
            else:
                thetas = stage.feedback(batch, cmat, settle=settle)
                if scored.size:
                    sharp = _engine.expected_sharpness_batch(
                        batch[scored], cmat if cmat.ndim == 2 else cmat[scored],
                        thetas[scored])
            if scored.size:
                terms = sharp * score[scored]
                sums += [np.bincount(cells[scored], terms, sums.shape[1]),
                         np.bincount(cells[scored], terms * sharp, sums.shape[1])]
        else:
            keep = np.flatnonzero(weight)
            if keep.size:
                # The stage's final half-width, cut to the next stage's
                # horizon when sampling.
                half, wide = batch.shape[1] // 2, reach[0] - reach[si + 1]
                if rng is not None:
                    wide = min(wide, reach[si + 1])
                cut, pad = max(half - wide, 0), max(wide - half, 0)
                left = np.zeros((keep.size, 2 * wide + 1), dtype=complex)
                keep = _index(keep, weight.size)
                np.multiply(batch[keep, cut:batch.shape[1] - cut], weight[keep, None],
                            out=left[:, pad:left.shape[1] - pad])
                leaving[si].append((left, cells[keep], stopped[keep]))
        # Only rows with trials left go on: every row of an exact walk.
        go = np.flatnonzero(counts)
        if step == span or not go.size:
            continue
        go = _index(go, counts.size)
        batch, cells, counts = batch[go], cells[go], counts[go]
        cmat = cmat if cmat.ndim == 2 else cmat[go]
        thetas = thetas[go] if last else stage.feedback(batch, cmat, settle=settle)
        branch = cmat if stage.lost is None else cmat[..., :-1, :]
        # The children read batch[parent]; source is each one's row of this chunk.
        if rng is not None:
            p = _engine.predictive_batch(batch, branch, thetas).clip(0.0)
            draws = rng.multinomial(counts, p / p.sum(axis=1, keepdims=True))
            parent, picks = np.nonzero(draws)
            source, drawn, counts = parent, (picks, thetas[parent]), draws[parent, picks]
            del p, draws
        else:
            children = _engine.advance_batch(batch, branch, thetas)
            if stage.lost is not None and orders[si] == 1 and si == step == 0:
                children = _merge_root_twins(children, thetas)
            n_out, batch = children.shape[1], children.reshape(-1, children.shape[2])
            # Skip exactly zero rows: != 0 is |entry| > 0 unless a row holds
            # NaN, which walks never make.
            alive = np.flatnonzero((batch != 0.0).any(axis=1))
            parent = None if alive.size == batch.shape[0] else alive
            source, drawn, counts = alive // n_out, None, counts[alive // n_out]
        pending.append((batch, parent, drawn, cells[source], counts, 0, si, step + 1))
    return sums


def evaluate_exact(plan: SequencePlan) -> EvaluationReport:
    """Exact mean sharpness by enumerating every outcome record; raises
    BranchGuardError beyond DEFAULT_BRANCH_GUARD records."""
    t0 = time.perf_counter()
    _check_guard(plan, plan.exact_leaf_count())
    mu = _walk_tree(_plan_stages(plan))[0, 0]
    return _report(float(mu), plan.exact_leaf_count(), "exact", time.perf_counter() - t0)


def evaluate_plans_with_speedup(plans: list[SequencePlan]) -> list[EvaluationReport]:
    """evaluate_exact_with_speedup for many plans, reports in input order.

    The plans of one split walk as one tree; splits go in order of first
    appearance, each after a branch guard check naming its first plan.
    """
    splits: dict[tuple, list[int]] = {}
    for i, p in enumerate(plans):
        splits.setdefault((p.n1, p.n2, p.n4, p.eta), []).append(i)
    reports: list[EvaluationReport] = [None] * len(plans)
    for idx in splits.values():
        t0 = time.perf_counter()
        first = plans[idx[0]]
        _check_guard(first, first.speedup_leaf_count())
        stages, keys = _split_stages([plans[i] for i in idx], merge_lost=True)
        mu = _walk_tree(stages)[0]
        wall_s = (time.perf_counter() - t0) / len(idx)
        for i, key in zip(idx, keys):
            reports[i] = _report(float(mu[key]), first.speedup_leaf_count(),
                                 "exact_with_speedup", wall_s)
    return reports


def evaluate_exact_with_speedup(plan: SequencePlan) -> EvaluationReport:
    """evaluate_exact up to rounding, by the all-lost merge of the module
    docstring; branches_evaluated is speedup_leaf_count."""
    return evaluate_plans_with_speedup([plan])[0]


def evaluate_monte_carlo(
    plan: SequencePlan, trials: int, rng_seed: int
) -> EvaluationReport:
    """Mean score of trials sampled records (the sampled walk of the module
    docstring) and its standard error, the population std of the scores
    over sqrt(trials): 0 for one trial and for a one-detection plan.  The
    same rng_seed, a non-negative integer, gives the same bits."""
    _require_integer("trials", trials, least=1)
    _require_integer("rng_seed", rng_seed, least=0)
    t0 = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence(rng_seed).spawn(1)[0])
    total, squares = _walk_tree(_split_stages([plan], merge_lost=True)[0], rng,
                                trials)[:, 0]
    mu = total / trials
    variance = max(squares / trials - mu * mu, 0.0)  # rounding can dip below 0
    return _report(float(mu), trials, "monte_carlo", time.perf_counter() - t0,
                   math.sqrt(variance / trials))
