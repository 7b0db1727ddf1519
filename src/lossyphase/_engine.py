"""Vectorized batch primitives for posteriors and feedback.

Everything here operates on a batch of unnormalized posterior coefficient
vectors stacked as a (branches, 2J+1) complex matrix, all rows sharing one
harmonic band; each Bayes update returns the band widened by the
likelihood's order.  The public feedback functions and the sequence
evaluators are thin wrappers; keeping a single implementation guarantees
the scalar API and the tree traversal make bit-identical feedback
decisions (tests/test_engine.py::TestViewsEqualKernels checks each
one-row view against a many-row call with ==).  The one exception is the
last detection of a tree walk, whose theta builds no children: there
Newton may also stop on the gradient (_theta_and_sharpness with settle),
moving theta by far less than 1e-6.

A one-row call, as the scalar API makes for every detection, costs
numpy's fixed per-call work far more than arithmetic, so the kernels keep
that work small without a second code path.  What depends on the band
width alone (_band, Newton's derivative columns _newton_deriv and the
grid's phases _grid_phases) is computed on first use per width, cached
and read-only; nothing is filled at import.  Newton and the closed form
pass several operands through one ufunc call where the elementwise
results are the same, and _widen builds its strided window with the
ndarray constructor.  Every output is the same bit for bit as the
one-call-per-operand form.

All feedback objectives are scale-invariant, so rows may carry any positive
overall factor (branch probabilities are folded into the coefficients).
The kernels whose temporaries grow with a wide batch (the numeric
feedback, the predictive probabilities and advance_selected) run in
blocks of _BLOCK_ROWS rows (_in_blocks), so that their (rows, outcomes, d)
stacks stay within a core's cache; rows are independent, so blocking
changes no bit.

Likelihoods are an (outcomes, d) matrix shared by all rows or, in
numeric_theta_batch, _theta_and_sharpness, advance_batch,
expected_sharpness_batch and predictive_batch, a (rows, outcomes, d) stack
of per-row matrices.  They come from `OutcomeLikelihoodTable.matrix` (or are
SINGLE_FRINGE), so they carry the table's port-swap symmetry: shifting
theta by pi only permutes the outcomes, the expected sharpness has period
pi, and the feedback grid covers [0, pi) alone.
"""

from __future__ import annotations

import functools
import math

import numpy as np

GRID_POINTS = 32
THETA_GRID = math.pi * np.arange(GRID_POINTS) / GRID_POINTS
_GRID_STEP = math.pi / GRID_POINTS
_NEIGHBOURS = np.array([-1, 0, 1])
_NEWTON_ITERS = 12
_NEWTON_TOL = 1e-12
# The settled stop of a feedback whose theta builds no children: a row
# also stops once its gradient is below _SETTLE_GRAD times the objective
# and its step below _SETTLE_STEP rad (see _refine_newton).
_SETTLE_GRAD = 1e-6
_SETTLE_STEP = 1e-6
# Rows per block of the blocked kernels (see the module docstring): a
# block's (rows, 15, 9) feedback weights take 0.55 MB, well inside a 2 MiB
# L2, where 1,024 rows took 2.2 MB.  Exact and merged walks pass at most
# sequences._CHUNK_ROWS = 256 rows, one block; a sampled walk's chunks,
# up to twice sequences._SAMPLE_ROWS rows, run in several.
_BLOCK_ROWS = 256
# Entries (rows times band width) from which _phases mirrors half the band:
# the mirrored form is slower on one-row calls and about even near 500.
_MIRROR_MIN = 512
# Relative slack for grid comparisons.  The refinement must behave as a
# smooth function of the posterior: the exact and binomial-speedup
# evaluators feed it inputs differing in the last bits, and any
# comparison sitting exactly on a tie would let the two walks diverge.
_SNAP = 1e-9


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=None)
def _band(width: int) -> np.ndarray:
    """Harmonic indices d = -order..order of a band of width 2 order + 1
    (cached per width, read-only)."""
    order = (width - 1) // 2
    return _read_only(np.arange(-order, order + 1))


@functools.lru_cache(maxsize=None)
def _grid_phases(width: int) -> np.ndarray:
    """(width, GRID_POINTS) phases of THETA_GRID over the band, the
    transposed view _sharpness_grid multiplies by (cached, read-only)."""
    return _read_only(_phases(THETA_GRID, width)).T


@functools.lru_cache(maxsize=None)
def _newton_deriv(width: int) -> np.ndarray:
    """(width, 3): columns 1, -i d and -d^2, which turn the phases into
    those of g and its first and second theta derivatives (cached,
    read-only)."""
    d = _band(width)
    return _read_only(np.stack([np.ones(d.size), -1j * d, -(d * d.astype(float))],
                               axis=1))


def _phases(x, width: int) -> np.ndarray:
    """e^{-i x d} over the band, one row per entry of x.

    From _MIRROR_MIN entries on, only d >= 0 is exponentiated and the
    d < 0 half is the conjugate of its mirror, which equals the direct
    exponential bit for bit (cos is even and sin odd), signed zeros
    included.  Below it the mirror's extra calls cost more than the
    exponentials they save.
    """
    # x[..., None] * d is np.multiply.outer(x, d) without its Python cost.
    x = np.asarray(x, dtype=float)[..., None]
    if x.size * width < _MIRROR_MIN:
        return np.exp(-1j * (x * _band(width)))
    order = (width - 1) // 2
    out = np.empty(x.shape[:-1] + (width,), dtype=complex)
    np.exp(-1j * (x * np.arange(order + 1)), out=out[..., order:])
    np.conjugate(out[..., :order:-1], out=out[..., :order])
    return out


def table_matrix(table) -> np.ndarray:
    """The table's outcome-major matrix, padded to the full band d = -N..N,
    without the outcomes whose likelihood vanishes identically (e.g. loss
    at eta = 1)."""
    return table.matrix[np.any(table.matrix != 0.0, axis=1)]


def _harmonics(batch: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Coefficients a_lo..a_hi of every row, zero outside the stored band."""
    center = (batch.shape[1] - 1) // 2
    out = np.zeros((batch.shape[0], hi - lo + 1), dtype=complex)
    first, last = max(lo, -center), min(hi, center)
    if first <= last:
        out[:, first - lo: last - lo + 1] = batch[:, center + first: center + last + 1]
    return out


def _g1_weights(batch: np.ndarray, cmat: np.ndarray, harmonic: int = 1) -> np.ndarray:
    """w[b,o,d] = c[o,d] * a_{h+d}[b]: everything the predicted harmonic h
    (default the first) of the unnormalized posterior needs, before the
    theta phases."""
    order = (cmat.shape[-1] - 1) // 2
    window = _harmonics(batch, harmonic - order, harmonic + order)
    return cmat * window[:, None, :]


def expected_sharpness_batch(batch: np.ndarray, cmat: np.ndarray,
                             thetas: np.ndarray) -> np.ndarray:
    """Sum over outcomes of |predicted first harmonic| at per-row theta."""
    w = _g1_weights(batch, cmat)
    return _sharpness_from_weights(w, np.asarray(thetas, dtype=float))


def _sharpness_from_weights(w: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    phases = _phases(thetas, w.shape[2])
    return np.abs(np.einsum("bod,bd->bo", w, phases)).sum(axis=1)


def _sharpness_grid(w: np.ndarray) -> np.ndarray:
    """(branches, GRID_POINTS) objective values on THETA_GRID."""
    phases = _grid_phases(w.shape[2])
    vals = np.zeros((w.shape[0], GRID_POINTS))
    for o in range(w.shape[1]):
        vals += np.abs(w[:, o, :] @ phases)
    return vals


def _refine_newton(w: np.ndarray, theta0: np.ndarray, lo: np.ndarray,
                   hi: np.ndarray, settle: bool) -> np.ndarray:
    """Curvature-damped ascent to the local objective maximum.

    Unlike bracketing searches this is a smooth map of the weights: runs on
    inputs that agree to rounding stay together instead of diverging once
    comparisons drop below the noise floor.  Steps are clamped to the
    bracket around the coarse grid winner; a row stops once its step is
    below _NEWTON_TOL, the rest after _NEWTON_ITERS steps.  With settle a
    row also stops, after taking its step, once the gradient before it was
    at most _SETTLE_GRAD times the objective and the step at most
    _SETTLE_STEP: the objective is then within about S'^2 / (2|S''|) of
    the maximum.  The gradient keeps a row going where a near-vanishing
    outcome harmonic makes the steps shrink faster than the gradient; the
    step bound keeps it going on a flat-topped maximum.
    """
    width = w.shape[2]
    deriv = _newton_deriv(width)
    scale = np.add.reduce(np.abs(w), axis=(1, 2)) + 1e-300
    curv_floor = 1e-9 * scale
    mag_floor = (1e-15 * scale)[:, None]
    theta = theta0.astype(float)
    rows = np.arange(theta.size)
    t = theta.copy()
    for _ in range(_NEWTON_ITERS):
        # (rows, outcomes, 3): g, g' and g'' of every outcome.  Each ufunc
        # below takes g and g' (or g' and g'') in one call; elementwise
        # results do not depend on the operands' layout.
        prod = w @ (_phases(t, width)[:, :, None] * deriv)
        mags = np.abs(prod[..., :2])
        cross = (np.conj(prod[..., :1]) * prod[..., 1:]).real
        mag, inner = mags[..., 0], cross[..., 0]
        safe = mag + mag_floor
        mu1 = np.add.reduce(inner / safe, axis=1)
        mu2 = np.add.reduce(
            (mags[..., 1] ** 2 + cross[..., 1]) / safe
            - inner ** 2 / safe ** 3, axis=1)
        stepped = (t + mu1 / (np.abs(mu2) + curv_floor)).clip(lo, hi)
        theta[rows] = stepped
        step = np.abs(stepped - t)
        moving = step > _NEWTON_TOL
        if settle:
            moving &= ((np.abs(mu1) > _SETTLE_GRAD * np.add.reduce(mag, axis=1))
                       | (step > _SETTLE_STEP))
        if moving.all():
            t = stepped
            continue
        rows, w, lo, hi = rows[moving], w[moving], lo[moving], hi[moving]
        curv_floor, mag_floor = curv_floor[moving], mag_floor[moving]
        t = stepped[moving]
        if not t.size:
            break
    return theta


def _theta_from_weights(w: np.ndarray, settle: bool) -> np.ndarray:
    """numeric_theta_batch on the weights _g1_weights built."""
    vals = _sharpness_grid(w)
    top = np.maximum.reduce(vals, axis=1, keepdims=True)
    idx = (vals >= top * (1.0 - _SNAP)).argmax(axis=1)
    # The winner and its two neighbours on the periodic grid, in one gather.
    f_prev, f_best, f_next = vals[np.arange(w.shape[0])[:, None],
                                  (idx[:, None] + _NEIGHBOURS) % GRID_POINTS].T
    theta = THETA_GRID[idx]
    margin = 1.0 + _SNAP
    refine = (f_best > f_prev * margin) & (f_best > f_next * margin)
    if refine.any():
        center = theta[refine]
        theta[refine] = _refine_newton(
            w[refine], center, center - _GRID_STEP, center + _GRID_STEP, settle
        )
    return np.mod(theta, 2.0 * math.pi)


def _in_blocks(kernel):
    """kernel(batch, cmat, *per_row, **options) run _BLOCK_ROWS rows at a
    time, its outputs (an array or a tuple of arrays) joined along rows.

    The batch, each per_row array and cmat when it is a per-row
    (rows, outcomes, d) stack are sliced per block; options pass as they
    are.  Each block builds and drops its own temporaries.  A batch of at
    most one block, zero rows included, goes to kernel unsliced.
    """
    @functools.wraps(kernel)
    def blocked(batch, cmat, *per_row, **options):
        if batch.shape[0] <= _BLOCK_ROWS:
            return kernel(batch, cmat, *per_row, **options)
        parts = []
        for lo in range(0, batch.shape[0], _BLOCK_ROWS):
            rows = slice(lo, lo + _BLOCK_ROWS)
            parts.append(kernel(batch[rows], cmat[rows] if cmat.ndim == 3 else cmat,
                                *(a[rows] for a in per_row), **options))
        if isinstance(parts[0], tuple):
            return tuple(np.concatenate(column) for column in zip(*parts))
        return np.concatenate(parts)
    return blocked


@_in_blocks
def _feedback(batch: np.ndarray, cmat: np.ndarray, *, settle: bool, sharpness: bool):
    """_theta_from_weights, and with sharpness the expected sharpness at
    its theta, from one set of weights."""
    w = _g1_weights(batch, cmat)
    theta = _theta_from_weights(w, settle)
    return (theta, _sharpness_from_weights(w, theta)) if sharpness else theta


def numeric_theta_batch(batch: np.ndarray, cmat: np.ndarray) -> np.ndarray:
    """Per-row feedback phase: the best of 32 grid brackets, refined.

    The expected sharpness is scanned on 32 points of [0, pi), one period
    of the objective for every table (see the module docstring); ties
    within a small relative slack go to the smallest theta.  Damped Newton
    then climbs inside the winner's bracket (which wraps around the
    period) until its step falls below 1e-12 rad.  This is not a
    guaranteed argmax: when two near-equal peaks lie in different brackets
    the grid can pick the lower one: 1.5% of the rows of the N=13 (7,1,1)
    split, short by at most 7.7e-5 relative, a measurement on that split
    and not a bound (the N=9 plan (1,2,2.0,1,0.25) has rows 1.19e-4
    short).  Plateaus skip refinement, so e.g. a flat prior returns
    exactly 0.
    """
    return _feedback(batch, cmat, settle=False, sharpness=False)


def _theta_and_sharpness(batch: np.ndarray, cmat: np.ndarray,
                         settle: bool) -> tuple[np.ndarray, np.ndarray]:
    """numeric_theta_batch and the expected sharpness at its theta, from
    one set of weights per block.  With settle, for a feedback whose theta
    builds no children, Newton also stops on the gradient (see
    _refine_newton)."""
    return _feedback(batch, cmat, settle=settle, sharpness=True)


# Single-photon fringe coefficients over d = -1..1 for the two detection
# outcomes (1 +- cos(phi-theta))/2; the eta-independent core used both for
# ranking closed-form candidates and as the numeric fallback.
SINGLE_FRINGE = np.array(
    [[0.25, 0.5, 0.25], [-0.25, 0.5, -0.25]], dtype=complex
)


def closed_form_candidates(batch: np.ndarray) -> tuple[np.ndarray, ...]:
    """Stationary phases of the single-photon expected sharpness.

    Returns (candidates, flat, degenerate): three candidate phases per row
    (theta_0, theta_+, theta_-) built from the posterior's first two
    harmonics and normalization, the rows whose posterior is flat, and the
    non-flat rows where c1 = 0 leaves theta_+- undefined (their entries
    are placeholders).
    """
    return _candidates(_harmonics(batch, 0, 2))


def _candidates(low: np.ndarray) -> tuple[np.ndarray, ...]:
    """closed_form_candidates from each row's a_0, a_1, a_2."""
    # a and b are the projections of e^{i phi} and e^{2i phi} onto the
    # posterior (the first of these is what the sharpness reads off).
    a0 = low[:, 0]
    a = low[:, 1]
    b = 0.5 * low[:, 2]
    c = 0.5 * a0
    conj_a, conj_b, conj_c = np.conj(a), np.conj(b), np.conj(c)
    abs_b = np.abs(b)
    scale = np.abs(a0)
    scale = np.where(scale > 0.0, scale, 1.0)

    flat = (np.abs(a) <= 1e-13 * scale) & (abs_b <= 1e-13 * scale)
    c1 = (conj_a * c) ** 2 - (a * conj_b) ** 2 \
        + 4.0 * (abs_b ** 2 - np.abs(c) ** 2) * conj_b * c
    c2 = -2j * (a * a * conj_b * conj_c).imag
    abs_c1 = np.abs(c1)
    degenerate = ~flat & (abs_c1 <= 1e-26 * scale ** 4)

    safe_c1 = np.where(c1 == 0.0, 1.0, c1)
    root = np.sqrt(c2 * c2 + abs_c1 ** 2)
    # One arctan2 (np.angle's own ufunc) takes all three angles.
    z = np.empty((low.shape[0], 3), dtype=complex)
    np.subtract(b * conj_a, conj_c * a, out=z[:, 0])
    np.sqrt((c2 + root) / safe_c1, out=z[:, 1])
    np.sqrt((c2 - root) / safe_c1, out=z[:, 2])
    return np.mod(np.arctan2(z.imag, z.real), 2.0 * math.pi), flat, degenerate


def closed_form_theta_batch(batch: np.ndarray) -> np.ndarray:
    """Best one-step controlled phase for a single-photon detection.

    Keeps the closed-form candidate with the largest expected sharpness.
    A flat posterior returns 0 by convention; the rare degenerate case
    c1 = 0 falls back to the numeric rule.  Photon loss only adds a
    theta-independent term, so the same phases stay optimal for every eta.
    """
    # a_0..a_2 give both the candidates and the weights (_g1_weights).
    low = _harmonics(batch, 0, 2)
    cand, flat, degenerate = _candidates(low)
    w = SINGLE_FRINGE * low[:, None, :]
    # All three candidates at once: mu[b, k] is the sharpness at cand[b, k].
    g = np.einsum("bod,bkd->bko", w, _phases(cand, w.shape[2]))
    mu = np.add.reduce(np.abs(g), axis=2)
    theta = cand[np.arange(batch.shape[0]), np.argmax(mu, axis=1)]
    theta = np.where(flat, 0.0, theta)
    if degenerate.any():
        theta[degenerate] = numeric_theta_batch(batch[degenerate], SINGLE_FRINGE)
    return theta


def _widen(batch: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """out[b, o, :] = posterior_b * sum_d coefs[b, o, d] e^{-i d phi}.

    The product's band is wider by the likelihood order on each side.
    Over the batch padded by twice the order, window[b, d, k] = pad[b, k + d]
    is a read-only strided view (_window), so the correlation is one
    batched matrix product; the zeros outside the support make it exact.
    """
    return coefs @ _window(batch, (coefs.shape[-1] - 1) // 2)


def _window(batch: np.ndarray, order: int) -> np.ndarray:
    """window[b, d, k] = pad[b, k + d] over the batch padded by 2 order
    zeros on each side: a read-only (rows, 2 order + 1, width + 2 order)
    view, made by the ndarray constructor rather than as_strided's
    Python wrapper."""
    n_b, n_c = batch.shape
    n_out = n_c + 2 * order
    pad = np.zeros((n_b, n_out + 2 * order), dtype=complex)
    pad[:, 2 * order: 2 * order + n_c] = batch
    s_b, s_k = pad.strides
    return _read_only(np.ndarray((n_b, 2 * order + 1, n_out), complex, pad, 0,
                                 (s_b, s_k, s_k)))


def advance_batch(batch: np.ndarray, cmat: np.ndarray,
                  thetas: np.ndarray) -> np.ndarray:
    """Unnormalized posteriors after one detection, for every outcome.

    Returns out[b, o, :] = coefficients of posterior_b * likelihood_o(theta_b),
    a band widened by the table's order on each side: (n_b, n_o, n_c + 2 order).
    """
    phases = _phases(thetas, cmat.shape[-1])
    return _widen(batch, cmat * phases[:, None, :])


@_in_blocks
def advance_selected(batch: np.ndarray, cmat: np.ndarray, picks: np.ndarray,
                     thetas: np.ndarray) -> np.ndarray:
    """The one-outcome case of advance_batch: outcome picks[b] for row b.

    Returns (n_b, n_c + 2 order).
    """
    coefs = cmat[picks] * _phases(thetas, cmat.shape[-1])
    return _widen(batch, coefs[:, None, :])[:, 0, :]


@_in_blocks
def predictive_batch(batch: np.ndarray, cmat: np.ndarray,
                     thetas: np.ndarray) -> np.ndarray:
    """a0 of every child at per-row theta: the predictive probability of
    each outcome times the row's a0, up to rounding (not clamped)."""
    w = _g1_weights(batch, cmat, harmonic=0)
    return np.einsum("bod,bd->bo", w, _phases(thetas, w.shape[2])).real


def outcome_probabilities(cmat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """P[b, o] at per-row phase difference x = phi - theta.

    Returns the complex Fourier sums as they are; their real part is the
    probability up to rounding, and callers decide how to check or clamp it.
    """
    return _phases(-x, cmat.shape[1]) @ cmat.T


def first_harmonic(batch: np.ndarray) -> np.ndarray:
    """g_1 per row: the projection of exp(i phi) onto each posterior."""
    return _harmonics(batch, 1, 1)[:, 0]
