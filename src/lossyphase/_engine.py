"""Vectorized batch primitives for posteriors and feedback.

Everything here operates on a batch of unnormalized posterior coefficient
vectors stacked as a (branches, 2J+1) complex matrix, all rows sharing one
harmonic band; each Bayes update returns the band widened by the
likelihood's order.  The public feedback functions and the sequence
evaluators are thin wrappers; keeping a single implementation guarantees
the scalar API and the tree traversal make bit-identical feedback
decisions.  The one exception is the last detection of a tree walk, whose
theta builds no children: there Newton may also stop on the gradient
(_theta_and_sharpness with settle), moving theta by far less than 1e-6.

All feedback objectives are scale-invariant, so rows may carry any positive
overall factor (branch probabilities are folded into the coefficients).
The numeric feedback runs in blocks of _BLOCK_ROWS rows, so that its
(rows, outcomes, d) weight stacks stay small on wide batches; rows are
independent, so blocking changes no bit.

Likelihoods are an (outcomes, d) matrix shared by all rows or, in
numeric_theta_batch, _theta_and_sharpness, advance_batch and
expected_sharpness_batch, a (rows, outcomes, d) stack of per-row
matrices.  They come from `OutcomeLikelihoodTable.matrix` (or are
SINGLE_FRINGE), so they carry the table's port-swap symmetry: shifting
theta by pi only permutes the outcomes, the expected sharpness has period
pi, and the feedback grid covers [0, pi) alone.
"""

from __future__ import annotations

import math

import numpy as np

GRID_POINTS = 32
THETA_GRID = math.pi * np.arange(GRID_POINTS) / GRID_POINTS
_GRID_STEP = math.pi / GRID_POINTS
_NEWTON_ITERS = 12
_NEWTON_TOL = 1e-12
# The settled stop of a feedback whose theta builds no children: a row
# also stops once its gradient is below _SETTLE_GRAD times the objective
# and its step below _SETTLE_STEP rad (see _refine_newton).
_SETTLE_GRAD = 1e-6
_SETTLE_STEP = 1e-6
# Rows per block of the numeric feedback (see the module docstring), and
# per chunk of a sampled tree walk (sequences._walk_tree).  Exact walks
# pass at most sequences._CHUNK_ROWS = 256 rows, one block.
_BLOCK_ROWS = 1024
# Relative slack for grid comparisons.  The refinement must behave as a
# smooth function of the posterior: the exact and binomial-speedup
# evaluators feed it inputs differing in the last bits, and any
# comparison sitting exactly on a tie would let the two walks diverge.
_SNAP = 1e-9


def _band(width: int) -> np.ndarray:
    """Harmonic indices d = -order..order of a band of width 2 order + 1."""
    order = (width - 1) // 2
    return np.arange(-order, order + 1)


def _phases(x, width: int) -> np.ndarray:
    """e^{-i x d} over the band, one row per entry of x."""
    return np.exp(-1j * np.multiply.outer(np.asarray(x, dtype=float), _band(width)))


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
    phases = _phases(THETA_GRID, w.shape[2]).T
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
    d = _band(w.shape[2])
    # Columns 0, 1, 2 give g and its first and second theta derivatives.
    deriv = np.stack([np.ones(d.size), -1j * d, -(d * d.astype(float))], axis=1)
    scale = np.abs(w).sum(axis=(1, 2)) + 1e-300
    curv_floor = 1e-9 * scale
    mag_floor = (1e-15 * scale)[:, None]
    theta = theta0.astype(float)
    rows = np.arange(theta.size)
    t = theta.copy()
    for _ in range(_NEWTON_ITERS):
        phases = _phases(t, d.size)
        g, g1, g2 = np.moveaxis(w @ (phases[:, :, None] * deriv), 2, 0)
        mag = np.abs(g)
        safe = mag + mag_floor
        inner = np.real(np.conj(g) * g1)
        mu1 = (inner / safe).sum(axis=1)
        mu2 = (
            (np.abs(g1) ** 2 + np.real(np.conj(g) * g2)) / safe
            - inner ** 2 / safe ** 3
        ).sum(axis=1)
        stepped = np.clip(t + mu1 / (np.abs(mu2) + curv_floor), lo, hi)
        theta[rows] = stepped
        step = np.abs(stepped - t)
        moving = step > _NEWTON_TOL
        if settle:
            moving &= ((np.abs(mu1) > _SETTLE_GRAD * mag.sum(axis=1))
                       | (step > _SETTLE_STEP))
        if not moving.all():
            rows, w, lo, hi = rows[moving], w[moving], lo[moving], hi[moving]
            curv_floor, mag_floor = curv_floor[moving], mag_floor[moving]
        t = stepped[moving]
        if not t.size:
            break
    return theta


def _theta_from_weights(w: np.ndarray, settle: bool) -> np.ndarray:
    """numeric_theta_batch on the weights _g1_weights built."""
    vals = _sharpness_grid(w)
    top = vals.max(axis=1, keepdims=True)
    idx = np.argmax(vals >= top * (1.0 - _SNAP), axis=1)
    rows = np.arange(w.shape[0])
    f_best = vals[rows, idx]
    f_prev = vals[rows, (idx - 1) % GRID_POINTS]
    f_next = vals[rows, (idx + 1) % GRID_POINTS]
    theta = THETA_GRID[idx].copy()
    margin = 1.0 + _SNAP
    refine = (f_best > f_prev * margin) & (f_best > f_next * margin)
    if np.any(refine):
        center = theta[refine]
        theta[refine] = _refine_newton(
            w[refine], center, center - _GRID_STEP, center + _GRID_STEP, settle
        )
    return np.mod(theta, 2.0 * math.pi)


def _blocked_feedback(batch: np.ndarray, cmat: np.ndarray, settle: bool,
                      sharpness: bool) -> tuple[np.ndarray, ...]:
    """_theta_from_weights, and with sharpness the expected sharpness at
    its theta, _BLOCK_ROWS rows at a time: each block builds and drops its
    own weights.  A per-row cmat stack is sliced with the batch; zero rows
    still run one (empty) block, so the outputs are empty float arrays."""
    parts = []
    for lo in range(0, max(batch.shape[0], 1), _BLOCK_ROWS):
        rows = slice(lo, lo + _BLOCK_ROWS)
        w = _g1_weights(batch[rows], cmat[rows] if cmat.ndim == 3 else cmat)
        theta = _theta_from_weights(w, settle)
        parts.append((theta, _sharpness_from_weights(w, theta)) if sharpness
                     else (theta,))
        del w
    return tuple(np.concatenate(column) for column in zip(*parts))


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
    return _blocked_feedback(batch, cmat, False, False)[0]


def _theta_and_sharpness(batch: np.ndarray, cmat: np.ndarray,
                         settle: bool) -> tuple[np.ndarray, np.ndarray]:
    """numeric_theta_batch and the expected sharpness at its theta, from
    one set of weights per block.  With settle, for a feedback whose theta
    builds no children, Newton also stops on the gradient (see
    _refine_newton)."""
    return _blocked_feedback(batch, cmat, settle, True)


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
    low = _harmonics(batch, 0, 2)
    # a and b are the projections of e^{i phi} and e^{2i phi} onto the
    # posterior (the first of these is what the sharpness reads off).
    a0 = low[:, 0]
    a = low[:, 1]
    b = 0.5 * low[:, 2]
    c = 0.5 * a0
    scale = np.abs(a0)
    scale = np.where(scale > 0.0, scale, 1.0)

    flat = (np.abs(a) <= 1e-13 * scale) & (np.abs(b) <= 1e-13 * scale)
    c1 = (np.conj(a) * c) ** 2 - (a * np.conj(b)) ** 2 \
        + 4.0 * (np.abs(b) ** 2 - np.abs(c) ** 2) * np.conj(b) * c
    c2 = -2j * np.imag(a * a * np.conj(b) * np.conj(c))
    degenerate = ~flat & (np.abs(c1) <= 1e-26 * scale ** 4)

    safe_c1 = np.where(c1 == 0.0, 1.0, c1)
    root = np.sqrt(c2 * c2 + np.abs(c1) ** 2)
    cand = np.stack(
        [
            np.angle(b * np.conj(a) - np.conj(c) * a),
            np.angle(np.sqrt((c2 + root) / safe_c1)),
            np.angle(np.sqrt((c2 - root) / safe_c1)),
        ],
        axis=1,
    )
    return np.mod(cand, 2.0 * math.pi), flat, degenerate


def closed_form_theta_batch(batch: np.ndarray) -> np.ndarray:
    """Best one-step controlled phase for a single-photon detection.

    Keeps the closed-form candidate with the largest expected sharpness.
    A flat posterior returns 0 by convention; the rare degenerate case
    c1 = 0 falls back to the numeric rule.  Photon loss only adds a
    theta-independent term, so the same phases stay optimal for every eta.
    """
    cand, flat, degenerate = closed_form_candidates(batch)
    w = _g1_weights(batch, SINGLE_FRINGE)
    mu = np.stack(
        [_sharpness_from_weights(w, cand[:, i]) for i in range(3)], axis=1
    )
    theta = cand[np.arange(batch.shape[0]), np.argmax(mu, axis=1)]
    theta = np.where(flat, 0.0, theta)
    if np.any(degenerate):
        theta[degenerate] = numeric_theta_batch(batch[degenerate], SINGLE_FRINGE)
    return theta


def _widen(batch: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """out[b, o, :] = posterior_b * sum_d coefs[b, o, d] e^{-i d phi}.

    The product's band is wider by the likelihood order on each side.
    Over the batch padded by twice the order, window[b, d, k] = pad[b, k + d]
    is a sliding-window view, so the correlation is one batched matrix
    product; the zeros outside the support make it exact.
    """
    order = (coefs.shape[-1] - 1) // 2
    n_b, n_c = batch.shape
    n_out = n_c + 2 * order
    pad = np.zeros((n_b, n_out + 2 * order), dtype=complex)
    pad[:, 2 * order: 2 * order + n_c] = batch
    return coefs @ np.lib.stride_tricks.sliding_window_view(pad, n_out, axis=1)


def advance_batch(batch: np.ndarray, cmat: np.ndarray,
                  thetas: np.ndarray) -> np.ndarray:
    """Unnormalized posteriors after one detection, for every outcome.

    Returns out[b, o, :] = coefficients of posterior_b * likelihood_o(theta_b),
    a band widened by the table's order on each side: (n_b, n_o, n_c + 2 order).
    """
    phases = _phases(thetas, cmat.shape[-1])
    return _widen(batch, cmat * phases[:, None, :])


def advance_selected(batch: np.ndarray, cmat: np.ndarray, picks: np.ndarray,
                     thetas: np.ndarray) -> np.ndarray:
    """The one-outcome case of advance_batch: outcome picks[b] for row b.

    Returns (n_b, n_c + 2 order).
    """
    coefs = cmat[picks] * _phases(thetas, cmat.shape[-1])
    return _widen(batch, coefs[:, None, :])[:, 0, :]


def outcome_probabilities(cmat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """P[b, o] at per-row phase difference x = phi - theta.

    Returns the complex Fourier sums as they are; their real part is the
    probability up to rounding, and callers decide how to check or clamp it.
    """
    return _phases(-x, cmat.shape[1]) @ cmat.T


def first_harmonic(batch: np.ndarray) -> np.ndarray:
    """g_1 per row: the projection of exp(i phi) onto each posterior."""
    return _harmonics(batch, 1, 1)[:, 0]
