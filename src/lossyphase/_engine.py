"""Vectorized batch primitives for posteriors and feedback.

Everything here operates on a batch of unnormalized posterior coefficient
vectors stacked as a (branches, 2J+1) complex matrix, all rows sharing one
harmonic band.  The public feedback functions and the sequence evaluators
are thin wrappers; keeping a single implementation guarantees the scalar
API and the tree traversal make bit-identical feedback decisions.

All feedback objectives are scale-invariant, so rows may carry any positive
overall factor (branch probabilities are folded into the coefficients).
"""

from __future__ import annotations

import math

import numpy as np

from lossyphase.detection import OutcomeLikelihoodTable, Outcome

GRID_POINTS = 64
THETA_GRID = 2.0 * math.pi * np.arange(GRID_POINTS) / GRID_POINTS
_GRID_STEP = 2.0 * math.pi / GRID_POINTS
_NEWTON_ITERS = 12
# Relative slack for grid comparisons.  The refinement must behave as a
# smooth function of the posterior: the exact and binomial-speedup
# evaluators feed it inputs differing in the last bits, and any
# comparison sitting exactly on a tie would let the two walks diverge.
_SNAP = 1e-9


def table_matrix(table: OutcomeLikelihoodTable,
                 drop_zero_rows: bool = False) -> tuple[np.ndarray, list[Outcome]]:
    """Outcome-major coefficient matrix padded to the full band d = -N..N.

    Returns (matrix, outcomes); with drop_zero_rows, outcomes whose
    likelihood vanishes identically (e.g. loss at eta = 1) are removed.
    """
    outs = table.outcomes
    if not drop_zero_rows:
        return table.matrix, outs
    keep = np.any(table.matrix != 0.0, axis=1)
    return table.matrix[keep], [o for o, k in zip(outs, keep) if k]


def _g1_weights(batch: np.ndarray, cmat: np.ndarray) -> np.ndarray:
    """w[b,o,d] = c[o,d] * a_{1+d}[b]: everything the predicted first
    harmonic of the unnormalized posterior needs, before the theta phases."""
    n_c = batch.shape[1]
    order = (cmat.shape[1] - 1) // 2
    center = (n_c - 1) // 2
    pad = np.pad(batch, ((0, 0), (order + 1, order + 1)))
    window = pad[:, center + 2: center + 2 * order + 3]
    return cmat[None, :, :] * window[:, None, :]


def expected_sharpness_batch(batch: np.ndarray, cmat: np.ndarray,
                             thetas: np.ndarray) -> np.ndarray:
    """Sum over outcomes of |predicted first harmonic| at per-row theta."""
    w = _g1_weights(batch, cmat)
    return _sharpness_from_weights(w, np.asarray(thetas, dtype=float))


def _sharpness_from_weights(w: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    order = (w.shape[2] - 1) // 2
    d = np.arange(-order, order + 1)
    phases = np.exp(-1j * np.multiply.outer(thetas, d))
    return np.abs(np.einsum("bod,bd->bo", w, phases)).sum(axis=1)


def _sharpness_grid(w: np.ndarray) -> np.ndarray:
    """(branches, GRID_POINTS) objective values on the coarse theta grid."""
    order = (w.shape[2] - 1) // 2
    d = np.arange(-order, order + 1)
    phases = np.exp(-1j * np.multiply.outer(d, THETA_GRID))
    vals = np.zeros((w.shape[0], GRID_POINTS))
    for o in range(w.shape[1]):
        vals += np.abs(w[:, o, :] @ phases)
    return vals


def _refine_newton(w: np.ndarray, theta0: np.ndarray, lo: np.ndarray,
                   hi: np.ndarray) -> np.ndarray:
    """Curvature-damped ascent to the local objective maximum.

    Unlike bracketing searches this is a smooth map of the weights: runs on
    inputs that agree to rounding stay together instead of diverging once
    comparisons drop below the noise floor.  Steps are clamped to the
    bracket around the coarse grid winner.
    """
    order = (w.shape[2] - 1) // 2
    d = np.arange(-order, order + 1)
    w1 = w * (-1j * d)
    w2 = w * (-(d * d.astype(float)))
    scale = np.abs(w).sum(axis=(1, 2)) + 1e-300
    curv_floor = 1e-9 * scale
    mag_floor = (1e-15 * scale)[:, None]
    theta = theta0.astype(float).copy()
    for _ in range(_NEWTON_ITERS):
        phases = np.exp(-1j * np.multiply.outer(theta, d))
        g = np.einsum("bod,bd->bo", w, phases)
        g1 = np.einsum("bod,bd->bo", w1, phases)
        g2 = np.einsum("bod,bd->bo", w2, phases)
        safe = np.abs(g) + mag_floor
        inner = np.real(np.conj(g) * g1)
        mu1 = (inner / safe).sum(axis=1)
        mu2 = (
            (np.abs(g1) ** 2 + np.real(np.conj(g) * g2)) / safe
            - inner ** 2 / safe ** 3
        ).sum(axis=1)
        theta = np.clip(theta + mu1 / (np.abs(mu2) + curv_floor), lo, hi)
    return theta


def numeric_theta_batch(batch: np.ndarray, cmat: np.ndarray) -> np.ndarray:
    """Per-row argmax of the expected sharpness over the controlled phase.

    Coarse 64-point grid (ties within a small relative slack go to the
    smallest theta) followed by damped-Newton refinement inside the
    winning bracket, converging well below 1e-6 rad.  Plateaus skip
    refinement, so e.g. a flat prior returns exactly 0.
    """
    w = _g1_weights(batch, cmat)
    vals = _sharpness_grid(w)
    top = vals.max(axis=1, keepdims=True)
    idx = np.argmax(vals >= top * (1.0 - _SNAP), axis=1)
    rows = np.arange(batch.shape[0])
    f_best = vals[rows, idx]
    f_prev = vals[rows, (idx - 1) % GRID_POINTS]
    f_next = vals[rows, (idx + 1) % GRID_POINTS]
    theta = THETA_GRID[idx].copy()
    margin = 1.0 + _SNAP
    refine = (f_best > f_prev * margin) & (f_best > f_next * margin)
    if np.any(refine):
        center = theta[refine]
        theta[refine] = _refine_newton(
            w[refine], center, center - _GRID_STEP, center + _GRID_STEP
        )
    return np.mod(theta, 2.0 * math.pi)


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
    n_c = batch.shape[1]
    center = (n_c - 1) // 2
    pad = np.pad(batch, ((0, 0), (2, 2)))
    # a and b are the projections of e^{i phi} and e^{2i phi} onto the
    # posterior (the first of these is what the sharpness reads off).
    a0 = pad[:, center + 2]
    a = pad[:, center + 3]
    b = 0.5 * pad[:, center + 4]
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
    """Locally optimal controlled phase for a single-photon detection.

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


def advance_batch(batch: np.ndarray, cmat: np.ndarray,
                  thetas: np.ndarray) -> np.ndarray:
    """Unnormalized posteriors after one detection, for every outcome.

    Returns out[b, o, :] = coefficients of posterior_b * likelihood_o(theta_b)
    in the same (fixed) harmonic band as the input batch; callers allocate
    the band wide enough for the whole sequence up front.
    """
    n_b, n_c = batch.shape
    n_o, width = cmat.shape
    order = (width - 1) // 2
    d = np.arange(-order, order + 1)
    phases = np.exp(-1j * np.multiply.outer(np.asarray(thetas, float), d))
    out = np.zeros((n_b, n_o, n_c), dtype=complex)
    for oi in range(n_o):
        for di, dv in enumerate(d):
            cv = cmat[oi, di]
            if cv == 0.0:
                continue
            coef = cv * phases[:, di]
            lo, hi = max(0, -dv), n_c - max(0, dv)
            out[:, oi, lo:hi] += coef[:, None] * batch[:, lo + dv: hi + dv]
    return out


def advance_selected(batch: np.ndarray, cmat: np.ndarray, picks: np.ndarray,
                     thetas: np.ndarray) -> np.ndarray:
    """Like advance_batch but per-row, with one chosen outcome per row."""
    n_b, n_c = batch.shape
    width = cmat.shape[1]
    order = (width - 1) // 2
    d = np.arange(-order, order + 1)
    phases = np.exp(-1j * np.multiply.outer(np.asarray(thetas, float), d))
    coefs = cmat[picks] * phases
    out = np.zeros_like(batch)
    for di, dv in enumerate(d):
        lo, hi = max(0, -dv), n_c - max(0, dv)
        out[:, lo:hi] += coefs[:, di, None] * batch[:, lo + dv: hi + dv]
    return out


def outcome_probabilities(cmat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """P[b, o] at per-row phase difference x = phi - theta, clamped >= 0."""
    order = (cmat.shape[1] - 1) // 2
    d = np.arange(-order, order + 1)
    phases = np.exp(1j * np.multiply.outer(np.asarray(x, float), d))
    p = (phases @ cmat.T).real
    return np.clip(p, 0.0, None)


def first_harmonic(batch: np.ndarray) -> np.ndarray:
    """g_1 per row: the projection of exp(i phi) onto each posterior."""
    center = (batch.shape[1] - 1) // 2
    if center + 1 >= batch.shape[1]:
        return np.zeros(batch.shape[0], dtype=complex)
    return batch[:, center + 1]
