"""Vectorized batch kernels for posteriors and feedback.

A batch is a (rows, 2J+1) complex matrix of unnormalized posterior
coefficients over one shared harmonic band; a Bayes update widens the band
by the likelihood's order.  Rows may carry any positive overall factor:
every feedback objective is scale-invariant.  A likelihood is an
(outcomes, d) matrix shared by all rows or, in numeric_theta_batch,
advance_batch, expected_sharpness_batch and predictive_batch, a
(rows, outcomes, d) stack.  It comes from
`OutcomeLikelihoodTable.matrix` (or is SINGLE_FRINGE), so it has the
port-swap symmetry of `detection`: the expected sharpness has period pi and
the feedback grid covers [0, pi) alone.

The scalar API's one-row views and the tree walks call these kernels, and
each view returns its kernel's row bit for bit.  Blocking (_in_blocks: the
numeric feedback, the expected sharpness, the predictive probabilities and
advance_batch), the per-width caches (read-only, filled on first use), the
ufunc calls that take several operands at once and np.count_nonzero in
place of .all() and .any(), which keep a one-row call cheap, change no
bit.  The feedback grid's product per row, in blocks with fewer rows than
outcomes, rounds the grid values otherwise than its product per outcome;
the winning bracket, theta and S have come out the same on every row
checked (README, "Scalar views").

advance_batch is the one Bayes update.  How a child's bits round depends on
how many outcomes each row multiplies: with one outcome per row the product
rounds each output harmonic alike whatever the output width, but a product
over several outcomes is a matrix product whose rounding depends on it.  So
keep, which builds only the harmonics |k| <= keep of each child from the
centre columns of the window, is bit for bit the centre of the whole band
(for every keep >= 1) only with one outcome per row, as in the sampled walk
(whose keep is the harmonic horizon of the `sequences` module docstring)
and bayes_update.  The exact and merged walks multiply several outcomes per
row, so they pass no keep (ROADMAP, measured dead ends).

At import the module has glibc keep the heap the kernels free instead of
handing it back after every block (README, "Performance notes", heap).
"""

from __future__ import annotations

import ctypes
import functools
import math
import os

import numpy as np

GRID_POINTS = 32
THETA_GRID = math.pi * np.arange(GRID_POINTS) / GRID_POINTS
_GRID_STEP = math.pi / GRID_POINTS
_NEIGHBOURS = np.array([-1, 0, 1])
_NEWTON_ITERS = 12
_NEWTON_TOL = 1e-12
# The settled stop of the last detection and of a sampled walk
# (_refine_newton).
_SETTLE_GRAD = 1e-6
_SETTLE_STEP = 1e-6
# Rows per block of the blocked kernels (README, "Performance notes",
# chunks and blocks).
_BLOCK_ROWS = 256
# Relative slack for grid comparisons: the exact and speedup walks feed the
# feedback inputs that differ in the last bits, and a comparison sitting on
# a tie would let the two walks diverge.
_SNAP = 1e-9
# Allocator variables whose setting means the heap is already tuned, and
# the freed heap top glibc keeps (mallopt's M_TOP_PAD, which is -2).
_MALLOC_VARS = ("MALLOC_TOP_PAD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_")
_M_TOP_PAD = -2
_TOP_PAD = 16 << 20


def _keep_freed_heap(load=ctypes.CDLL) -> bool:
    """Have the C library keep _TOP_PAD bytes of freed heap top, so a block
    does not fault in again what the last one handed back (README,
    "Performance notes", heap).  Acts only on POSIX (where load(None) opens
    the program's own symbols), when no variable of _MALLOC_VARS is set,
    GLIBC_TUNABLES tunes no glibc.malloc entry and load(None) exports
    mallopt; returns whether it acted."""
    if (os.name != "posix" or any(os.environ.get(k) is not None for k in _MALLOC_VARS)
            or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")):
        return False
    mallopt = getattr(load(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return mallopt(_M_TOP_PAD, _TOP_PAD) == 1


_HEAP_KEPT = _keep_freed_heap()


def release_heap() -> None:
    """Hand the kept heap top back now (malloc_trim), once a caller is done
    with the kernels; nothing where _keep_freed_heap did not act."""
    if _HEAP_KEPT:
        trim = ctypes.CDLL(None).malloc_trim
        trim.argtypes, trim.restype = (ctypes.c_size_t,), ctypes.c_int
        trim(0)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=None)
def _band(width: int) -> np.ndarray:
    """Harmonic indices d = -order..order of a band of width 2 order + 1, as
    floats: a product with them needs no cast, and gives the same bits."""
    order = (width - 1) // 2
    return _read_only(np.arange(-order, order + 1, dtype=float))


@functools.lru_cache(maxsize=None)
def _grid_phases(width: int) -> np.ndarray:
    """(width, GRID_POINTS) phases of THETA_GRID over the band."""
    return _read_only(_phases(THETA_GRID, width)).T


@functools.lru_cache(maxsize=None)
def _newton_deriv(width: int) -> np.ndarray:
    """(width, 3): columns 1, -i d and -d^2, which turn the phases into
    those of g and its first and second theta derivatives."""
    d = _band(width)
    return _read_only(np.stack([np.ones(d.size), -1j * d, -(d * d)], axis=1))


@functools.lru_cache(maxsize=None)
def _newton_start(width: int) -> np.ndarray:
    """(GRID_POINTS, width, 3): _newton_deriv times the phases of each grid
    point, the factor of Newton's first step from that point."""
    return _read_only(_phases(THETA_GRID, width)[:, :, None] * _newton_deriv(width))


@functools.lru_cache(maxsize=None)
def _negated_band(width: int) -> np.ndarray:
    """-d over the band, -0.0 at d = 0."""
    return _read_only(-_band(width))


def _phases(x, width: int) -> np.ndarray:
    """e^{-i x d} over the band, one row per entry of x: the exponential of
    +0 + i x (-d), made in place.  -1j * (x d) has that real part and those
    imaginary bits, signed zeros included, so this skips its cast and
    complex product and gives the same bytes (tests/test_engine.py,
    TestPhases)."""
    x = np.asarray(x, dtype=float)
    arg = np.zeros(x.shape + (width,), dtype=complex)
    np.multiply(x[..., None], _negated_band(width), out=arg.imag)
    return np.exp(arg, out=arg)


def table_matrix(table) -> np.ndarray:
    """The table's matrix without its identically zero outcomes."""
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
    """w[b,o,d] = c[o,d] * a_{h+d}[b]: the predicted harmonic h of every
    child before the theta phases."""
    order = (cmat.shape[-1] - 1) // 2
    window = _harmonics(batch, harmonic - order, harmonic + order)
    return cmat * window[:, None, :]


def _sharpness_from_weights(w: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    phases = _phases(thetas, w.shape[2])
    return np.abs(np.einsum("bod,bd->bo", w, phases)).sum(axis=1)


def _sharpness_grid(w: np.ndarray) -> np.ndarray:
    """(branches, GRID_POINTS) objective values on THETA_GRID: one product
    per row where rows are fewer than outcomes (a one-row view makes one),
    else one per outcome (module docstring)."""
    phases = _grid_phases(w.shape[2])
    if w.shape[0] < w.shape[1]:
        return np.add.reduce(np.abs(w @ phases), axis=1)
    vals = np.zeros((w.shape[0], GRID_POINTS))
    for o in range(w.shape[1]):
        vals += np.abs(w[:, o, :] @ phases)
    return vals


def _refine_newton(w: np.ndarray, start: np.ndarray, settle: bool) -> np.ndarray:
    """Curvature-damped ascent from the grid points THETA_GRID[start] to the
    local objective maximum, every step clamped to the point's bracket
    (_newton_start holds the first step's phases).

    A smooth map of the weights, unlike a bracketing search, so inputs that
    agree to rounding stay together.  A row stops once its step is below
    _NEWTON_TOL, or after _NEWTON_ITERS steps.  With settle it also stops,
    after its step, once the gradient before it was at most _SETTLE_GRAD
    times the objective and the step at most _SETTLE_STEP.  Both bounds are
    needed: a near-vanishing outcome harmonic shrinks the steps faster than
    the gradient, and a flat-topped maximum the gradient faster than the
    steps.  The settled stop comes after a step in the quadratic regime, so
    its theta is as good as converged for any use but a bit-for-bit one
    (the `sequences` module docstring, sampled walk).
    """
    width = w.shape[2]
    deriv = _newton_deriv(width)
    scale = np.add.reduce(np.abs(w), axis=(1, 2)) + 1e-300
    curv_floor = 1e-9 * scale
    mag_floor = (1e-15 * scale)[:, None]
    theta = THETA_GRID[start]
    lo, hi = theta - _GRID_STEP, theta + _GRID_STEP
    rows = np.arange(theta.size)
    t = theta.copy()
    for it in range(_NEWTON_ITERS):
        # (rows, outcomes, 3): g, g' and g'' of every outcome.
        prod = w @ (_phases(t, width)[:, :, None] * deriv if it
                    else _newton_start(width)[start])
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
        # The next product or a compaction allocates without these beside it.
        del prod, mags, cross, mag, inner, safe
        live = np.count_nonzero(moving)
        if live == moving.size:
            t = stepped
            continue
        if not live:
            break
        rows, w, lo, hi = rows[moving], w[moving], lo[moving], hi[moving]
        curv_floor, mag_floor = curv_floor[moving], mag_floor[moving]
        t = stepped[moving]
    return theta


def _in_blocks(kernel):
    """kernel(batch, cmat, *per_row, **options) run _BLOCK_ROWS rows at a
    time, its outputs (an array or a tuple of arrays) joined along rows
    (README, "Performance notes", chunks and blocks).

    The batch, each per_row array and a per-row cmat stack are sliced per
    block, so a kernel's options are keyword-only; a batch of at most one
    block goes to kernel unsliced.
    """
    @functools.wraps(kernel)
    def blocked(batch, cmat, *per_row, **options):
        n_rows = batch.shape[0]
        if n_rows <= _BLOCK_ROWS:
            return kernel(batch, cmat, *per_row, **options)
        outs = None
        for lo in range(0, n_rows, _BLOCK_ROWS):
            rows = slice(lo, lo + _BLOCK_ROWS)
            part = kernel(batch[rows], cmat[rows] if cmat.ndim == 3 else cmat,
                          *(a[rows] for a in per_row), **options)
            parts = part if isinstance(part, tuple) else (part,)
            if outs is None:
                outs = tuple(np.empty((n_rows,) + a.shape[1:], a.dtype) for a in parts)
            for out, a in zip(outs, parts):
                out[rows] = a
        return outs if isinstance(part, tuple) else outs[0]
    return blocked


@_in_blocks
def expected_sharpness_batch(batch: np.ndarray, cmat: np.ndarray,
                             thetas: np.ndarray) -> np.ndarray:
    """Sum over outcomes of |predicted first harmonic| at per-row theta."""
    w = _g1_weights(batch, cmat)
    return _sharpness_from_weights(w, thetas)


@_in_blocks
def numeric_theta_batch(batch: np.ndarray, cmat: np.ndarray, *, settle: bool = False,
                        sharpness: bool = False):
    """Per-row feedback phase in [0, 2pi): the best of the GRID_POINTS
    brackets on [0, pi), ties within _SNAP to the smallest theta, refined by
    damped Newton inside it.  Not a guaranteed argmax: a near-equal peak in
    another bracket can be missed.  A plateau skips refinement, so a flat
    prior gives exactly 0.  settle (for a theta that builds no children, or
    only sampled ones) as in _refine_newton; with sharpness also the
    expected sharpness at theta."""
    w = _g1_weights(batch, cmat)
    vals = _sharpness_grid(w)
    top = np.maximum.reduce(vals, axis=1, keepdims=True)
    idx = (vals >= top * (1.0 - _SNAP)).argmax(axis=1)
    # The winner and its two neighbours on the periodic grid, in one gather.
    f_prev, f_best, f_next = vals[np.arange(w.shape[0])[:, None],
                                  (idx[:, None] + _NEIGHBOURS) % GRID_POINTS].T
    theta = THETA_GRID[idx]
    margin = 1.0 + _SNAP
    refine = (f_best > f_prev * margin) & (f_best > f_next * margin)
    refined = np.count_nonzero(refine)
    if refined == refine.size:
        theta = _refine_newton(w, idx, settle)
    elif refined:
        theta[refine] = _refine_newton(w[refine], idx[refine], settle)
    theta = np.mod(theta, 2.0 * math.pi)
    return (theta, _sharpness_from_weights(w, theta)) if sharpness else theta


# The two single-photon fringes (1 +- cos(phi-theta))/2 over d = -1..1,
# without eta, which only scales them.
SINGLE_FRINGE = np.array(
    [[0.25, 0.5, 0.25], [-0.25, 0.5, -0.25]], dtype=complex
)


def _flat_rows(low: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's scale |a_0| (1 where a_0 = 0) and whether its posterior
    is flat, from its a_0, a_1, a_2: |a_1| and |a_2| / 2 at most 1e-13
    times the scale."""
    scale = np.abs(low[:, 0])
    scale = np.where(scale > 0.0, scale, 1.0)
    flat = ((np.abs(low[:, 1]) <= 1e-13 * scale)
            & (np.abs(0.5 * low[:, 2]) <= 1e-13 * scale))
    return scale, flat


def _candidates(low: np.ndarray, scale: np.ndarray,
                flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stationary phases of the single-photon expected sharpness, from each
    row's a_0, a_1, a_2 and its `_flat_rows`.

    Returns (candidates, degenerate): the phases theta_0, theta_+ and
    theta_- per row, and the non-flat rows where c1 = 0 leaves theta_+-
    undefined (placeholder entries).
    """
    a0 = low[:, 0]
    a = low[:, 1]
    b = 0.5 * low[:, 2]
    c = 0.5 * a0
    conj_a, conj_b, conj_c = np.conj(a), np.conj(b), np.conj(c)
    abs_b = np.abs(b)
    c1 = (conj_a * c) ** 2 - (a * conj_b) ** 2 \
        + 4.0 * (abs_b ** 2 - np.abs(c) ** 2) * conj_b * c
    c2 = -2j * (a * a * conj_b * conj_c).imag
    abs_c1 = np.abs(c1)
    degenerate = ~flat & (abs_c1 <= 1e-26 * scale ** 4)

    safe_c1 = np.where(c1 == 0.0, 1.0, c1)
    root = np.sqrt(c2 * c2 + abs_c1 ** 2)
    z = np.empty((low.shape[0], 3), dtype=complex)
    np.subtract(b * conj_a, conj_c * a, out=z[:, 0])
    np.sqrt((c2 + root) / safe_c1, out=z[:, 1])
    np.sqrt((c2 - root) / safe_c1, out=z[:, 2])
    return np.mod(np.arctan2(z.imag, z.real), 2.0 * math.pi), degenerate


def closed_form_theta_batch(batch: np.ndarray) -> np.ndarray:
    """Best one-step controlled phase for a single-photon detection, for
    every eta (loss only adds a theta-independent term): the closed-form
    candidate of largest expected sharpness; 0 for a flat posterior, and the
    numeric rule where the candidates are degenerate.  An all-flat batch,
    such as the flat prior, is zeros before any candidate is scored."""
    low = _harmonics(batch, 0, 2)
    scale, flat = _flat_rows(low)
    if np.count_nonzero(flat) == flat.size:
        return np.zeros(batch.shape[0])
    cand, degenerate = _candidates(low, scale, flat)
    w = SINGLE_FRINGE * low[:, None, :]
    g = np.einsum("bod,bkd->bko", w, _phases(cand, w.shape[2]))
    # mu[b, k] is the sharpness at cand[b, k].
    mu = np.add.reduce(np.abs(g), axis=2)
    theta = cand[np.arange(batch.shape[0]), np.argmax(mu, axis=1)]
    theta = np.where(flat, 0.0, theta)
    if np.count_nonzero(degenerate):
        theta[degenerate] = numeric_theta_batch(batch[degenerate], SINGLE_FRINGE)
    return theta


def _window(batch: np.ndarray, order: int) -> np.ndarray:
    """window[b, d, k] = pad[b, k + d] over the batch padded by 2 order
    zeros on each side: a read-only (rows, 2 order + 1, width + 2 order)
    view."""
    n_b, n_c = batch.shape
    n_out = n_c + 2 * order
    pad = np.zeros((n_b, n_out + 2 * order), dtype=complex)
    pad[:, 2 * order: 2 * order + n_c] = batch
    s_b, s_k = pad.strides
    return _read_only(np.ndarray((n_b, 2 * order + 1, n_out), complex, pad, 0,
                                 (s_b, s_k, s_k)))


@_in_blocks
def advance_batch(batch: np.ndarray, cmat: np.ndarray, thetas: np.ndarray, *,
                  keep: int | None = None) -> np.ndarray:
    """Unnormalized posteriors after one detection, for every outcome.

    Returns out[b, o, :] = coefficients of posterior_b * likelihood_o(theta_b),
    a band widened by the table's order on each side: (n_b, n_o, n_c + 2 order),
    one batched product with the strided window.  With keep, only the
    harmonics |k| <= keep of that band, from a view of the window's centre
    columns.
    """
    window = _window(batch, (cmat.shape[-1] - 1) // 2)
    half = window.shape[2] // 2
    if keep is not None and keep < half:
        window = window[:, :, half - keep: half + keep + 1]
    return (cmat * _phases(thetas, cmat.shape[-1])[:, None, :]) @ window


# No caller: perfbench's tracer looks up every _engine name it wraps, this
# one included, until ROADMAP item 4 deletes it with its tracer entry.
def advance_selected(batch, cmat, picks, thetas, *, keep=None):
    return advance_batch(batch, cmat[picks][:, None], thetas, keep=keep)[:, 0]


@_in_blocks
def predictive_batch(batch: np.ndarray, cmat: np.ndarray,
                     thetas: np.ndarray) -> np.ndarray:
    """a0 of every child at per-row theta: the predictive probability of
    each outcome times the row's a0, up to rounding (not clamped)."""
    w = _g1_weights(batch, cmat, harmonic=0)
    return np.einsum("bod,bd->bo", w, _phases(thetas, w.shape[2])).real


def outcome_probabilities(cmat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """P[b, o] at per-row phase difference x = phi - theta, as the complex
    Fourier sums (P[b] for one outcome's 1-D row): callers check or clamp
    the real part."""
    return _phases(-x, cmat.shape[-1]) @ cmat.T


def first_harmonic(batch: np.ndarray) -> np.ndarray:
    """g_1 per row: the projection of exp(i phi) onto each posterior."""
    return _harmonics(batch, 1, 1)[:, 0]
