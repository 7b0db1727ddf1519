"""Fisher information of lossy detection and its maximization over states.

F(phi, theta) = sum over outcomes of (dP/dphi)^2 / P, with the derivative
taken analytically from the Fourier coefficients.  Terms where both P and
dP/dphi vanish are removable and skipped; a vanishing P with non-vanishing
slope is a genuine divergence and raises, so parameter scans can step
around such points explicitly.

The maxima over phi and over state parameters scan their candidate tables
as stacks, built and searched in blocks of 32 tables: each table's 256-point
phi grid is evaluated on its own, and the golden-section refinements of the
whole block then advance in lockstep, one numpy call per step for all of
them.  One golden-section routine serves every search; a single table (the
one-table view `_max_over_phi`, the chi refinement) is a stack of one, and
the compass search over the two-parameter family scores a stack per round.
"""

from __future__ import annotations

import math

import numpy as np

from lossyphase import _engine
from lossyphase.detection import OutcomeLikelihoodTable, build_likelihood_table
from lossyphase.states import TwoModeState, make_exact_optimal4, make_loss_resistant

__all__ = [
    "FisherDivergenceError",
    "fisher_information",
    "fisher_from_table",
    "max_fisher_over_chi",
    "max_fisher_exact_optimal4",
]

_P_FLOOR = 1e-12
_SLOPE_FLOOR = 1e-9
_PHI_GRID = 2.0 * math.pi * np.arange(256) / 256
_CHI_GRID = np.minimum(np.arange(0.0, 2.01, 0.02), 2.0)
# Tables built and searched together: enough to amortise the per-step numpy
# calls, few enough that a stack stays a few hundred kB.
_BLOCK = 32
# Compass search: first step, the step it stops below, and a cap on rounds.
_COMPASS_STEPS = (0.125, 1e-7)
_COMPASS_ROUNDS = 200


class FisherDivergenceError(ArithmeticError):
    """An outcome probability vanishes with non-vanishing phase derivative."""


def _p_and_slope(matrices: np.ndarray,
                 x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P and dP/dphi of a (tables, outcomes, band) stack of table matrices
    at a (tables, points) array of phase differences, both as (tables,
    outcomes, points): one table's outcomes at its own points."""
    d = _engine._band(matrices.shape[-1])
    phases = np.exp(1j * (x[:, None, :] * d[:, None]))
    p = (matrices @ phases).real
    dp = ((matrices * (1j * d)) @ phases).real
    return p, dp


def _fisher_sum(p: np.ndarray, dp: np.ndarray) -> np.ndarray:
    """Sum over outcomes (axis -2) of dP^2 / P; divergent points become -inf."""
    small = p < _P_FLOOR
    divergent = small & (np.abs(dp) >= _SLOPE_FLOOR)
    ratio = np.where(small, 0.0, dp * dp / np.where(small, 1.0, p))
    total = ratio.sum(axis=-2)
    total[divergent.any(axis=-2)] = -math.inf
    return total


def fisher_from_table(
    table: OutcomeLikelihoodTable, phi: float, theta: float
) -> float:
    """Fisher information at (phi, theta) for a prebuilt likelihood table."""
    x = phi - theta
    p, dp = _p_and_slope(table.matrix[None], np.array([[x]]))
    total = float(_fisher_sum(p, dp)[0, 0])
    if total == -math.inf:
        p, dp = p[0, :, 0], dp[0, :, 0]
        i = int(np.argmax((p < _P_FLOOR) & (np.abs(dp) >= _SLOPE_FLOOR)))
        raise FisherDivergenceError(
            f"P_{table.outcomes[i]} = {p[i]} with dP/dphi = {dp[i]} "
            f"at phi-theta = {x}"
        )
    return total


def fisher_information(
    state: TwoModeState, eta: float, phi: float, theta: float
) -> float:
    """Fisher information of one detection of `state` at efficiency eta."""
    return fisher_from_table(build_likelihood_table(state, eta), phi, theta)


def _grid_golden_max(f, grid: np.ndarray, vals: np.ndarray, lo: float,
                     hi: float, iters: int) -> tuple[np.ndarray, np.ndarray]:
    """Per search, best (x, f(x)) of its grid winner and a golden-section
    search for a maximum within one grid step of it, clipped to [lo, hi].

    vals holds one row of values on the (evenly spaced) grid per search.
    The searches advance in lockstep: f maps one point per search to one
    value per search, and np.where takes each search's own branch, so
    every search follows the steps it would take alone.  Ties go to the
    grid winner, then to x1 over x2.
    """
    i = np.argmax(vals, axis=1)
    step = grid[1] - grid[0]
    a, b = np.maximum(lo, grid[i] - step), np.minimum(hi, grid[i] + step)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = b - invphi * (b - a), a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        left = f1 > f2
        a, b = np.where(left, a, x1), np.where(left, x2, b)
        x = np.where(left, b - invphi * (b - a), a + invphi * (b - a))
        fx = f(x)
        x1, x2 = np.where(left, x, x2), np.where(left, x1, x)
        f1, f2 = np.where(left, fx, f2), np.where(left, f1, fx)
    best_x, best_f = grid[i], vals[np.arange(len(vals)), i]
    for x, fx in ((x1, f1), (x2, f2)):
        better = fx > best_f
        best_x, best_f = np.where(better, x, best_x), np.where(better, fx, best_f)
    return best_x, best_f


def _max_over_phi_stack(matrices: np.ndarray) -> np.ndarray:
    """max over phi of F(phi, theta) for each table of a stack.

    F depends on phi - theta only, so the search runs at theta = 0.  The
    256-point grid is evaluated one table at a time (it is the large
    intermediate); the golden-section steps run on the whole stack.
    Divergent grid points are stepped around (they correspond to
    probability zeros crossed transversally, where the Fisher information
    is not defined), and a table divergent on the whole grid scores 0.
    """
    vals = np.stack([_fisher_sum(*_p_and_slope(m[None], _PHI_GRID[None]))[0]
                     for m in matrices])

    def f(x):
        return _fisher_sum(*_p_and_slope(matrices, x[:, None]))[:, 0]

    _, best = _grid_golden_max(f, _PHI_GRID, vals, -math.inf, math.inf, 30)
    return np.where(np.isfinite(vals.max(axis=1)), best, 0.0)


def _max_over_phi(table: OutcomeLikelihoodTable) -> float:
    """max over phi of F(phi, theta) for one table."""
    return float(_max_over_phi_stack(table.matrix[None])[0])


def _max_over_phi_states(states: list[TwoModeState], eta: float) -> np.ndarray:
    """`_max_over_phi` of each state's table, built and searched in stacks
    of _BLOCK tables, which keeps the memory flat in the number of states."""
    return np.concatenate([
        _max_over_phi_stack(np.stack([
            build_likelihood_table(s, eta).matrix
            for s in states[start: start + _BLOCK]
        ]))
        for start in range(0, len(states), _BLOCK)
    ])


def max_fisher_over_chi(n_photons: int, eta: float) -> tuple[float, float]:
    """Best (chi, F) of the loss-resistant family at a given photon number.

    Scans chi over [0, 2] in steps of 0.02, maximizing F over phi for each
    table (the tables are built and searched in stacks of 32, their
    golden-section searches in lockstep), then refines chi around the grid
    winner by the same golden section on one table at a time.
    """
    if n_photons not in (2, 4):
        raise ValueError("loss-resistant families are built for N = 2 or 4")
    half_n = n_photons // 2

    def objective(chi):
        return _max_over_phi_states([make_loss_resistant(half_n, chi[0])], eta)

    vals = _max_over_phi_states(
        [make_loss_resistant(half_n, c) for c in _CHI_GRID], eta)
    chi, f = _grid_golden_max(objective, _CHI_GRID, vals[None], 0.0, 2.0, 25)
    return float(chi[0]), float(f[0])


def max_fisher_exact_optimal4(eta: float) -> tuple[float, float, float]:
    """Best (chi1p, chi2p, F) over the two-parameter four-photon family.

    Coarse grid over both parameters, seeded additionally with the
    one-parameter family's slice (so the search space always contains it),
    scanned in stacks of 32 tables like `max_fisher_over_chi`, then a compass
    search from the best three seeds: one stack scores their 12 axis moves of
    +-h a round, each takes its best improving move, and h halves if none does.
    """

    def scores(points):
        return _max_over_phi_states([make_exact_optimal4(*p) for p in points], eta)

    grid = np.arange(0.0, 4.01, 0.25)
    seeds = [(c1, c2) for c1 in grid for c2 in grid]
    seeds += [(chi, (2.0 + chi * chi) / math.sqrt(6.0))
              for chi in np.arange(0.0, 2.01, 0.1)]
    vals = scores(seeds)
    starts = np.argsort(vals)[::-1][:3]
    x, fx = np.array(seeds)[starts], vals[starts]
    h, h_stop = _COMPASS_STEPS
    for _ in range(_COMPASS_ROUNDS):
        if h < h_stop:
            break
        trial = x[:, None] + h * np.array([(1, 0), (-1, 0), (0, 1), (0, -1)])
        f = scores(trial.reshape(-1, 2)).reshape(len(x), -1)
        j = f.argmax(axis=1)
        up = f[np.arange(len(x)), j] > fx
        if not up.any():
            h /= 2.0
        x[up], fx[up] = trial[up, j[up]], f[up, j[up]]
    return (*x[fx.argmax()].tolist(), float(fx.max()))
