"""Fisher information of lossy detection and its maximization over states.

F(phi, theta) = sum over outcomes of (dP/dphi)^2 / P, with the derivative
taken analytically from the Fourier coefficients.  Terms where both P and
dP/dphi vanish are removable and skipped; a vanishing P with non-vanishing
slope is a genuine divergence and raises, so parameter scans can step
around such points explicitly.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize

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


class FisherDivergenceError(ArithmeticError):
    """An outcome probability vanishes with non-vanishing phase derivative."""


def _p_and_slope(table: OutcomeLikelihoodTable,
                 x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P and dP/dphi per outcome (rows) at each phase difference (columns)."""
    d = _engine._band(table.matrix.shape[1])
    phases = np.exp(1j * np.multiply.outer(d, x))
    p = (table.matrix @ phases).real
    dp = ((table.matrix * (1j * d)) @ phases).real
    return p, dp


def _fisher_sum(p: np.ndarray, dp: np.ndarray) -> np.ndarray:
    """Sum over outcomes of dP^2 / P; divergent columns become -inf."""
    small = p < _P_FLOOR
    divergent = small & (np.abs(dp) >= _SLOPE_FLOOR)
    ratio = np.where(small, 0.0, dp * dp / np.where(small, 1.0, p))
    total = ratio.sum(axis=0)
    total[divergent.any(axis=0)] = -math.inf
    return total


def fisher_from_table(
    table: OutcomeLikelihoodTable, phi: float, theta: float
) -> float:
    """Fisher information at (phi, theta) for a prebuilt likelihood table."""
    x = phi - theta
    p, dp = _p_and_slope(table, np.array([x]))
    total = float(_fisher_sum(p, dp)[0])
    if total == -math.inf:
        i = int(np.argmax((p[:, 0] < _P_FLOOR)
                          & (np.abs(dp[:, 0]) >= _SLOPE_FLOOR)))
        raise FisherDivergenceError(
            f"P_{table.outcomes[i]} = {p[i, 0]} with dP/dphi = {dp[i, 0]} "
            f"at phi-theta = {x}"
        )
    return total


def fisher_information(
    state: TwoModeState, eta: float, phi: float, theta: float
) -> float:
    """Fisher information of one detection of `state` at efficiency eta."""
    return fisher_from_table(build_likelihood_table(state, eta), phi, theta)


def _grid_golden_max(f, grid: np.ndarray, vals: np.ndarray, lo: float,
                     hi: float, iters: int) -> tuple[float, float]:
    """Best (x, f(x)) of the grid winner and a golden-section search for a
    maximum of f within one grid step of it, clipped to [lo, hi].

    vals holds f on the (evenly spaced) grid; ties go to the grid winner.
    """
    i = int(np.argmax(vals))
    step = grid[1] - grid[0]
    a, b = max(lo, grid[i] - step), min(hi, grid[i] + step)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = b - invphi * (b - a), a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 > f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    return max([(grid[i], vals[i]), (x1, f1), (x2, f2)], key=lambda c: c[1])


def _max_over_phi(table: OutcomeLikelihoodTable) -> float:
    """max over phi of F(phi, theta), by grid and golden-section search.

    F depends on phi - theta only, so the search runs at theta = 0.
    Divergent grid points are stepped around (they correspond to
    probability zeros crossed transversally, where the Fisher information
    is not defined).
    """
    vals = _fisher_sum(*_p_and_slope(table, _PHI_GRID))
    if not math.isfinite(vals.max()):
        return 0.0

    def f(phi):
        return float(_fisher_sum(*_p_and_slope(table, np.array([phi])))[0])

    return _grid_golden_max(f, _PHI_GRID, vals, -math.inf, math.inf, 30)[1]


def max_fisher_over_chi(n_photons: int, eta: float) -> tuple[float, float]:
    """Best (chi, F) of the loss-resistant family at a given photon number.

    Scans chi over [0, 2] in steps of 0.02, maximizing F over phi for each
    table, then refines chi around the grid winner.
    """
    if n_photons not in (2, 4):
        raise ValueError("loss-resistant families are built for N = 2 or 4")
    half_n = n_photons // 2

    def objective(chi):
        table = build_likelihood_table(make_loss_resistant(half_n, chi), eta)
        return _max_over_phi(table)

    vals = np.array([objective(c) for c in _CHI_GRID])
    chi, f = _grid_golden_max(objective, _CHI_GRID, vals, 0.0, 2.0, 25)
    return float(chi), float(f)


def max_fisher_exact_optimal4(eta: float) -> tuple[float, float, float]:
    """Best (chi1p, chi2p, F) over the two-parameter four-photon family.

    Coarse grid over both parameters, seeded additionally with the
    one-parameter family's slice (so the search space always contains it),
    then Nelder-Mead refinement from the best starts.
    """

    def objective(params):
        table = build_likelihood_table(
            make_exact_optimal4(params[0], params[1]), eta
        )
        return _max_over_phi(table)

    seeds = [
        (c1, c2)
        for c1 in np.arange(0.0, 4.01, 0.25)
        for c2 in np.arange(0.0, 4.01, 0.25)
    ]
    seeds += [(chi, (2.0 + chi * chi) / math.sqrt(6.0))
              for chi in np.arange(0.0, 2.01, 0.1)]
    vals = [objective(s) for s in seeds]
    order = np.argsort(vals)[::-1]
    best_params = np.array(seeds[order[0]])
    best_val = vals[order[0]]
    for idx in order[:3]:
        res = minimize(
            lambda p: -objective(p),
            np.array(seeds[idx]),
            method="Nelder-Mead",
            options={"xatol": 1e-4, "fatol": 1e-8, "maxiter": 200},
        )
        if -res.fun > best_val:
            best_val = -res.fun
            best_params = res.x
    return float(best_params[0]), float(best_params[1]), float(best_val)
