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


class FisherDivergenceError(ArithmeticError):
    """An outcome probability vanishes with non-vanishing phase derivative."""


def _p_and_slope(table: OutcomeLikelihoodTable,
                 x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P and dP/dphi per outcome (rows) at each phase difference (columns)."""
    n = table.n_photons
    d = np.arange(-n, n + 1)
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


def _golden_max(f, lo: float, hi: float,
                iters: int) -> list[tuple[float, float]]:
    """Golden-section search for a maximum of f on [lo, hi].

    Returns the two final interior points with their values.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 > f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
    return [(x1, f1), (x2, f2)]


def _max_over_phi(table: OutcomeLikelihoodTable, theta: float,
                  grid_points: int = 256) -> float:
    """max_phi F(phi, theta) on a grid with golden-section refinement.

    Divergent grid points are stepped around (they correspond to
    probability zeros crossed transversally, where the Fisher information
    is not defined).
    """
    phis = theta + 2.0 * math.pi * np.arange(grid_points) / grid_points

    def safe_f(phi):
        return float(_fisher_sum(*_p_and_slope(table, np.array([phi - theta])))[0])

    vals = _fisher_sum(*_p_and_slope(table, phis - theta))
    i = int(np.argmax(vals))
    best_val, best_phi = vals[i], phis[i]
    if not math.isfinite(best_val):
        return 0.0
    step = 2.0 * math.pi / grid_points
    ends = _golden_max(safe_f, best_phi - step, best_phi + step, 30)
    return max(best_val, *(f for _, f in ends))


def max_fisher_over_chi(
    n_photons: int, eta: float, theta: float = 0.0, chi_step: float = 0.02
) -> tuple[float, float]:
    """Best (chi, F) of the loss-resistant family at a given photon number.

    Scans chi over [0, 2] at `chi_step`, maximizing F over phi for each
    table, then refines chi around the grid winner.
    """
    if n_photons not in (2, 4):
        raise ValueError("loss-resistant families are built for N = 2 or 4")
    half_n = n_photons // 2

    def objective(chi):
        table = build_likelihood_table(make_loss_resistant(half_n, chi), eta)
        return _max_over_phi(table, theta)

    chis = np.arange(0.0, 2.0 + 0.5 * chi_step, chi_step)
    chis[-1] = min(chis[-1], 2.0)
    vals = np.array([objective(c) for c in chis])
    i = int(np.argmax(vals))
    best_chi, best_val = float(chis[i]), float(vals[i])
    lo = max(0.0, best_chi - chi_step)
    hi = min(2.0, best_chi + chi_step)
    for x, f in _golden_max(objective, lo, hi, 25):
        if f > best_val:
            best_chi, best_val = float(x), float(f)
    return best_chi, best_val


def max_fisher_exact_optimal4(
    eta: float, theta: float = 0.0
) -> tuple[float, float, float]:
    """Best (chi1p, chi2p, F) over the two-parameter four-photon family.

    Coarse grid over both parameters, seeded additionally with the
    one-parameter family's slice (so the search space always contains it),
    then Nelder-Mead refinement from the best starts.
    """

    def objective(params):
        table = build_likelihood_table(
            make_exact_optimal4(params[0], params[1]), eta
        )
        return _max_over_phi(table, theta)

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
