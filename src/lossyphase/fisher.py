"""Fisher information of lossy detection and its maximization over states.

F(phi, theta) = sum over outcomes of (dP/dphi)^2 / P, taken from the
amplitudes behind each probability rather than from its Fourier series:
P_{L,k} = pre sum_m |A_m|^2 with A_m(x) = sum_r w_r e^{-irx} and
x = phi - theta (`detection._amplitude_weights`), so per outcome

    F_{L,k} = pre (sum_m 2 Re(conj(A_m) A_m'))^2 / sum_m |A_m|^2,

which Cauchy-Schwarz bounds by 4 pre sum_m |A_m'|^2.  F is therefore finite
everywhere; where every A_m vanishes exactly it takes that bound, its limit.

Every maximum is one compass search over (state parameters, phi) from the
best point of each candidate state's phi grid.  The grid covers [0, pi)
only: the port-swap symmetry of `detection` makes F pi-periodic.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from lossyphase.detection import _amplitude_weights, _build_kernel
from lossyphase.states import (TwoModeState, _require_integer, _require_real,
                               make_exact_optimal4, make_loss_resistant)

__all__ = [
    "fisher_information",
    "max_fisher_over_chi",
    "max_fisher_exact_optimal4",
]

_PHI_GRID = math.pi * np.arange(128) / 128
_CHI_GRID = np.minimum(np.arange(0.0, 2.01, 0.02), 2.0)
# Compass search: the step it stops below, and a cap on rounds.
_COMPASS_STOP = 1e-7
_COMPASS_ROUNDS = 200


@functools.lru_cache(maxsize=None)
def _rows(n_photons: int) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray,
                                   np.ndarray]:
    """The (outcome, m) rows of `_amplitude_weights` with m <= L, the only
    ones it can make non-zero, the first of each outcome's rows among them,
    and pre per outcome."""
    kernel = _build_kernel(n_photons)
    outcome, m = np.nonzero(np.arange(n_photons + 1) <= kernel.lost[:, None])
    starts = np.searchsorted(outcome, np.arange(len(kernel.lost)))
    return (outcome, m), starts, kernel.pre


def _weights(state: TwoModeState, eta: float) -> np.ndarray:
    """The (r, 2 rows) weights of one state: a row of phases e^{-irx} times
    them gives A, then A' = dA/dx, on each row of `_rows`."""
    w = _amplitude_weights(state, eta)[_rows(state.n_photons)[0]]
    return np.concatenate([w, w * (-1j * np.arange(state.n_photons + 1))]).T


def _fisher(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """F of each state of a (states, r, 2 rows) stack of `_weights` at its
    own row of a (states, points) array of phase differences."""
    r = np.arange(w.shape[-2])
    _, starts, pre = _rows(len(r) - 1)
    both = np.exp(-1j * (x[..., None] * r)) @ w
    both = both.reshape(*both.shape[:-1], 2, -1)
    amp = both[..., :1, :]
    sums = np.add.reduceat(amp.real * both.real + amp.imag * both.imag,
                           starts, axis=-1)
    norm, half_dp = sums[..., 0, :], sums[..., 1, :]
    zero = norm == 0.0
    ratio = 4.0 * half_dp * half_dp / np.where(zero, 1.0, norm)
    if zero.any():
        # The bound, on the points where some outcome vanishes.
        hit = zero.any(axis=-1)
        slope = both[..., 1, :][hit]
        ratio[zero] = 4.0 * np.add.reduceat(
            slope.real ** 2 + slope.imag ** 2, starts, axis=-1)[zero[hit]]
    return ratio @ pre


def fisher_information(
    state: TwoModeState, eta: float, phi: float, theta: float
) -> float:
    """Fisher information of one detection of `state` at efficiency eta;
    a non-finite phi or theta is rejected."""
    x = np.array([[_require_real("phi", phi) - _require_real("theta", theta)]])
    return float(_fisher(_weights(state, eta)[None], x)[0, 0])


def _grid_max(w: np.ndarray) -> tuple[float, float]:
    """The best point of one state's phi grid, and F there."""
    vals = _fisher(w[None], _PHI_GRID[None])[0]
    i = np.argmax(vals)
    return _PHI_GRID[i], vals[i]


def _compass(score, x: np.ndarray, fx: np.ndarray, steps: tuple[float, ...],
             lo=-math.inf, hi=math.inf) -> tuple[np.ndarray, np.ndarray]:
    """Lockstep compass searches for a maximum, one from each row of x,
    where F is fx; returns the final (x, fx).

    A round scores the moves of +-h * steps along each axis, clipped to
    [lo, hi], of every live search by one call score(owner, points).  A
    search takes its best move if that beats it (ties to the earlier move),
    or else halves its own h, which starts at 1; it stops once
    h * max(steps) < _COMPASS_STOP, or after _COMPASS_ROUNDS rounds.  So
    every search takes the steps it would take alone.
    """
    moves = np.stack([np.diag(steps), -np.diag(steps)], axis=1).reshape(-1, len(steps))
    h = np.ones(len(x))
    for _ in range(_COMPASS_ROUNDS):
        live = np.flatnonzero(h * max(steps) >= _COMPASS_STOP)
        if live.size == 0:
            break
        trial = np.clip(x[live, None] + h[live, None, None] * moves, lo, hi)
        f = score(live.repeat(len(moves)),
                  trial.reshape(-1, len(steps))).reshape(live.size, -1)
        j = f.argmax(axis=1)
        best = f[np.arange(live.size), j]
        up = best > fx[live]
        x[live[up]], fx[live[up]] = trial[up, j[up]], best[up]
        h[live[~up]] /= 2.0
    return x, fx


def _family_max(make, seeds, steps: tuple[float, ...], eta: float,
                lo=-math.inf, hi=math.inf) -> tuple[np.ndarray, float]:
    """Best parameters and F over the states make(*parameters).

    Each seed goes to the best point of its phi grid, one state at a time;
    the three best (ties to the earliest) then search jointly over
    (parameters, phi), with first steps `steps` and pi/256 for phi.
    """
    phi, fx = np.array([_grid_max(_weights(make(*s), eta)) for s in seeds]).T
    top = np.argsort(-fx, kind="stable")[:3]

    def score(_, points):
        w = np.stack([_weights(make(*p[:-1]), eta) for p in points])
        return _fisher(w, points[:, -1:])[:, 0]

    x, fx = _compass(score, np.column_stack([seeds, phi])[top], fx[top],
                     (*steps, math.pi / 256), lo, hi)
    best = fx.argmax()
    return x[best, :-1], float(fx[best])


def max_fisher_over_chi(n_photons: int, eta: float) -> tuple[float, float]:
    """Best (chi, F) of the loss-resistant family at N = 2 or 4: chi seeded
    on _CHI_GRID, then (chi, phi) refined with chi kept in [0, 2]."""
    _require_integer("n_photons", n_photons)
    if n_photons not in (2, 4):
        raise ValueError("loss-resistant families are built for N = 2 or 4")
    chi, f = _family_max(functools.partial(make_loss_resistant, n_photons // 2),
                         _CHI_GRID[:, None], (0.01,), eta,
                         (0.0, -math.inf), (2.0, math.inf))
    return float(chi[0]), f


def max_fisher_exact_optimal4(eta: float) -> tuple[float, float, float]:
    """Best (chi1p, chi2p, F) over the two-parameter four-photon family,
    seeded on a 0.25 grid over [0, 4]^2 and on the loss-resistant slice, so
    the search always contains that family."""
    grid = np.arange(0.0, 4.01, 0.25)
    seeds = [(c1, c2) for c1 in grid for c2 in grid]
    seeds += [(chi, (2.0 + chi * chi) / math.sqrt(6.0))
              for chi in np.arange(0.0, 2.01, 0.1)]
    chi, f = _family_max(make_exact_optimal4, seeds, (0.125, 0.125), eta)
    return (*chi.tolist(), f)
