"""Fisher information of lossy detection and its maximization over states.

F(phi, theta) = sum over outcomes of (dP/dphi)^2 / P, taken from the
amplitudes behind each probability rather than from its Fourier series:
P_{L,k} = pre sum_m |A_m|^2 with A_m(x) = sum_r w_r e^{-irx} and
x = phi - theta (`detection._amplitude_weights`), so per outcome

    F_{L,k} = pre (sum_m 2 Re(conj(A_m) A_m'))^2 / sum_m |A_m|^2,

which Cauchy-Schwarz bounds by 4 pre sum_m |A_m'|^2.  F is therefore finite
everywhere; where every A_m vanishes exactly it takes that bound, its limit.

The maxima over phi and over state parameters scan their candidate states
as stacks of amplitude weights, built and searched in blocks of 32 states:
each state's 128-point phi grid is evaluated on its own, and the
golden-section refinements of the whole block then advance in lockstep, one
numpy call per step for all of them.  The port-swap symmetry of the tables,
P_{L,k}(x + pi) = P_{L,N-L-k}(x), makes F pi-periodic, so the grid covers
[0, pi) only.  One golden-section routine serves every search; the chi
refinement is a stack of one, and the compass search over the two-parameter
family scores a stack per round.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from lossyphase.detection import _amplitude_weights, _build_kernel
from lossyphase.states import TwoModeState, make_exact_optimal4, make_loss_resistant

__all__ = [
    "fisher_information",
    "max_fisher_over_chi",
    "max_fisher_exact_optimal4",
]

_PHI_GRID = math.pi * np.arange(128) / 128
_CHI_GRID = np.minimum(np.arange(0.0, 2.01, 0.02), 2.0)
# States built and searched together: enough to amortise the per-step numpy
# calls, few enough that a stack stays a few hundred kB.
_BLOCK = 32
# Compass search: first step, the step it stops below, and a cap on rounds.
_COMPASS_STEPS = (0.125, 1e-7)
_COMPASS_ROUNDS = 200


@functools.lru_cache(maxsize=None)
def _rows(n_photons: int) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray,
                                   np.ndarray]:
    """The (outcome, m) rows of `_amplitude_weights` with m <= L, the only
    ones it can make non-zero (35 of 75 at N = 4), the first of each
    outcome's rows among them, and pre per outcome."""
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
    own row of a (states, points) array of phase differences.

    One product gives A and A' at every point; each outcome sums its rows'
    |A|^2 and Re(conj(A) A'), and takes the limit 4 pre sum_m |A'|^2 where
    sum_m |A|^2 is exactly 0.
    """
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
        slope = both[..., 1, :]
        ratio[zero] = 4.0 * np.add.reduceat(
            slope.real ** 2 + slope.imag ** 2, starts, axis=-1)[zero]
    return ratio @ pre


def fisher_information(
    state: TwoModeState, eta: float, phi: float, theta: float
) -> float:
    """Fisher information of one detection of `state` at efficiency eta."""
    x = np.array([[phi - theta]])
    return float(_fisher(_weights(state, eta)[None], x)[0, 0])


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


def _max_over_phi_stack(w: np.ndarray) -> np.ndarray:
    """max over phi of F(phi, theta) for each state of a stack of `_weights`.

    F depends on phi - theta only, so the search runs at theta = 0.  The
    grid is evaluated one state at a time (it is the large intermediate);
    the golden-section steps run on the whole stack.
    """
    vals = np.stack([_fisher(ws[None], _PHI_GRID[None])[0] for ws in w])

    def f(x):
        return _fisher(w, x[:, None])[:, 0]

    return _grid_golden_max(f, _PHI_GRID, vals, -math.inf, math.inf, 30)[1]


def _max_over_phi_states(states: list[TwoModeState], eta: float) -> np.ndarray:
    """max over phi of F for each state, built and searched in stacks of
    _BLOCK states, which keeps the memory flat in the number of states."""
    return np.concatenate([
        _max_over_phi_stack(np.stack([
            _weights(s, eta) for s in states[start: start + _BLOCK]
        ]))
        for start in range(0, len(states), _BLOCK)
    ])


def max_fisher_over_chi(n_photons: int, eta: float) -> tuple[float, float]:
    """Best (chi, F) of the loss-resistant family at a given photon number.

    Scans chi over [0, 2] in steps of 0.02, maximizing F over phi for each
    state (the states are built and searched in stacks of 32, their
    golden-section searches in lockstep), then refines chi around the grid
    winner by the same golden section on one state at a time.
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
    scanned in stacks of 32 states like `max_fisher_over_chi`, then a compass
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
