"""Outcome probabilities of the lossy interferometer.

Photon loss is modeled by a fictitious beam splitter of transmissivity eta
in each arm (equal loss).  A detection outcome is the pair (L, k): L photons
lost in total, k photons counted at the second output port of the final
50/50 beam splitter.  Every probability P_{L,k}(phi, theta) depends on the
phases only through x = phi - theta and is stored as a short Fourier series

    P_{L,k}(phi, theta) = sum_d c_d exp(i d (phi - theta)),  |d| <= N - L.

Port-labeling convention: the output beam splitter is taken real,
b1+ -> (d1+ + d2+)/sqrt(2) and b2+ -> (d1+ - d2+)/sqrt(2), and k counts
photons in the d2 port, so the symmetric single photon has the fringes
eta (1 +- cos x)/2.  The brute-force `oracle_probabilities` uses the same
convention and checks the closed-form table independently.

Invariant (port-swap symmetry): a pi phase before the final splitter only
swaps its output ports, so row (L, N-L-k) equals row (L, k) times (-1)^d
for every state and eta.  Every table checks this exactly when it is made,
which lets the feedback search scan theta over [0, pi) only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

import numpy as np

from lossyphase import _engine
from lossyphase.states import (TwoModeState, _require_integer, _require_real,
                               _times_linear_form)

__all__ = [
    "Outcome",
    "OutcomeLikelihoodTable",
    "build_likelihood_table",
    "oracle_probabilities",
    "evaluate_outcome",
]

ORACLE_MAX_PHOTONS = 6
_CLAMP_TOL = 1e-12


class Outcome(NamedTuple):
    lost: int
    detected_k: int


def _port_sum(n_det: int, r: int, k: int) -> float:
    """Signed binomial sum from expanding the real 50/50 output splitter."""
    total = 0.0
    for r2 in range(max(0, k - n_det + r), min(r, k) + 1):
        total += (-1) ** r2 * math.comb(n_det - r, k - r2) * math.comb(r, r2)
    return total


@dataclass(frozen=True)
class OutcomeLikelihoodTable:
    """Fourier coefficients of every P_{L,k} for one input state and eta.

    matrix[i] holds outcome i of `iter_outcomes` over the full band
    d = -N..N, zero where |d| > N - L.  It is stored read-only, and a
    matrix without the port-swap symmetry is rejected.  The per-outcome
    views that `row` and `coeffs` return are made once, on first use; a
    pickle or copy holds the three fields alone and makes its own views.
    """

    n_photons: int
    eta: float
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        _require_integer("n_photons", self.n_photons, least=0)
        _require_real("eta", self.eta, 0.0, 1.0)
        m = np.array(self.matrix, dtype=complex)
        n = self.n_photons
        if m.shape != (len(_row_index(n)), 2 * n + 1):
            raise ValueError(f"matrix shape {m.shape} does not fit N={n}")
        swap, sign = _port_swap(n)
        if not np.array_equal(m[swap], m * sign):
            raise ValueError(
                f"matrix breaks the port-swap symmetry: row (L, k) times "
                f"(-1)^d must equal row (L, N-L-k) for N={n}"
            )
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def outcomes(self) -> list[Outcome]:
        return list(_row_index(self.n_photons))

    def __reduce__(self):
        return type(self), (self.n_photons, self.eta, self.matrix)

    @functools.cached_property
    def _rows(self) -> dict[Outcome, np.ndarray]:
        """outcome -> read-only view of its row of `matrix` over its band."""
        width = self.matrix.shape[1]
        return {o: self.matrix[i, o.lost: width - o.lost]
                for o, i in _row_index(self.n_photons).items()}

    def row(self, outcome: Outcome) -> np.ndarray:
        """c_d of one outcome over its own band d = -(N-L)..(N-L); a
        plain pair is made an Outcome first."""
        key = outcome if type(outcome) is Outcome else Outcome(*outcome)
        c = self._rows.get(key)
        if c is None:
            raise KeyError(f"outcome {outcome} not in table")
        return c

    @property
    def coeffs(self) -> Mapping[Outcome, np.ndarray]:
        """Read-only mapping outcome -> `row(outcome)`."""
        return MappingProxyType(self._rows)

    def to_json_dict(self) -> dict:
        return {
            "n_photons": self.n_photons,
            "eta": self.eta,
            "entries": [
                {
                    "L": o.lost,
                    "k": o.detected_k,
                    "re": [float(v.real) for v in c],
                    "im": [float(v.imag) for v in c],
                }
                for o, c in self.coeffs.items()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "OutcomeLikelihoodTable":
        n = data["n_photons"]
        _require_integer("n_photons", n, least=0)
        index = _row_index(n)
        matrix = np.zeros((len(index), 2 * n + 1), dtype=complex)
        for e in data["entries"]:
            lost = e["L"]
            c = np.array(e["re"], dtype=complex) + 1j * np.array(e["im"])
            matrix[index[Outcome(lost, e["k"])], lost: 2 * n + 1 - lost] = c
        return cls(n, data["eta"], matrix)


def iter_outcomes(n_photons: int) -> Iterator[Outcome]:
    """All (L, k) with 0 <= L <= N and 0 <= k <= N - L; 6 for N=2, 15 for N=4."""
    for lost in range(n_photons + 1):
        for k in range(n_photons - lost + 1):
            yield Outcome(lost, k)


@functools.lru_cache(maxsize=None)
def _row_index(n_photons: int) -> Mapping[Outcome, int]:
    return MappingProxyType({o: i for i, o in enumerate(iter_outcomes(n_photons))})


@functools.lru_cache(maxsize=None)
def _port_swap(n_photons: int) -> tuple[np.ndarray, np.ndarray]:
    """Row permutation (L, k) -> (L, N-L-k) and the column signs (-1)^d."""
    index = _row_index(n_photons)
    swap = np.array([index[Outcome(L, n_photons - L - k)] for L, k in index])
    sign = (-1.0) ** _engine._band(2 * n_photons + 1)
    return swap, sign


class _BuildKernel(NamedTuple):
    """Everything in `build_likelihood_table` that depends on N alone,
    cached per N for the life of the process (O(N^4) floats)."""

    weight: np.ndarray  # (outcome, m, r): sqrt(C C) port sum / sqrt(r! (N-L-r)!)
    gather: np.ndarray  # (m, r): index r + m into psi, clipped to N where weight is 0
    lost: np.ndarray  # (outcome,): L of each row
    pre: np.ndarray  # (outcome,): 2^-(N-L) (N-L-k)! k!
    diagonals: np.ndarray  # (r s, d + N): 1 where d = s - r


@functools.lru_cache(maxsize=None)
def _build_kernel(n_photons: int) -> _BuildKernel:
    n, size = n_photons, n_photons + 1
    outcomes = list(iter_outcomes(n))
    weight = np.zeros((len(outcomes), size, size))
    for i, (lost, k) in enumerate(outcomes):
        n_det = n - lost
        for m in range(lost + 1):
            for r in range(n_det + 1):
                weight[i, m, r] = (
                    math.sqrt(math.comb(n - r - m, n_det - r) * math.comb(r + m, r))
                    * _port_sum(n_det, r, k)
                    / math.sqrt(math.factorial(n_det - r) * math.factorial(r))
                )
    r = np.arange(size)
    diagonals = np.zeros((size, size, 2 * n + 1))
    diagonals[r[:, None], r[None, :], n + r[None, :] - r[:, None]] = 1.0
    kernel = _BuildKernel(
        weight,
        np.minimum(np.add.outer(r, r), n),
        np.array([o.lost for o in outcomes]),
        np.array([0.5 ** (n - lost) * math.factorial(n - lost - k) * math.factorial(k)
                  for lost, k in outcomes]),
        diagonals.reshape(size * size, 2 * n + 1),
    )
    for a in kernel:
        a.flags.writeable = False
    return kernel


def _amplitude_weights(state: TwoModeState, eta: float) -> np.ndarray:
    """w[outcome, m, r]: the amplitudes behind every outcome probability.

    With A_m(x) = sum_r w[., m, r] e^{-irx}, outcome (L, k) has
    P_{L,k}(x) = pre_{L,k} sum_m |A_m(x)|^2 (pre from the build kernel);
    w vanishes for m > L and r > N - L.  Raises on eta outside [0, 1].
    """
    eta = _require_real("eta", eta, 0.0, 1.0)
    n = state.n_photons
    kernel = _build_kernel(n)
    loss = np.array([math.sqrt(eta ** (n - lost) * (1.0 - eta) ** lost)
                     for lost in range(n + 1)])
    return (loss[kernel.lost, None, None] * kernel.weight) * state.amplitudes[kernel.gather]


def build_likelihood_table(state: TwoModeState, eta: float) -> OutcomeLikelihoodTable:
    """Closed-form detection probabilities grouped by harmonic d = s - r.

    The phase factors Psi_k = psi_k e^{i(N-k)phi} e^{ik theta} make the
    (r, s) cross term carry e^{i(s-r)(phi-theta)}, so per outcome
    c_d = pre sum_m sum_r w_r conj(w_{r+d}) over the weights of
    `_amplitude_weights`: an outer product summed along its diagonals.
    """
    n = state.n_photons
    kernel = _build_kernel(n)
    w = _amplitude_weights(state, eta)
    outer = np.einsum("imr,ims->irs", w, w.conj())
    matrix = kernel.pre[:, None] * (outer.reshape(len(w), -1) @ kernel.diagonals)
    return OutcomeLikelihoodTable(n, eta, matrix)


def evaluate_outcome(
    table: OutcomeLikelihoodTable, outcome: Outcome, phi: float, theta: float
) -> float:
    """P_{L,k}(phi, theta): the one entry of `_engine.outcome_probabilities`
    for the outcome's row (a dot product with its phases).

    Raises on a phi or theta that is not a finite number, an imaginary
    part above 1e-10 or a value below -1e-12 or above 1 + 1e-12, and
    clamps the rest to [0, 1].
    """
    phi, theta = _require_real("phi", phi), _require_real("theta", theta)
    c = table.row(outcome)
    val = _engine.outcome_probabilities(c, np.array([phi - theta])).item(0)
    if abs(val.imag) > 1e-10:
        raise ValueError(f"probability has imaginary part {val.imag}")
    p = val.real
    if p < -_CLAMP_TOL:
        raise ValueError(f"probability {p} below clamping tolerance")
    if p > 1.0 + _CLAMP_TOL:
        raise ValueError(f"probability {p} above clamping tolerance")
    return min(max(p, 0.0), 1.0)


def oracle_probabilities(
    state: TwoModeState, eta: float, phi: float, theta: float
) -> dict[Outcome, float]:
    """Brute-force detection probabilities by explicit 4-mode simulation.

    Expands each arm-phased term psi_k |N-k, k> from the vacuum of modes
    (d1, d2, c1, c2) by N-k linear-form steps of b1+ and k of b2+, which
    hold both loss beam splitters and the real 50/50 output splitter, and
    marginalizes |amplitude|^2 over the loss modes c1, c2.  Reads no
    likelihood table; limited to N <= ORACLE_MAX_PHOTONS and finite phases.
    """
    n = state.n_photons
    if n > ORACLE_MAX_PHOTONS:
        raise ValueError(f"oracle limited to N <= {ORACLE_MAX_PHOTONS}")
    eta = _require_real("eta", eta, 0.0, 1.0)
    phi, theta = _require_real("phi", phi), _require_real("theta", theta)
    rt, rl = math.sqrt(eta / 2.0), 1j * math.sqrt(1.0 - eta)
    # b1 -> rt (d1 + d2) + rl c1, b2 -> rt (d1 - d2) + rl c2
    b1, b2 = (rt, rt, rl, 0.0), (rt, -rt, 0.0, rl)
    poly = np.zeros((n + 1,) * 4, dtype=complex)
    for k in range(n + 1):
        term = np.zeros_like(poly)
        term[0, 0, 0, 0] = (state.amplitudes[k] * np.exp(1j * ((n - k) * phi + k * theta))
                            / math.sqrt(math.factorial(n - k) * math.factorial(k)))
        for form in (b1,) * (n - k) + (b2,) * k:
            term = _times_linear_form(term, form)
        poly += term
    fact = np.array([math.factorial(e) for e in range(n + 1)], dtype=float)
    # |Fock amplitude|^2 = |coefficient|^2 prod(index!), summed over d1.
    weight = (np.abs(poly) ** 2 * math.prod(np.ix_(*(fact,) * 4))).sum(axis=0)
    probs = {o: 0.0 for o in iter_outcomes(n)}
    for e2, l1, l2 in zip(*np.nonzero(weight)):
        probs[Outcome(l1 + l2, e2)] += weight[e2, l1, l2]
    return probs
