"""Two-mode Fock states and the three-port preparation scheme.

A pure two-mode state with fixed total photon number N is stored as the
vector of amplitudes psi_k of the basis states |N-k, k>.  The loss-resistant
family is the one-parameter set of states

    [(b1+)^2 + chi * b1+ b2+ + (b2+)^2]^n |0,0>,   chi in [0, 2],

which a three-beam-splitter interferometer fed with the dual Fock state
|n, n, 0> produces after post-selecting vacuum in the third output port.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TwoModeState",
    "TriPortConfig",
    "make_loss_resistant",
    "make_exact_optimal4",
    "make_single_photon",
    "synthesize_triport",
    "forward_simulate_triport",
]

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class TwoModeState:
    """Normalized two-mode N-photon state, amplitudes[k] = <N-k, k | psi>."""

    n_photons: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if self.n_photons < 0:
            raise ValueError("photon number must be non-negative")
        if amps.shape != (self.n_photons + 1,):
            raise ValueError(
                f"expected {self.n_photons + 1} amplitudes, got {amps.shape}"
            )
        norm = np.linalg.norm(amps)
        if norm == 0.0:
            raise ValueError("state vector is identically zero")
        amps = amps / norm
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def fidelity(self, other: "TwoModeState") -> float:
        """|<self|other>|, insensitive to global phase."""
        if self.n_photons != other.n_photons:
            return 0.0
        return abs(np.vdot(self.amplitudes, other.amplitudes))

    def is_symmetric(self) -> bool:
        """Whether psi_k == psi_{N-k} exactly."""
        return bool(np.array_equal(self.amplitudes, self.amplitudes[::-1]))

    def norm_error(self) -> float:
        return abs(np.vdot(self.amplitudes, self.amplitudes).real - 1.0)


@dataclass(frozen=True)
class TriPortConfig:
    """Reflectivities and phase shifts of the three-port preparation scheme."""

    r1: float
    r2: float
    r3: float
    phi1: float
    phi2: float

    def __post_init__(self):
        for name in ("r1", "r2", "r3"):
            r = getattr(self, name)
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"{name}={r} outside [0, 1]")


def _check_chi(chi: float) -> float:
    chi = float(chi)
    if not 0.0 <= chi <= 2.0:
        raise ValueError(f"chi={chi} outside [0, 2]")
    return chi


def make_loss_resistant(half_n: int, chi: float) -> TwoModeState:
    """Expand [(b1+)^2 + chi b1+ b2+ + (b2+)^2]^n |0,0> in the |N-k,k> basis.

    half_n is n (the state carries N = 2n photons).  The expansion is done by
    repeated polynomial multiplication of the quadratic form; monomial
    coefficients pick up sqrt(k! (N-k)!) when converted to Fock amplitudes.
    """
    chi = _check_chi(chi)
    if half_n < 1:
        raise ValueError("half_n must be >= 1")
    # Polynomial coefficients over monomials x^(N-k) y^k, starting from
    # the quadratic x^2 + chi x y + y^2.
    quad = np.array([1.0, chi, 1.0])
    poly = np.array([1.0])
    for _ in range(half_n):
        poly = np.convolve(poly, quad)
    n_tot = 2 * half_n
    amps = np.array(
        [poly[k] * math.sqrt(math.factorial(n_tot - k) * math.factorial(k))
         for k in range(n_tot + 1)],
        dtype=complex,
    )
    return TwoModeState(n_tot, amps)


def make_exact_optimal4(chi1p: float, chi2p: float) -> TwoModeState:
    """Four-photon symmetric state with two free middle amplitudes.

    Returns the normalization of |0,4> + chi1p |1,3> + chi2p |2,2>
    + chi1p |3,1> + |4,0>.  The loss-resistant family is the slice
    chi1p = chi, chi2p = (2 + chi^2)/sqrt(6).
    """
    if not (math.isfinite(chi1p) and math.isfinite(chi2p)):
        raise ValueError("chi1p and chi2p must be finite")
    amps = np.array([1.0, chi1p, chi2p, chi1p, 1.0], dtype=complex)
    return TwoModeState(4, amps)


def make_single_photon() -> TwoModeState:
    """The symmetric single-photon state (|1,0> + |0,1>)/sqrt(2)."""
    return TwoModeState(1, np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0))


def synthesize_triport(chi: float) -> TriPortConfig:
    """Beam-splitter reflectivities and phases that generate the chi state."""
    chi = _check_chi(chi)
    return TriPortConfig(
        r1=1.0 / (1.0 + chi),
        r2=1.0 / (2.0 + chi),
        r3=1.0 / (1.0 + chi),
        # Rises from -sqrt(2)/2 at chi = 0 to exactly 1 at chi = 2.
        phi1=math.asin(0.5 * (chi - 1.0) * math.sqrt(2.0 + chi)),
        phi2=math.acos(0.5 * chi),
    )


def _beam_splitter(r: float, p: int, q: int) -> np.ndarray:
    """3x3 transfer matrix: reflection keeps the mode with factor i*sqrt(R)."""
    m = np.eye(3, dtype=complex)
    m[p, p] = m[q, q] = 1j * math.sqrt(r)
    m[p, q] = m[q, p] = math.sqrt(1.0 - r)
    return m


def _phase_shifter(phi: float, p: int) -> np.ndarray:
    m = np.eye(3, dtype=complex)
    m[p, p] = np.exp(1j * phi)
    return m


def triport_transfer_matrix(config: TriPortConfig) -> np.ndarray:
    """Input->output creation-operator map a_i+ = sum_j M_ij b_j+.

    Network order: BS(R1) on modes (2,3), phase phi1 on mode 3, BS(R2) on
    modes (1,2), BS(R3) on modes (2,3), phase phi2 on output mode 2.
    """
    return (
        _beam_splitter(config.r1, 1, 2)
        @ _phase_shifter(config.phi1, 2)
        @ _beam_splitter(config.r2, 0, 1)
        @ _beam_splitter(config.r3, 1, 2)
        @ _phase_shifter(config.phi2, 1)
    )


def forward_simulate_triport(config: TriPortConfig, half_n: int) -> TwoModeState:
    """Propagate |n,n,0> through the network and post-select vacuum in port 3.

    The input polynomial (a1+)^n (a2+)^n is expanded over output-mode
    monomials; every term containing b3+ is dropped, and the rest is
    converted to |N-k,k> amplitudes and normalized.
    """
    if half_n < 1:
        raise ValueError("half_n must be >= 1")
    m = triport_transfer_matrix(config)
    n_tot = 2 * half_n

    # poly[e1, e2] = coefficient of b1+^e1 b2+^e2 (b3+ terms already dropped:
    # multiplying by a linear form and discarding its b3 part at every step
    # is equivalent to post-selecting at the end, since dropped monomials
    # never lose their b3 factor).
    poly = np.zeros((n_tot + 1, n_tot + 1), dtype=complex)
    poly[0, 0] = 1.0
    for row in (0, 1):  # a1+ n times, then a2+ n times
        for _ in range(half_n):
            nxt = np.zeros_like(poly)
            nxt[1:, :] += m[row, 0] * poly[:-1, :]
            nxt[:, 1:] += m[row, 1] * poly[:, :-1]
            poly = nxt

    amps = np.array(
        [poly[n_tot - k, k]
         * math.sqrt(math.factorial(n_tot - k) * math.factorial(k))
         for k in range(n_tot + 1)]
    )
    if np.linalg.norm(amps) < 1e-15:
        raise ValueError("post-selected output has zero weight")
    return TwoModeState(n_tot, amps)
