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


@dataclass(frozen=True)
class TwoModeState:
    """Normalized two-mode N-photon state, amplitudes[k] = <N-k, k | psi>."""

    n_photons: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        _require_integer("n_photons", self.n_photons, least=0)
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.n_photons + 1,):
            raise ValueError(
                f"expected {self.n_photons + 1} amplitudes, got {amps.shape}"
            )
        with np.errstate(over="ignore"):  # an overflow is rejected below
            norm = np.linalg.norm(amps)
        if norm == 0.0:
            raise ValueError("state vector is identically zero")
        if not math.isfinite(norm):
            raise ValueError(f"state vector norm {norm} is not finite")
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
    """Reflectivities in [0, 1] and finite phase shifts of the three-port
    preparation scheme, stored as the floats their checks return."""

    r1: float
    r2: float
    r3: float
    phi1: float
    phi2: float

    def __post_init__(self):
        for name in ("r1", "r2", "r3"):
            object.__setattr__(self, name, _require_real(name, getattr(self, name), 0.0, 1.0))
        for name in ("phi1", "phi2"):
            object.__setattr__(self, name, _require_real(name, getattr(self, name)))


def _require_integer(name: str, value, least: float = -math.inf) -> None:
    """Reject a bool, a non-integer and an integer below least; numpy
    integers are integers."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")


def _require_real(name: str, value, lo: float = -math.inf, hi: float = math.inf) -> float:
    """value as a float; rejects a bool, a non-number, nan, +-inf and any
    value outside [lo, hi], naming the argument."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer,
                                                          np.floating)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if lo <= value <= hi and math.isfinite(value):
        return value
    if lo == -math.inf and hi == math.inf:
        raise ValueError(f"{name} must be finite, got {value!r}")
    raise ValueError(f"{name}={value} outside [{lo:g}, {hi:g}]")


def _check_half_n(half_n: int) -> None:
    """Refuse, before any work, a half_n below 1 or one whose N! overflows a
    float (N = 2 half_n > 170)."""
    _require_integer("half_n", half_n, least=1)
    if half_n > 85:
        raise ValueError(f"half_n={half_n} above 85: N! would overflow a float")


def _fock_amplitudes(coefs) -> np.ndarray:
    """psi_k = coefs[k] sqrt((N-k)! k!) of the monomials x^(N-k) y^k."""
    n_tot = len(coefs) - 1
    return np.array([c * math.sqrt(math.factorial(n_tot - k) * math.factorial(k))
                     for k, c in enumerate(coefs)], dtype=complex)


def make_loss_resistant(half_n: int, chi: float) -> TwoModeState:
    """Expand [(b1+)^2 + chi b1+ b2+ + (b2+)^2]^n |0,0> in the |N-k,k> basis.

    half_n is n, an integer in [1, 85] (the state carries N = 2n photons).
    Raises ValueError where the amplitudes overflow a float.
    """
    chi = _require_real("chi", chi, 0.0, 2.0)
    _check_half_n(half_n)
    # Polynomial coefficients over monomials x^(N-k) y^k.
    quad = np.array([1.0, chi, 1.0])
    poly = np.array([1.0])
    for _ in range(half_n):
        poly = np.convolve(poly, quad)
    return TwoModeState(2 * half_n, _fock_amplitudes(poly))


def make_exact_optimal4(chi1p: float, chi2p: float) -> TwoModeState:
    """Four-photon symmetric state with two free middle amplitudes.

    Returns the normalization of |0,4> + chi1p |1,3> + chi2p |2,2>
    + chi1p |3,1> + |4,0>.  The loss-resistant family is the slice
    chi1p = chi, chi2p = (2 + chi^2)/sqrt(6).
    """
    chi1p, chi2p = _require_real("chi1p", chi1p), _require_real("chi2p", chi2p)
    amps = np.array([1.0, chi1p, chi2p, chi1p, 1.0], dtype=complex)
    return TwoModeState(4, amps)


def make_single_photon() -> TwoModeState:
    """The symmetric single-photon state (|1,0> + |0,1>)/sqrt(2)."""
    return TwoModeState(1, np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0))


def _state_for(n_photons: int, chi: float) -> TwoModeState:
    """The single photon for N = 1 (chi unread), the chi state for N = 2
    or 4; raises ValueError for any other N."""
    if n_photons == 1:
        return make_single_photon()
    if n_photons in (2, 4):
        return make_loss_resistant(n_photons // 2, chi)
    raise ValueError("n-photons must be 1, 2, or 4")


def synthesize_triport(chi: float) -> TriPortConfig:
    """Beam-splitter reflectivities and phases that generate the chi state."""
    chi = _require_real("chi", chi, 0.0, 2.0)
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


def _times_linear_form(poly: np.ndarray, coefs) -> np.ndarray:
    """poly times sum_m coefs[m] a_m+, where poly[e] is the coefficient of
    prod_m a_m+^e[m]; terms beyond poly's shape are dropped."""
    out = np.zeros_like(poly)
    for axis, c in enumerate(coefs):
        src, dst = [slice(None)] * poly.ndim, [slice(None)] * poly.ndim
        src[axis], dst[axis] = slice(None, -1), slice(1, None)
        out[tuple(dst)] += c * poly[tuple(src)]
    return out


def forward_simulate_triport(config: TriPortConfig, half_n: int) -> TwoModeState:
    """Propagate |n,n,0> through the network and post-select vacuum in port 3.

    half_n is n, an integer in [1, 85].  Raises ValueError where the
    amplitudes overflow a float or the post-selected output has zero weight.
    """
    _check_half_n(half_n)
    m = triport_transfer_matrix(config)
    n_tot = 2 * half_n

    # poly[e1, e2] = coefficient of b1+^e1 b2+^e2 (b3+ terms already dropped:
    # multiplying by a linear form and discarding its b3 part at every step
    # is equivalent to post-selecting at the end, since dropped monomials
    # never lose their b3 factor).
    poly = np.zeros((n_tot + 1, n_tot + 1), dtype=complex)
    poly[0, 0] = 1.0
    for coefs in (m[0, :2],) * half_n + (m[1, :2],) * half_n:  # a1+^n, then a2+^n
        poly = _times_linear_form(poly, coefs)

    amps = _fock_amplitudes([poly[n_tot - k, k] for k in range(n_tot + 1)])
    if np.linalg.norm(amps) < 1e-15:
        raise ValueError("post-selected output has zero weight")
    return TwoModeState(n_tot, amps)
