"""Bayesian phase posterior as a truncated Fourier series.

The distribution over the unknown phase is stored as

    P(phi) = (1/2pi) sum_{j=-J..J} a_j exp(-i j phi),

with a_0 = 1 when normalized.  A Bayes update multiplies by a detection
likelihood, which is a correlation of the two coefficient vectors; the
harmonic cutoff grows by N - L per detection and is never truncated below
the exact degree.  The sharpness mu = |<e^{i phi}>| is the magnitude of the
first-harmonic coefficient, and the Holevo variance is mu^-2 - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from lossyphase import _engine
from lossyphase.detection import Outcome, OutcomeLikelihoodTable

__all__ = [
    "PhaseDistribution",
    "flat_prior",
    "bayes_update",
    "sharpness",
    "holevo_variance",
    "variance_from_sharpness",
]


@dataclass(frozen=True)
class PhaseDistribution:
    """Coefficients a_j over j = -J..J; coeffs[J + j] holds a_j.

    J must be a non-bool integer >= 0 and the 2J + 1 coefficients finite;
    they are stored as a read-only copy.
    """

    max_harmonic: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        j = self.max_harmonic
        if isinstance(j, bool) or not isinstance(j, (int, np.integer)) or j < 0:
            raise ValueError(f"max_harmonic must be an integer >= 0, got {j!r}")
        c = np.array(self.coeffs, dtype=complex)
        if c.shape != (2 * j + 1,):
            raise ValueError(f"expected {2 * j + 1} coefficients, got {c.shape}")
        if not np.isfinite(c).all():
            raise ValueError("coefficients must be finite")
        c.flags.writeable = False
        object.__setattr__(self, "max_harmonic", int(j))
        object.__setattr__(self, "coeffs", c)

    def coefficient(self, j: int) -> complex:
        """a_j, zero outside the stored band."""
        if abs(j) > self.max_harmonic:
            return 0.0 + 0.0j
        return complex(self.coeffs[self.max_harmonic + j])

    def density(self, phi) -> np.ndarray:
        """P(phi) evaluated pointwise (phi may be an array)."""
        vals = _engine._phases(phi, self.coeffs.size) @ self.coeffs
        return vals.real / (2.0 * math.pi)

    def hermitian_defect(self) -> float:
        return float(np.max(np.abs(self.coeffs - np.conj(self.coeffs[::-1]))))

    def to_json_dict(self) -> dict:
        return {
            "max_harmonic": self.max_harmonic,
            "re": [float(v.real) for v in self.coeffs],
            "im": [float(v.imag) for v in self.coeffs],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PhaseDistribution":
        re, im = data["re"], data["im"]
        if len(re) != len(im):
            raise ValueError(f"re has {len(re)} entries and im {len(im)}")
        c = np.array(re, dtype=complex) + 1j * np.array(im, dtype=float)
        return cls(data["max_harmonic"], c)


def flat_prior() -> PhaseDistribution:
    """The uniform distribution 1/2pi (a_0 = 1, J = 0)."""
    return PhaseDistribution(0, np.ones(1, dtype=complex))


def bayes_update(
    prior: PhaseDistribution,
    table: OutcomeLikelihoodTable,
    outcome: Outcome,
    theta: float,
) -> PhaseDistribution:
    """Posterior after observing `outcome` with controlled phase theta,
    renormalized to a_0 = 1: the one-row, one-outcome case of
    `_engine.advance_batch`, which widens the band by N - L.  Raises on a
    non-finite theta and on an outcome of zero predictive probability; an
    identically zero likelihood, such as loss at eta = 1, gives a_0 = 0
    exactly.
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    c = table.row(outcome)
    raw = _engine.advance_batch(prior.coeffs[None, :], c[None, None, :],
                                np.array([theta]))[0, 0]
    mid = prior.max_harmonic + (len(c) - 1) // 2
    norm = raw.item(mid).real
    if norm <= 0.0:
        raise ValueError(f"degenerate update: outcome {outcome} has zero likelihood")
    return PhaseDistribution(mid, raw / norm)


def sharpness(dist: PhaseDistribution) -> float:
    """mu = |<e^{i phi}>| = |a_1| (= |a_{-1}| by Hermitian symmetry)."""
    return abs(dist.coefficient(1))


def holevo_variance(dist: PhaseDistribution) -> float:
    """mu^-2 - 1, with +inf for a flat (mu = 0) distribution."""
    return variance_from_sharpness(sharpness(dist))


def variance_from_sharpness(mu: float) -> float:
    """Holevo variance mu^-2 - 1 of sharpness mu; +inf below mu = 1e-15."""
    if mu < 1e-15:
        return math.inf
    return 1.0 / (mu * mu) - 1.0
