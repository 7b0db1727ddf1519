"""One-step (greedy) choice of the controlled phase.

The controlled phase for the next detection aims at the largest expected
sharpness, i.e. the sum over outcomes of the magnitude of the predicted
first-harmonic coefficient of the unnormalized posterior.  For single
photons the three candidate phases are available in closed form and the
best is kept.  Multi-photon states take the best of the 32 grid brackets
on [0, pi), one period of the objective by the tables' port-swap symmetry,
refined by damped Newton inside that bracket; a near-equal peak in another
bracket can be missed (see `_engine.numeric_theta_batch`).
Every function here is a one-row view over the batch kernels of `_engine`
and returns that kernel's row bit for bit; what the views cost is the
kernels' fixed per-call work (see `_engine`).  The prior's coefficients
are finite by construction (`PhaseDistribution`), and a non-finite theta
is rejected.
"""

from __future__ import annotations

import math

import numpy as np

from lossyphase import _engine
from lossyphase.detection import OutcomeLikelihoodTable
from lossyphase.posterior import PhaseDistribution

__all__ = [
    "expected_sharpness",
    "optimal_theta_numeric",
    "optimal_theta_single_photon",
]


def expected_sharpness(
    prior: PhaseDistribution, table: OutcomeLikelihoodTable, theta: float
) -> float:
    """Predicted sharpness after the next detection at controlled phase theta.

    Sums |first harmonic of prior * likelihood| over every outcome in the
    table; outcomes carrying no phase information (total loss) contribute a
    theta-independent constant.  A non-finite theta is rejected.
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    batch = prior.coeffs[None, :]
    return float(
        _engine.expected_sharpness_batch(batch, table.matrix, np.array([theta]))[0]
    )


def optimal_theta_numeric(
    prior: PhaseDistribution, table: OutcomeLikelihoodTable
) -> float:
    """The numeric feedback phase: the best 32-point grid bracket on [0, pi).

    Ties are broken toward the smallest theta, then damped Newton refines
    inside the winning grid bracket; the result lies in [0, 2pi) and
    theta + pi scores the same.
    """
    batch = prior.coeffs[None, :]
    return float(_engine.numeric_theta_batch(batch, table.matrix)[0])


def optimal_theta_single_photon(prior: PhaseDistribution) -> float:
    """Best controlled phase before a single-photon detection.

    Evaluates the closed-form candidates and keeps the winner; a flat prior
    returns 0 by convention and degenerate coefficients fall back to the
    numeric search.  Loss only shifts the objective by a constant, so the
    result is valid for every eta.
    """
    return float(_engine.closed_form_theta_batch(prior.coeffs[None, :])[0])
