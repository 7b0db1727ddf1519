"""One-step (greedy) choice of the controlled phase.

The controlled phase for the next detection aims at the largest expected
sharpness: the sum over outcomes of the magnitude of the predicted first
harmonic of the unnormalized posterior.  Every function here is a one-row
view over a batch kernel of `_engine` and returns its row bit for bit.
"""

from __future__ import annotations

import numpy as np

from lossyphase import _engine
from lossyphase.detection import OutcomeLikelihoodTable
from lossyphase.posterior import PhaseDistribution
from lossyphase.states import _require_real

__all__ = [
    "expected_sharpness",
    "optimal_theta_numeric",
    "optimal_theta_single_photon",
]


def expected_sharpness(
    prior: PhaseDistribution, table: OutcomeLikelihoodTable, theta: float
) -> float:
    """Predicted sharpness after the next detection at controlled phase
    theta; raises on a non-finite theta."""
    theta = _require_real("theta", theta)
    batch = prior.coeffs[None, :]
    return float(
        _engine.expected_sharpness_batch(batch, table.matrix, np.array([theta]))[0]
    )


def optimal_theta_numeric(
    prior: PhaseDistribution, table: OutcomeLikelihoodTable
) -> float:
    """The numeric feedback phase in [0, 2pi) (`_engine.numeric_theta_batch`);
    theta + pi scores the same."""
    batch = prior.coeffs[None, :]
    return float(_engine.numeric_theta_batch(batch, table.matrix)[0])


def optimal_theta_single_photon(prior: PhaseDistribution) -> float:
    """Best controlled phase before a single-photon detection, for every
    eta (`_engine.closed_form_theta_batch`)."""
    return float(_engine.closed_form_theta_batch(prior.coeffs[None, :])[0])
