import json
import math

import numpy as np
import pytest

from lossyphase.detection import Outcome, build_likelihood_table, evaluate_outcome
from lossyphase.posterior import (
    PhaseDistribution,
    bayes_update,
    flat_prior,
    holevo_variance,
    sharpness,
)
from lossyphase.states import make_loss_resistant, make_single_photon


def test_flat_prior():
    prior = flat_prior()
    assert prior.max_harmonic == 0
    assert prior.coefficient(0) == 1.0
    xs = np.linspace(0.0, 2.0 * math.pi, 7)
    assert np.allclose(prior.density(xs), 1.0 / (2.0 * math.pi), atol=1e-15)
    assert sharpness(prior) == 0.0
    assert holevo_variance(prior) == math.inf


@pytest.mark.parametrize("phi", [math.nan, [0.3, math.inf], [[0.1], [-math.inf]]],
                         ids=["nan", "inf-in-array", "-inf-in-2d"])
def test_density_refuses_a_non_finite_phi(phi):
    # Unchecked, the phases of nan or inf raise numpy's RuntimeWarning
    # (an error under this suite's filter) and the density reads nan.
    with pytest.raises(ValueError, match=r"^phi must be finite, got "):
        flat_prior().density(phi)
    assert flat_prior().density(np.zeros((2, 3))).shape == (2, 3)


def test_single_fringe_update():
    table = build_likelihood_table(make_single_photon(), 1.0)
    theta = 0.789
    post = bayes_update(flat_prior(), table, Outcome(0, 0), theta)
    xs = np.linspace(0.0, 2.0 * math.pi, 129)
    expect = (1.0 + np.cos(xs - theta)) / (2.0 * math.pi)
    assert np.max(np.abs(post.density(xs) - expect)) < 1e-14
    assert sharpness(post) == pytest.approx(0.5, abs=1e-12)
    assert holevo_variance(post) == pytest.approx(3.0, abs=1e-12)


def test_loss_outcome_keeps_posterior():
    t1 = build_likelihood_table(make_single_photon(), 1.0)
    t06 = build_likelihood_table(make_single_photon(), 0.6)
    post = bayes_update(flat_prior(), t1, Outcome(0, 1), 2.0)
    post2 = bayes_update(post, t06, Outcome(1, 0), 0.123)
    j = post.max_harmonic
    assert np.max(np.abs(
        post2.coeffs[post2.max_harmonic - j: post2.max_harmonic + j + 1]
        - post.coeffs
    )) < 1e-14


def test_harmonic_growth():
    t2 = build_likelihood_table(make_loss_resistant(1, 1.7), 0.6)
    post = flat_prior()
    post = bayes_update(post, t2, Outcome(0, 1), 0.3)
    assert post.max_harmonic == 2
    post = bayes_update(post, t2, Outcome(1, 0), 0.3)
    assert post.max_harmonic == 3
    post = bayes_update(post, t2, Outcome(2, 0), 0.3)
    assert post.max_harmonic == 3


def test_normalization_and_hermitian_after_updates():
    rng = np.random.default_rng(3)
    t2 = build_likelihood_table(make_loss_resistant(1, 1.7), 0.6)
    post = flat_prior()
    for _ in range(6):
        o = list(t2.coeffs)[rng.integers(0, 6)]
        post = bayes_update(post, t2, o, rng.uniform(0.0, 2.0 * math.pi))
        assert abs(post.coefficient(0) - 1.0) < 1e-12
        assert post.hermitian_defect() < 1e-12
        mags = np.abs(post.coeffs)
        assert np.all(mags <= 1.0 + 1e-12)


def test_dense_grid_bayes_oracle():
    rng = np.random.default_rng(21)
    grid = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    for n in (2, 4):
        state = (make_loss_resistant(1, 1.7) if n == 2
                 else make_loss_resistant(2, 1.3))
        table = build_likelihood_table(state, 0.6)
        dens = np.full(grid.size, 1.0 / (2.0 * math.pi))
        post = flat_prior()
        for _ in range(4):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            outcome = list(table.coeffs)[rng.integers(0, len(table.coeffs))]
            like = np.array(
                [evaluate_outcome(table, outcome, p, theta) for p in grid]
            )
            dens = dens * like
            dens /= dens.sum() * (2.0 * math.pi / grid.size)
            post = bayes_update(post, table, outcome, theta)
            assert np.max(np.abs(post.density(grid) - dens)) < 1e-8


def test_degenerate_update_rejected():
    table = build_likelihood_table(make_single_photon(), 1.0)
    with pytest.raises(ValueError):
        bayes_update(flat_prior(), table, Outcome(1, 0), 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_theta_rejected(bad):
    table = build_likelihood_table(make_single_photon(), 0.6)
    with pytest.raises(ValueError, match="finite"):
        bayes_update(flat_prior(), table, Outcome(0, 0), bad)


class TestValidation:
    """J is a non-bool integer >= 0, the 2J + 1 coefficients are finite."""

    @pytest.mark.parametrize("j, size", [(1.5, 4), (1.0, 3), (True, 3), (False, 1),
                                         (-1, 0), ("1", 3), (None, 1)])
    def test_bad_max_harmonic_rejected(self, j, size):
        with pytest.raises(ValueError, match="max_harmonic"):
            PhaseDistribution(j, np.ones(size, dtype=complex))

    def test_numpy_integer_accepted(self):
        dist = PhaseDistribution(np.int64(1), [0.5, 1.0, 0.5])
        assert dist.max_harmonic == 1 and type(dist.max_harmonic) is int
        assert json.loads(json.dumps(dist.to_json_dict()))["max_harmonic"] == 1

    @pytest.mark.parametrize("size", [1, 2, 4])
    def test_wrong_length_rejected(self, size):
        with pytest.raises(ValueError, match="expected 3 coefficients"):
            PhaseDistribution(1, np.ones(size, dtype=complex))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan),
                                     complex(math.inf, 0.0)])
    def test_non_finite_coefficient_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PhaseDistribution(1, np.array([bad, 1.0, 0.5], dtype=complex))

    def test_numeric_feedback_never_sees_a_nan_prior(self):
        # It used to return 0.0 for one; such a prior cannot be made now.
        with pytest.raises(ValueError, match="finite"):
            PhaseDistribution(1, np.array([math.nan, 1.0, math.nan]))

    def test_coefficients_are_a_read_only_copy(self):
        coeffs = np.array([0.25, 1.0, 0.25], dtype=complex)
        dist = PhaseDistribution(1, coeffs)
        coeffs[0] = 9.0
        assert dist.coeffs[0] == 0.25
        with pytest.raises(ValueError, match="read-only"):
            dist.coeffs[0] = 0.0

    @pytest.mark.parametrize("re, im", [([0.25, 1.0, 0.25], [0.0]),
                                        ([1.0], [0.0, 0.0, 0.0]),
                                        ([0.25, 1.0, 0.25], [])])
    def test_json_parts_of_unequal_length_rejected(self, re, im):
        with pytest.raises(ValueError):
            PhaseDistribution.from_json_dict({"max_harmonic": 1, "re": re, "im": im})

    def test_json_of_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="expected 5 coefficients"):
            PhaseDistribution.from_json_dict(
                {"max_harmonic": 2, "re": [0.25, 1.0, 0.25], "im": [0.0, 0.0, 0.0]})


def test_sharpness_reads_first_harmonic():
    coeffs = np.array([0.2 - 0.1j, 0.3 + 0.4j, 1.0, 0.3 - 0.4j, 0.2 + 0.1j])
    dist = PhaseDistribution(2, coeffs)
    assert sharpness(dist) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize(
    "mu,expect", [(0.5, 3.0), (1.0, 0.0), (0.3, 1.0 / 0.09 - 1.0)]
)
def test_holevo_values(mu, expect):
    dist = PhaseDistribution(1, np.array([mu, 1.0, mu], dtype=complex))
    assert holevo_variance(dist) == pytest.approx(expect, abs=1e-12)


def test_json_round_trip():
    coeffs = np.array([0.25 + 0.1j, 1.0, 0.25 - 0.1j])
    dist = PhaseDistribution(1, coeffs)
    doc = json.loads(json.dumps(dist.to_json_dict()))
    assert doc["max_harmonic"] == 1
    back = PhaseDistribution.from_json_dict(doc)
    assert np.allclose(back.coeffs, dist.coeffs, atol=0.0)
