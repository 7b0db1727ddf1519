import math

import numpy as np
import pytest

from lossyphase import states
from lossyphase.states import (
    TwoModeState,
    forward_simulate_triport,
    make_exact_optimal4,
    make_loss_resistant,
    make_single_photon,
    synthesize_triport,
)


def test_two_photon_noon():
    state = make_loss_resistant(1, 0.0)
    ref = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
    assert np.allclose(state.amplitudes, ref, atol=1e-15)


def test_two_photon_chi_expansion():
    state = make_loss_resistant(1, 1.7)
    ref = np.array([math.sqrt(2.0), 1.7, math.sqrt(2.0)])
    ref /= np.linalg.norm(ref)
    assert np.allclose(state.amplitudes, ref, atol=1e-15)


def test_four_photon_chi_one():
    state = make_loss_resistant(2, 1.0)
    ref = np.array([1.0, 1.0, 3.0 / math.sqrt(6.0), 1.0, 1.0])
    ref /= np.linalg.norm(ref)
    assert np.allclose(state.amplitudes, ref, atol=1e-14)


@pytest.mark.parametrize("chi", [-0.1, 2.3, 3.0])
def test_chi_out_of_range_rejected(chi):
    with pytest.raises(ValueError):
        make_loss_resistant(1, chi)


def test_zero_half_n_rejected():
    with pytest.raises(ValueError):
        make_loss_resistant(0, 1.0)


@pytest.mark.parametrize("half_n", [1.5, 2.0, True])
def test_non_integer_half_n_rejected(half_n):
    triport = synthesize_triport(1.0)
    with pytest.raises(ValueError, match="half_n must be an integer"):
        make_loss_resistant(half_n, 1.0)
    with pytest.raises(ValueError, match="half_n must be an integer"):
        forward_simulate_triport(triport, half_n)


@pytest.mark.parametrize("half_n", [80, 86])
def test_overflowing_amplitudes_rejected(half_n):
    # N = 160 overflows the norm, N = 172 the factorials; neither may come
    # back as an all-zero state.
    with pytest.raises(ValueError, match="not finite|overflow"):
        make_loss_resistant(half_n, 1.0)


def test_overflowing_triport_output_rejected():
    with pytest.raises(ValueError, match="overflow"):
        forward_simulate_triport(synthesize_triport(1.0), 86)


@pytest.mark.parametrize("half_n", [86, 10 ** 4, 10 ** 9])
def test_half_n_beyond_float_factorials_refused_before_any_work(monkeypatch, half_n):
    # N! overflows a float beyond N = 170: the expansion and the (2 half_n + 1)^2
    # array of the network must never start.
    def no_work(*args):
        raise AssertionError("work began before half_n was checked")

    monkeypatch.setattr(np, "convolve", no_work)
    monkeypatch.setattr(states, "triport_transfer_matrix", no_work)
    triport = synthesize_triport(1.0)
    for make in (make_loss_resistant, lambda h, _: forward_simulate_triport(triport, h)):
        with pytest.raises(ValueError, match=f"half_n={half_n} .*overflow"):
            make(half_n, 1.0)


def test_largest_safe_states_keep_their_bits():
    # The norm's overflow check leaves a valid state as it was.
    state = make_loss_resistant(60, 1.0)
    assert np.isfinite(state.amplitudes).all() and state.norm_error() < 1e-12
    big = make_exact_optimal4(1e150, 1.0)
    amps = np.array([1.0, 1e150, 1.0, 1e150, 1.0], dtype=complex)
    assert big.amplitudes.tolist() == (amps / np.linalg.norm(amps)).tolist()
    with pytest.raises(ValueError, match="not finite"):
        make_exact_optimal4(1e200, 1.0)


def test_family_symmetric_and_normalized():
    for chi in np.arange(0.0, 2.0001, 0.25):
        for n in (1, 2, 3, 4):
            state = make_loss_resistant(n, float(chi))
            assert state.is_symmetric()
            assert state.norm_error() < 1e-12


@pytest.mark.parametrize(
    "chi,r1,r2,phi1,phi2",
    [
        (1.0, 0.5, 1.0 / 3.0, 0.0, math.pi / 3.0),
        (0.0, 1.0, 0.5, -math.pi / 4.0, math.pi / 2.0),
        (2.0, 1.0 / 3.0, 0.25, math.pi / 2.0, 0.0),
    ],
)
def test_triport_parameters(chi, r1, r2, phi1, phi2):
    cfg = synthesize_triport(chi)
    assert cfg.r1 == pytest.approx(r1, abs=1e-15)
    assert cfg.r3 == pytest.approx(r1, abs=1e-15)
    assert cfg.r2 == pytest.approx(r2, abs=1e-15)
    assert cfg.phi1 == pytest.approx(phi1, abs=1e-15)
    assert cfg.phi2 == pytest.approx(phi2, abs=1e-15)


def test_forward_simulation_round_trip():
    for chi in np.arange(0.0, 2.0001, 0.05):
        for n in (1, 2, 3):
            cfg = synthesize_triport(float(chi))
            out = forward_simulate_triport(cfg, n)
            target = make_loss_resistant(n, float(chi))
            assert out.fidelity(target) >= 1.0 - 1e-10


def test_forward_simulation_noon_case():
    out = forward_simulate_triport(synthesize_triport(0.0), 1)
    assert out.fidelity(make_loss_resistant(1, 0.0)) >= 1.0 - 1e-12


def test_exact_optimal4_noon_case():
    state = make_exact_optimal4(0.0, 0.0)
    ref = np.zeros(5)
    ref[0] = ref[4] = 1.0 / math.sqrt(2.0)
    assert np.allclose(state.amplitudes, ref, atol=1e-15)


def test_exact_optimal4_equal_weights():
    state = make_exact_optimal4(1.0, 1.0)
    assert np.allclose(np.abs(state.amplitudes), 1.0 / math.sqrt(5.0), atol=1e-15)


def test_exact_optimal4_contains_chi_slice():
    for chi in np.arange(0.0, 2.0001, 0.2):
        slice_state = make_exact_optimal4(
            float(chi), (2.0 + chi * chi) / math.sqrt(6.0)
        )
        family = make_loss_resistant(2, float(chi))
        # componentwise after phase alignment (all amplitudes real positive)
        assert np.max(np.abs(slice_state.amplitudes - family.amplitudes)) < 1e-12


def test_exact_optimal4_rejects_non_finite():
    with pytest.raises(ValueError):
        make_exact_optimal4(math.nan, 1.0)
    with pytest.raises(ValueError):
        make_exact_optimal4(1.0, math.inf)


def test_single_photon_state():
    state = make_single_photon()
    assert state.n_photons == 1
    assert state.amplitudes[0] == state.amplitudes[1]
    assert state.norm_error() < 1e-15


def test_state_validation():
    with pytest.raises(ValueError):
        TwoModeState(2, np.zeros(3))
    with pytest.raises(ValueError, match="not finite"):
        TwoModeState(2, np.array([1.0, math.inf, 1.0]))
    with pytest.raises(ValueError, match="not finite"):
        TwoModeState(2, np.array([1.0, math.nan, 1.0]))
    with pytest.raises(ValueError):
        TwoModeState(2, np.ones(2))
