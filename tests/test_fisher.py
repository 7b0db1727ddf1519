import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import traced_peak

from lossyphase import _engine, fisher
from lossyphase.detection import build_likelihood_table, evaluate_outcome
from lossyphase.fisher import (
    _CHI_GRID,
    _COMPASS_ROUNDS,
    _COMPASS_STOP,
    _PHI_GRID,
    _compass,
    _fisher,
    _grid_max,
    _rows,
    _weights,
    fisher_information,
    max_fisher_exact_optimal4,
    max_fisher_over_chi,
)
from lossyphase.states import (
    TwoModeState,
    make_exact_optimal4,
    make_loss_resistant,
    make_single_photon,
)


class TestAnchors:
    def test_single_photon_lossless(self):
        state = make_single_photon()
        for x in (0.3, 1.0, 2.5):
            assert fisher_information(state, 1.0, x, 0.0) == pytest.approx(
                1.0, abs=1e-9
            )

    def test_single_photon_lossy_scales_with_eta(self):
        state = make_single_photon()
        for eta in (0.6, 0.25):
            assert fisher_information(state, eta, 1.1, 0.3) == pytest.approx(
                eta, abs=1e-9
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase_rejected(self, bad):
        state = make_loss_resistant(1, 0.8)
        for phi, theta in ((bad, 0.0), (0.5, bad)):
            with pytest.raises(ValueError, match="finite"):
                fisher_information(state, 0.6, phi, theta)

    def test_eta_zero_gives_zero(self):
        assert fisher_information(make_loss_resistant(1, 0.8), 0.0, 0.5, 0.0) == 0.0

    def test_noon_is_phase_independent(self):
        state = make_loss_resistant(1, 0.0)
        vals = [fisher_information(state, 0.6, x, 0.0) for x in (0.3, 1.1, 2.0)]
        assert np.allclose(vals, 0.6 ** 2 * 4.0, atol=1e-9)


class TestDerivative:
    def test_analytic_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        h = 1e-5
        for _ in range(12):
            n = int(rng.integers(1, 5))
            amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            table = build_likelihood_table(TwoModeState(n, amps), 0.55)
            x = float(rng.uniform(0.0, 2.0 * math.pi))
            for o, c in table.coeffs.items():
                nd = n - o.lost
                d = np.arange(-nd, nd + 1)
                analytic = float(
                    np.sum(1j * d * c * np.exp(1j * d * x)).real
                )
                numeric = (
                    evaluate_outcome(table, o, x + h, 0.0)
                    - evaluate_outcome(table, o, x - h, 0.0)
                ) / (2.0 * h)
                scale = max(abs(analytic), abs(numeric), 1e-3)
                assert abs(analytic - numeric) / scale < 1e-6

    def test_noon_probability_zero_gives_n_squared(self):
        # Just off a NOON probability zero, where P ~ 1e-14 and dP^2 / P is
        # 0/0 to rounding: the amplitude form still gives N^2.
        f = fisher_information(make_loss_resistant(1, 0.0), 1.0,
                               math.pi / 2.0 + 1e-7, 0.0)
        assert f == pytest.approx(4.0, abs=1e-9)


class TestMaximization:
    def test_two_photon_lossless_limit_is_noon(self):
        chi, f = max_fisher_over_chi(2, 1.0)
        assert chi < 0.05
        assert f == pytest.approx(4.0, abs=1e-3)

    def test_scan_steps_around_divergences(self):
        # the near-lossless NOON grid passes next to probability zeros
        chi, f = max_fisher_over_chi(2, 0.999)
        assert f > 3.9

    def test_invalid_photon_number(self):
        with pytest.raises(ValueError):
            max_fisher_over_chi(3, 0.6)

    def test_non_integer_photon_number_is_named(self):
        with pytest.raises(ValueError, match="n_photons must be an integer, got 2.0"):
            max_fisher_over_chi(2.0, 0.6)

    def test_eta_zero_maximum_is_zero(self):
        _, f = max_fisher_over_chi(2, 0.0)
        assert f == 0.0

    def test_exact_optimal4_superset_of_chi_family(self):
        _, f_family = max_fisher_over_chi(4, 0.6)
        _, _, f_exact = max_fisher_exact_optimal4(0.6)
        assert f_exact >= f_family - 1e-9

    def test_exact_optimal4_lossless_reaches_noon_bound(self):
        c1, c2, f = max_fisher_exact_optimal4(1.0)
        assert f == pytest.approx(16.0, abs=2e-2)
        assert abs(c1) < 0.05 and abs(c2) < 0.05


# F of one state, one state per numpy call.
def reference_sums(w, x):
    """Per outcome, sum_m |A|^2, sum_m Re(conj(A) A') and sum_m |A'|^2 of
    one state's `_weights` at a 1-D array of points."""
    r = np.arange(w.shape[0])
    starts = _rows(len(r) - 1)[1]
    both = (np.exp(-1j * np.multiply.outer(x, r)) @ w).reshape(len(x), 2, -1)
    amp, slope = both[:, 0], both[:, 1]
    return [np.add.reduceat(v, starts, axis=1) for v in (
        amp.real * amp.real + amp.imag * amp.imag,
        amp.real * slope.real + amp.imag * slope.imag,
        slope.real * slope.real + slope.imag * slope.imag)]


def reference_fisher_sum(norm, half_dp, limit, n_photons):
    zero = norm == 0.0
    ratio = np.where(zero, 4.0 * limit,
                     4.0 * half_dp * half_dp / np.where(zero, 1.0, norm))
    return ratio @ _rows(n_photons)[2]


def reference_fisher(w, x):
    return reference_fisher_sum(*reference_sums(w, x), w.shape[0] - 1)


# The table form dP^2 / P, from the Fourier coefficients: an independent
# check of the amplitude form away from probability zeros.
def table_p_and_slope(table, x):
    d = _engine._band(table.matrix.shape[1])
    phases = np.exp(1j * np.multiply.outer(d, x))
    p = (table.matrix @ phases).real
    dp = ((table.matrix * (1j * d)) @ phases).real
    return p, dp


# The one-state compass search over phi, one phase point per numpy call: the
# reference the lockstep search must reproduce float for float.
def reference_compass_over_phi(w):
    vals = reference_fisher(w, _PHI_GRID)
    i = int(np.argmax(vals))
    phi, f = _PHI_GRID[i], vals[i]
    h, step = 1.0, math.pi / 256
    for _ in range(_COMPASS_ROUNDS):
        if h * step < _COMPASS_STOP:
            break
        moves = [phi + h * step, phi - h * step]
        scores = [reference_fisher(w, np.array([m]))[0] for m in moves]
        j = int(np.argmax(scores))
        if scores[j] > f:
            phi, f = moves[j], scores[j]
        else:
            h /= 2.0
    return f


# max over phi of F for each state, each state its own lockstep compass
# search from the best point of its phi grid: the package's searches with
# no state parameter.
def lockstep_max_over_phi(states, eta):
    w = np.stack([_weights(s, eta) for s in states])
    phi, fx = np.array([_grid_max(ws) for ws in w]).T
    return _compass(lambda owner, x: _fisher(w[owner], x)[:, 0],
                    phi[:, None], fx, (math.pi / 256,))[1]


# A golden-section search within one grid step of the grid winner: a second
# algorithm, the independent witness of the compass searches' maxima.
def reference_grid_golden_max(f, grid, vals, lo, hi, iters):
    i = int(np.argmax(vals))
    step = grid[1] - grid[0]
    a, b = max(lo, grid[i] - step), min(hi, grid[i] + step)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = b - invphi * (b - a), a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 > f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    return max([(grid[i], vals[i]), (x1, f1), (x2, f2)], key=lambda c: c[1])


def reference_max_over_phi(w):
    vals = reference_fisher(w, _PHI_GRID)

    def f(phi):
        return float(reference_fisher(w, np.array([phi]))[0])

    return reference_grid_golden_max(f, _PHI_GRID, vals, -math.inf,
                                     math.inf, 30)[1]


def reference_max_fisher_over_chi(n_photons, eta):
    def objective(chi):
        return reference_max_over_phi(
            _weights(make_loss_resistant(n_photons // 2, chi), eta))

    vals = np.array([objective(c) for c in _CHI_GRID])
    return reference_grid_golden_max(objective, _CHI_GRID, vals, 0.0, 2.0, 25)


class TestLockstepWitness:
    """The lockstep compass takes every search's own steps, and lands on
    the maxima the golden-section reference finds."""

    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("eta", [0.3, 0.6, 0.999, 1.0])
    def test_stack_matches_one_table_search(self, n, eta):
        rng = np.random.default_rng([n, int(eta * 1000)])
        states = [TwoModeState(n, rng.normal(size=n + 1)
                               + 1j * rng.normal(size=n + 1))
                  for _ in range(40)]
        stacked = lockstep_max_over_phi(states, eta)
        expected = [reference_compass_over_phi(_weights(s, eta)) for s in states]
        assert stacked.tolist() == expected
        golden = [reference_max_over_phi(_weights(s, eta)) for s in states]
        assert np.allclose(stacked, golden, rtol=1e-12, atol=0.0)

    def test_noon_stack_with_divergent_grid_points(self):
        # NOON states have probability zeros on the phase grid, where the
        # table form dP^2 / P diverged; F is eta^N N^2 at every phase.
        x = np.linspace(0.0, 2.0 * math.pi, 1001)
        for state in (make_loss_resistant(1, 0.0), make_exact_optimal4(0.0, 0.0)):
            n = state.n_photons
            w = np.stack([_weights(state, eta) for eta in (0.6, 0.9, 1.0)])
            expected = [eta ** n * n * n for eta in (0.6, 0.9, 1.0)]
            for ws, f in zip(w, expected):
                for points in (_PHI_GRID, x):
                    assert np.allclose(_fisher(ws[None], points[None])[0], f,
                                       rtol=1e-12, atol=0.0), (n, f)
            stacked = np.array([lockstep_max_over_phi([state] * 2, eta)
                                for eta in (0.6, 0.9, 1.0)])
            assert np.allclose(stacked, np.array(expected)[:, None],
                               rtol=1e-12, atol=0.0)
            assert stacked.tolist() == [[reference_compass_over_phi(ws)] * 2
                                        for ws in w]

    @pytest.mark.parametrize("n_photons", [2, 4])
    def test_chi_maximum_matches_reference_composition(self, n_photons):
        chi_ref, f_ref = reference_max_fisher_over_chi(n_photons, 0.6)
        chi, f = max_fisher_over_chi(n_photons, 0.6)
        assert f == pytest.approx(f_ref, rel=1e-12, abs=0.0)
        assert abs(chi - chi_ref) <= 1e-6
        for c in (chi - 1e-5, chi + 1e-5):
            if 0.0 <= c <= 2.0:
                state = make_loss_resistant(n_photons // 2, c)
                assert reference_max_over_phi(_weights(state, 0.6)) <= f, c

    @pytest.mark.parametrize("eta", [0.3, 0.6, 0.9, 1.0])
    def test_chi_maxima_match_reference_composition_across_eta(self, eta):
        for n_photons in (2, 4):
            f_ref = reference_max_fisher_over_chi(n_photons, eta)[1]
            f = max_fisher_over_chi(n_photons, eta)[1]
            assert f == pytest.approx(f_ref, rel=1e-12, abs=0.0), n_photons

    @pytest.mark.parametrize("eta", [0.3, 0.6, 1.0])
    def test_vanishing_outcomes_take_the_bound_bit_for_bit(self, eta):
        # _fisher takes the bound only at the points where some outcome
        # vanishes (every point at eta = 1, where loss never happens); the
        # reference takes it everywhere and keeps it there.
        states = [make_loss_resistant(1, 0.8), make_loss_resistant(2, 1.3),
                  make_exact_optimal4(1.0, 2.0), make_exact_optimal4(0.0, 0.0)]
        for group in (states[:1], states[1:]):
            w = np.stack([_weights(s, eta) for s in group])
            x = np.stack([_PHI_GRID + 0.01 * i for i in range(len(group))])
            x[:, ::7] = 0.0
            got = _fisher(w, x)
            for ws, xs, row in zip(w, x, got):
                hit = (reference_sums(ws, xs)[0] == 0.0).any(axis=1)
                assert hit.any() and (eta == 1.0 or not hit.all())
                assert row.tolist() == reference_fisher(ws, xs).tolist()


def package_states():
    """Every state the package's searches make: the single photon, both
    loss-resistant families on the chi grid, and the two-parameter family on
    its seed grid."""
    grid = np.arange(0.0, 4.01, 0.25)
    return ([make_single_photon()]
            + [make_loss_resistant(h, c) for h in (1, 2) for c in _CHI_GRID]
            + [make_exact_optimal4(c1, c2) for c1 in grid for c2 in grid])


class TestAmplitudeWitness:
    """Independent checks of the amplitude form."""

    @pytest.mark.parametrize("eta", [0.6, 1.0])
    def test_never_above_n_squared(self, eta):
        # On a phase scan, and where the compass searches land next to the
        # probability zeros of near-NOON states.
        x = np.linspace(0.0, math.pi, 1001)
        states = package_states()
        worst = max(
            float(_fisher(_weights(s, eta)[None], x[None]).max())
            - s.n_photons ** 2
            for s in states)
        for n in (1, 2, 4):
            group = [s for s in states if s.n_photons == n]
            worst = max(worst, lockstep_max_over_phi(group, eta).max() - n * n)
        worst = max(worst, max_fisher_over_chi(2, eta)[1] - 4.0,
                    max_fisher_exact_optimal4(eta)[2] - 16.0)
        assert worst <= 1e-9

    @pytest.mark.parametrize("eta", [0.3, 0.6, 0.9, 1.0])
    def test_matches_table_form_away_from_zeros(self, eta):
        rng = np.random.default_rng([7, int(eta * 10)])
        x = np.linspace(0.0, 2.0 * math.pi, 401)
        checked = 0
        for _ in range(50):
            n = int(rng.integers(1, 5))
            state = TwoModeState(
                n, rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1))
            table = build_likelihood_table(state, eta)
            live = np.any(table.matrix != 0.0, axis=1)
            p, dp = table_p_and_slope(table, x)
            p, dp = p[live], dp[live]
            ok = np.all(p >= 1e-6, axis=0)
            expected = (dp * dp / np.where(ok, p, 1.0)).sum(axis=0)[ok]
            got = _fisher(_weights(state, eta)[None], x[None])[0][ok]
            assert np.allclose(got, expected, rtol=1e-9, atol=0.0)
            checked += int(ok.sum())
        assert checked > 10000

    @pytest.mark.parametrize("eta", [0.9, 0.95, 1.0])
    def test_near_noon_maxima_are_stable(self, eta):
        pairs = [(make_loss_resistant(h, 0.0), make_loss_resistant(h, 1e-15))
                 for h in (1, 2)]
        pairs += [(make_exact_optimal4(0.0, 0.0), make_exact_optimal4(*chi))
                  for chi in ((1e-15, 0.0), (0.0, 1e-15))]
        for pair in pairs:
            f = lockstep_max_over_phi(list(pair), eta)
            assert f[1] == pytest.approx(f[0], rel=1e-9, abs=0.0)


@pytest.mark.parametrize("eta", [-0.1, 1.5, math.nan])
def test_eta_outside_unit_interval_rejected(eta):
    with pytest.raises(ValueError, match="outside"):
        fisher_information(make_single_photon(), eta, 0.3, 0.0)
    with pytest.raises(ValueError, match="outside"):
        max_fisher_over_chi(2, eta)
    with pytest.raises(ValueError, match="outside"):
        max_fisher_exact_optimal4(eta)


def test_optimal4_memory_stays_flat():
    """The seed scan holds one block of tables, not all 310 at once."""
    max_fisher_exact_optimal4(0.6)
    peak = traced_peak(max_fisher_exact_optimal4, 0.6)
    assert peak <= 2e6, f"tracemalloc peak {peak / 1e6:.2f} MB"


class TestCompassSearch:
    """The refinement of the two-parameter four-photon family."""

    @pytest.mark.parametrize("eta", [0.3, 0.6, 0.7])
    def test_ends_on_a_local_maximum(self, eta):
        c1, c2, f = max_fisher_exact_optimal4(eta)
        for d1 in (-1e-5, 0.0, 1e-5):
            for d2 in (-1e-5, 0.0, 1e-5):
                state = make_exact_optimal4(c1 + d1, c2 + d2)
                assert lockstep_max_over_phi([state], eta)[0] <= f, (d1, d2)

    def test_not_below_the_earlier_maximum(self):
        # perfbench/reference.json's value, from a Nelder-Mead refinement.
        earlier = 3.2235080614489604
        f = max_fisher_exact_optimal4(0.6)[2]
        assert f >= earlier * (1.0 - 1e-12)
        assert f == pytest.approx(earlier, rel=1e-8)

    def test_flat_objective_halves_to_the_stop_and_keeps_the_best_seed(
            self, monkeypatch):
        # At eta = 0 every F is 0: no move improves, so each round halves h.
        shapes, params = [], []
        score, make = fisher._fisher, fisher.make_exact_optimal4

        def counted_score(w, x):
            shapes.append(x.shape)
            return score(w, x)

        def recorded_make(c1, c2):
            params.append((c1, c2))
            return make(c1, c2)

        monkeypatch.setattr(fisher, "_fisher", counted_score)
        monkeypatch.setattr(fisher, "make_exact_optimal4", recorded_make)
        c1, c2, f = max_fisher_exact_optimal4(0.0)
        rounds = math.ceil(math.log2(0.125 / _COMPASS_STOP))
        assert rounds == 21 < _COMPASS_ROUNDS
        # The seed scan, one phi grid per state, then 3 searches x 6 moves.
        n_seeds = 17 * 17 + 21
        assert shapes == [(1, len(_PHI_GRID))] * n_seeds + [(18, 1)] * rounds
        assert len(params) == n_seeds + 18 * rounds
        assert f == 0.0
        assert (c1, c2) == params[0] == (0.0, 0.0)


def test_runs_without_scipy():
    """numpy is the only runtime dependency."""
    code = ("import sys; sys.modules['scipy'] = None\n"
            "import lossyphase\n"
            "print(lossyphase.max_fisher_exact_optimal4(0.6)[2])")
    src = str(Path(fisher.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=src)
    assert float(out.stdout) == pytest.approx(3.2235080614489604, rel=1e-8)
