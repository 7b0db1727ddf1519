import math
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from lossyphase import _engine, fisher
from lossyphase.detection import build_likelihood_table, evaluate_outcome
from lossyphase.fisher import (
    _CHI_GRID,
    _COMPASS_ROUNDS,
    _COMPASS_STEPS,
    _PHI_GRID,
    FisherDivergenceError,
    _max_over_phi,
    _max_over_phi_stack,
    fisher_from_table,
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

    def test_divergence_near_removable_zero_raises(self):
        # Just off the NOON probability zero: P < 1e-12 while |dP| > 1e-9.
        table = build_likelihood_table(make_loss_resistant(1, 0.0), 1.0)
        with pytest.raises(FisherDivergenceError):
            fisher_from_table(table, math.pi / 2.0 + 1e-7, 0.0)


class TestMaximization:
    def test_two_photon_lossless_limit_is_noon(self):
        chi, f = max_fisher_over_chi(2, 1.0)
        assert chi < 0.05
        assert f == pytest.approx(4.0, abs=1e-3)

    def test_scan_steps_around_divergences(self):
        # the lossless NOON grid contains removable zeros; max must survive
        chi, f = max_fisher_over_chi(2, 0.999)
        assert f > 3.9

    def test_invalid_photon_number(self):
        with pytest.raises(ValueError):
            max_fisher_over_chi(3, 0.6)

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


# The one-table search, one table and one phase point per numpy call: the
# reference the lockstep search must reproduce float for float.
def reference_p_and_slope(table, x):
    d = _engine._band(table.matrix.shape[1])
    phases = np.exp(1j * np.multiply.outer(d, x))
    p = (table.matrix @ phases).real
    dp = ((table.matrix * (1j * d)) @ phases).real
    return p, dp


def reference_fisher_sum(p, dp):
    small = p < 1e-12
    divergent = small & (np.abs(dp) >= 1e-9)
    ratio = np.where(small, 0.0, dp * dp / np.where(small, 1.0, p))
    total = ratio.sum(axis=0)
    total[divergent.any(axis=0)] = -math.inf
    return total


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


def reference_max_over_phi(table):
    vals = reference_fisher_sum(*reference_p_and_slope(table, _PHI_GRID))
    if not math.isfinite(vals.max()):
        return 0.0

    def f(phi):
        return float(reference_fisher_sum(
            *reference_p_and_slope(table, np.array([phi])))[0])

    return reference_grid_golden_max(f, _PHI_GRID, vals, -math.inf,
                                     math.inf, 30)[1]


def reference_max_fisher_over_chi(n_photons, eta):
    def objective(chi):
        return reference_max_over_phi(build_likelihood_table(
            make_loss_resistant(n_photons // 2, chi), eta))

    vals = np.array([objective(c) for c in _CHI_GRID])
    return reference_grid_golden_max(objective, _CHI_GRID, vals, 0.0, 2.0, 25)


class TestLockstepWitness:
    """The stacked maximiser takes every search's own steps."""

    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("eta", [0.3, 0.6, 0.999, 1.0])
    def test_stack_matches_one_table_search(self, n, eta):
        rng = np.random.default_rng([n, int(eta * 1000)])
        tables = [
            build_likelihood_table(TwoModeState(
                n, rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)), eta)
            for _ in range(40)
        ]
        expected = [reference_max_over_phi(t) for t in tables]
        stacked = _max_over_phi_stack(np.stack([t.matrix for t in tables]))
        assert stacked.tolist() == expected
        assert [_max_over_phi(t) for t in tables] == expected

    def test_noon_stack_with_divergent_grid_points(self):
        # Lossless NOON tables have probability zeros on the phase grid.
        tables = [build_likelihood_table(make_loss_resistant(h, 0.0), 1.0)
                  for h in (1, 2)]
        tables += [build_likelihood_table(make_single_photon(), 1.0)]
        for t in tables:
            expected = reference_max_over_phi(t)
            assert _max_over_phi_stack(t.matrix[None]).tolist() == [expected]

    def test_table_divergent_on_the_whole_grid_scores_zero(self):
        # P = -1 + 1e-3 cos x and -1 + 1e-3 sin x: every grid point has an
        # outcome below the floor with a slope above it.
        divergent = np.array([[5e-4, -1.0, 5e-4],
                              [5e-4j, -1.0, -5e-4j],
                              [0.0, 0.0, 0.0]])
        table = build_likelihood_table(make_single_photon(), 0.6)
        expected = [reference_max_over_phi(SimpleNamespace(matrix=divergent)),
                    reference_max_over_phi(table)]
        assert expected[0] == 0.0
        stacked = _max_over_phi_stack(np.stack([divergent, table.matrix]))
        assert stacked.tolist() == expected

    @pytest.mark.parametrize("n_photons", [2, 4])
    def test_chi_maximum_matches_reference_composition(self, n_photons):
        chi, f = reference_max_fisher_over_chi(n_photons, 0.6)
        assert max_fisher_over_chi(n_photons, 0.6) == (float(chi), float(f))


def test_optimal4_memory_stays_flat():
    """The seed scan holds one block of tables, not all 310 at once."""
    max_fisher_exact_optimal4(0.6)
    tracemalloc.start()
    try:
        max_fisher_exact_optimal4(0.6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6, f"tracemalloc peak {peak / 1e6:.2f} MB"


class TestCompassSearch:
    """The refinement of the two-parameter four-photon family."""

    @pytest.mark.parametrize("eta", [0.3, 0.6, 0.7])
    def test_ends_on_a_local_maximum(self, eta):
        c1, c2, f = max_fisher_exact_optimal4(eta)
        for d1 in (-1e-5, 0.0, 1e-5):
            for d2 in (-1e-5, 0.0, 1e-5):
                table = build_likelihood_table(
                    make_exact_optimal4(c1 + d1, c2 + d2), eta)
                assert _max_over_phi(table) <= f, (d1, d2)

    def test_not_below_the_earlier_maximum(self):
        # perfbench/reference.json's value, from a Nelder-Mead refinement.
        earlier = 3.2235080614489604
        f = max_fisher_exact_optimal4(0.6)[2]
        assert f >= earlier * (1.0 - 1e-12)
        assert f == pytest.approx(earlier, rel=1e-8)

    def test_flat_objective_halves_to_the_stop_and_keeps_the_best_seed(
            self, monkeypatch):
        # At eta = 0 every F is 0: no move improves, so each round halves h.
        sizes, params = [], []
        scan, make = fisher._max_over_phi_states, fisher.make_exact_optimal4

        def counted_scan(states, eta):
            sizes.append(len(states))
            return scan(states, eta)

        def recorded_make(c1, c2):
            params.append((c1, c2))
            return make(c1, c2)

        monkeypatch.setattr(fisher, "_max_over_phi_states", counted_scan)
        monkeypatch.setattr(fisher, "make_exact_optimal4", recorded_make)
        c1, c2, f = max_fisher_exact_optimal4(0.0)
        h0, h_stop = _COMPASS_STEPS
        rounds = math.ceil(math.log2(h0 / h_stop))
        assert rounds < _COMPASS_ROUNDS
        assert sizes == [17 * 17 + 21] + [12] * rounds
        assert f == 0.0
        assert (c1, c2) in params[:sizes[0]]


def test_runs_without_scipy():
    """numpy is the only runtime dependency."""
    code = ("import sys; sys.modules['scipy'] = None\n"
            "import lossyphase\n"
            "print(lossyphase.max_fisher_exact_optimal4(0.6)[2])")
    src = str(Path(fisher.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=src)
    assert float(out.stdout) == pytest.approx(3.2235080614489604, rel=1e-8)
