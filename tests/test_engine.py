"""The batch kernels against the plain implementations they replace.

The references below are the fixed-band Bayes update (one shift per
harmonic d into a band allocated wide enough up front) and the
full-circle 64-point grid search followed by exactly 12 Newton steps.
"""

import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lossyphase import _engine
from lossyphase.detection import (
    Outcome,
    OutcomeLikelihoodTable,
    build_likelihood_table,
    evaluate_outcome,
)
from lossyphase.feedback import (
    expected_sharpness,
    optimal_theta_numeric,
    optimal_theta_single_photon,
)
from lossyphase.posterior import PhaseDistribution, bayes_update, flat_prior
from lossyphase.states import (
    TwoModeState,
    make_exact_optimal4,
    make_loss_resistant,
    make_single_photon,
)

CHI_GRID = [round(0.1 * i, 1) for i in range(21)]


def reference_advance(batch, cmat, thetas):
    """Fixed-band update: the batch padded by the table order, one shift per d."""
    order = (cmat.shape[1] - 1) // 2
    band = np.pad(batch, ((0, 0), (order, order)))
    n_c = band.shape[1]
    d = np.arange(-order, order + 1)
    phases = np.exp(-1j * np.multiply.outer(thetas, d))
    out = np.zeros((batch.shape[0], cmat.shape[0], n_c), dtype=complex)
    for oi in range(cmat.shape[0]):
        for di, dv in enumerate(d):
            coef = cmat[oi, di] * phases[:, di]
            lo, hi = max(0, -dv), n_c - max(0, dv)
            out[:, oi, lo:hi] += coef[:, None] * band[:, lo + dv: hi + dv]
    return out


def reference_numeric_theta(batch, cmat):
    """64-point grid on the full circle, then 12 damped Newton steps."""
    w = _engine._g1_weights(batch, cmat)
    order = (cmat.shape[1] - 1) // 2
    d = np.arange(-order, order + 1)
    grid = 2.0 * math.pi * np.arange(64) / 64
    step = 2.0 * math.pi / 64
    phases = np.exp(-1j * np.multiply.outer(d, grid))
    vals = sum(np.abs(w[:, o, :] @ phases) for o in range(w.shape[1]))
    top = vals.max(axis=1, keepdims=True)
    idx = np.argmax(vals >= top * (1.0 - _engine._SNAP), axis=1)
    rows = np.arange(batch.shape[0])
    margin = 1.0 + _engine._SNAP
    refine = ((vals[rows, idx] > vals[rows, (idx - 1) % 64] * margin)
              & (vals[rows, idx] > vals[rows, (idx + 1) % 64] * margin))
    theta = grid[idx].copy()
    wr = w[refine]
    t, lo, hi = theta[refine], theta[refine] - step, theta[refine] + step
    w1 = wr * (-1j * d)
    w2 = wr * (-(d * d.astype(float)))
    scale = np.abs(wr).sum(axis=(1, 2)) + 1e-300
    mag_floor = (1e-15 * scale)[:, None]
    for _ in range(12):
        ph = np.exp(-1j * np.multiply.outer(t, d))
        g = np.einsum("bod,bd->bo", wr, ph)
        g1 = np.einsum("bod,bd->bo", w1, ph)
        g2 = np.einsum("bod,bd->bo", w2, ph)
        safe = np.abs(g) + mag_floor
        inner = np.real(np.conj(g) * g1)
        mu1 = (inner / safe).sum(axis=1)
        mu2 = ((np.abs(g1) ** 2 + np.real(np.conj(g) * g2)) / safe
               - inner ** 2 / safe ** 3).sum(axis=1)
        t = np.clip(t + mu1 / (np.abs(mu2) + 1e-9 * scale), lo, hi)
    theta[refine] = t
    return np.mod(theta, 2.0 * math.pi)


def random_hermitian(rng, rows, harmonics):
    x = rng.normal(size=(rows, 2 * harmonics + 1)) \
        + 1j * rng.normal(size=(rows, 2 * harmonics + 1))
    return 0.5 * (x + np.conj(x[:, ::-1]))


def port_swap_holds(cmat, outcomes):
    """Row (L, N-L-k) equals row (L, k) with column d times (-1)^d, exactly."""
    order = (cmat.shape[1] - 1) // 2
    sign = (-1.0) ** np.arange(-order, order + 1)
    row = {tuple(o): r for o, r in zip(outcomes, cmat)}
    return all(np.array_equal(row[(L, order - L - k)], r * sign)
               for (L, k), r in row.items())


def circular_gap(a, b):
    delta = np.mod(np.asarray(a) - np.asarray(b), 2.0 * math.pi)
    return np.minimum(delta, 2.0 * math.pi - delta)


TABLE_STATES = {
    1: make_single_photon(),
    2: make_loss_resistant(1, 1.7),
    4: make_loss_resistant(2, 1.3),
}


class TestPhases:
    """_phases exponentiates d >= 0 only on wide calls and mirrors the rest
    by conjugation."""

    @pytest.mark.parametrize("mirror_min", [0, _engine._MIRROR_MIN])
    @pytest.mark.parametrize("width", range(3, 62, 2))
    def test_equals_the_direct_exponential_byte_for_byte(self, width, mirror_min,
                                                         monkeypatch):
        # With mirror_min 0 every call mirrors, one-row and scalar calls
        # too.  Signed zeros included: -0.0 gives 1 - 0j at d > 0 and
        # 1 + 0j at d < 0, both ways.
        monkeypatch.setattr(_engine, "_MIRROR_MIN", mirror_min)
        x = np.concatenate([np.random.default_rng(width).uniform(-40.0, 40.0, 4096),
                            _engine.THETA_GRID, [0.0, math.pi, -0.0, -math.pi]])
        want = np.exp(-1j * np.multiply.outer(x, _engine._band(width)))
        assert _engine._phases(x, width).tobytes() == want.tobytes()
        for i in range(-4, 0):
            assert _engine._phases(x[i:][:1], width).tobytes() == want[i:][:1].tobytes()
            assert _engine._phases(x[i], width).tobytes() == want[i].tobytes()


class TestAdvance:
    @pytest.mark.parametrize("eta", [0.6, 1.0])
    @pytest.mark.parametrize("n_photons", [1, 2, 4])
    @pytest.mark.parametrize("harmonics", [0, 3, 8])
    def test_matches_fixed_band_reference(self, n_photons, eta, harmonics):
        rng = np.random.default_rng(100 * n_photons + harmonics)
        cmat = build_likelihood_table(TABLE_STATES[n_photons], eta).matrix
        order = (cmat.shape[1] - 1) // 2
        batch = random_hermitian(rng, 40, harmonics)
        thetas = rng.uniform(0.0, 2.0 * math.pi, 40)
        atol = 1e-14 * np.abs(batch).max()
        ref = reference_advance(batch, cmat, thetas)

        out = _engine.advance_batch(batch, cmat, thetas)
        assert out.shape == (40, cmat.shape[0], batch.shape[1] + 2 * order)
        np.testing.assert_allclose(out, ref, rtol=0.0, atol=atol)

        picks = rng.integers(0, cmat.shape[0], 40)
        sel = _engine.advance_batch(batch, cmat[picks][:, None], thetas)[:, 0]
        assert sel.shape == (40, batch.shape[1] + 2 * order)
        np.testing.assert_allclose(sel, ref[np.arange(40), picks],
                                   rtol=0.0, atol=atol)

    @pytest.mark.parametrize("rows", [1, _engine._BLOCK_ROWS, _engine._BLOCK_ROWS + 1])
    @pytest.mark.parametrize("n_photons", [1, 2, 4])
    def test_keep_is_the_centre_of_the_whole_band(self, n_photons, rows):
        # One outcome per row: each kept harmonic is the same dot product
        # over the window whatever the output width, for every keep from 1
        # to beyond the band, across the block boundary.
        rng = np.random.default_rng(200 + 10 * n_photons + rows)
        cmat = build_likelihood_table(TABLE_STATES[n_photons], 0.6).matrix
        batch = random_hermitian(rng, rows, 5)
        stack = cmat[rng.integers(0, cmat.shape[0], rows)][:, None]
        thetas = rng.uniform(0.0, 2.0 * math.pi, rows)
        whole = _engine.advance_batch(batch, stack, thetas)[:, 0]
        half = whole.shape[1] // 2
        for keep in range(1, half + 2):
            got = _engine.advance_batch(batch, stack, thetas, keep=keep)[:, 0]
            lo = max(half - keep, 0)
            assert got.shape == (rows, whole.shape[1] - 2 * lo)
            assert got.tobytes() == whole[:, lo:whole.shape[1] - lo].tobytes()

    @pytest.mark.parametrize("rows", [1, 7, _engine._BLOCK_ROWS, _engine._BLOCK_ROWS + 1,
                                      1000])
    @pytest.mark.parametrize("n_photons", [1, 2, 4])
    def test_advance_selected_is_advance_batch_on_one_outcome(self, n_photons, rows):
        # The name the benchmark's tracer still wraps is advance_batch's
        # child picks[b] of each row b, hex-equal with and without keep,
        # across the block boundary.
        rng = np.random.default_rng(400 + 10 * n_photons + rows)
        cmat = build_likelihood_table(TABLE_STATES[n_photons], 0.6).matrix
        batch = random_hermitian(rng, rows, 5)
        picks = rng.integers(0, cmat.shape[0], rows)
        thetas = rng.uniform(0.0, 2.0 * math.pi, rows)
        for keep in (None, 1, 3, 6):
            want = _engine.advance_batch(batch, cmat[picks][:, None], thetas,
                                         keep=keep)[:, 0]
            got = _engine.advance_selected(batch, cmat, picks, thetas, keep=keep)
            assert got.shape == want.shape
            assert got.tobytes().hex() == want.tobytes().hex()


class TestLeafSharpness:
    """The identity the exact walk ends on: the expected sharpness at theta
    is the summed |first harmonic| of the children advance_batch builds."""

    @pytest.mark.parametrize("eta", [0.6, 1.0])
    @pytest.mark.parametrize("n_photons", [1, 2, 4])
    @pytest.mark.parametrize("harmonics", [0, 3, 8])
    def test_expected_sharpness_is_summed_child_harmonic(
            self, n_photons, eta, harmonics):
        rng = np.random.default_rng(300 + 10 * n_photons + harmonics)
        cmat = build_likelihood_table(TABLE_STATES[n_photons], eta).matrix
        batch = random_hermitian(rng, 40, harmonics)
        thetas = rng.uniform(0.0, 2.0 * math.pi, 40)
        children = _engine.advance_batch(batch, cmat, thetas)
        summed = sum(np.abs(_engine.first_harmonic(children[:, o]))
                     for o in range(cmat.shape[0]))
        got = _engine.expected_sharpness_batch(batch, cmat, thetas)
        np.testing.assert_allclose(got, summed, rtol=0.0,
                                   atol=1e-14 * np.abs(batch).max())


def random_posteriors(rng, count):
    """Posteriors after 2-5 detections of mixed states at random phases."""
    tables = [build_likelihood_table(s, 0.6) for s in TABLE_STATES.values()]
    posts = []
    for _ in range(count):
        post = flat_prior()
        for _ in range(int(rng.integers(2, 6))):
            table = tables[int(rng.integers(0, len(tables)))]
            outcome = table.outcomes[int(rng.integers(0, len(table.outcomes)))]
            post = bayes_update(post, table, outcome,
                                float(rng.uniform(0.0, 2.0 * math.pi)))
        posts.append(post)
    width = max(p.max_harmonic for p in posts)
    return np.stack([np.pad(p.coeffs, width - p.max_harmonic) for p in posts])


class TestNumericFeedback:
    @pytest.mark.parametrize("n, chi", [(1, 1.7), (2, 1.3)])
    def test_matches_full_circle_reference(self, n, chi):
        cmat = build_likelihood_table(make_loss_resistant(n, chi), 0.6).matrix
        batch = random_posteriors(np.random.default_rng(40 + n), 240)
        got = _engine.numeric_theta_batch(batch, cmat)
        ref = reference_numeric_theta(batch, cmat)
        assert circular_gap(got, ref).max() < 1e-9

    @pytest.mark.parametrize("eta", [0.2, 0.6, 1.0])
    @pytest.mark.parametrize("n", [1, 2])
    def test_chi_state_tables_are_pi_periodic(self, n, eta):
        for chi in CHI_GRID:
            table = build_likelihood_table(make_loss_resistant(n, chi), eta)
            assert port_swap_holds(table.matrix, table.outcomes), chi

    def test_other_tables_are_pi_periodic(self):
        assert port_swap_holds(_engine.SINGLE_FRINGE, [(0, 0), (0, 1)])
        for eta in (0.3, 1.0):
            for state in (make_single_photon(), make_exact_optimal4(0.4, 1.9)):
                table = build_likelihood_table(state, eta)
                assert port_swap_holds(table.matrix, table.outcomes)

    def test_asymmetric_states_are_pi_periodic_too(self):
        # A pi phase on one arm before the final 50:50 beam splitter is a
        # swap of its output ports, whatever the input state, so the
        # relabelling k <-> N-L-k maps every table onto itself.
        rng = np.random.default_rng(5)
        prior = PhaseDistribution(
            3, random_hermitian(rng, 1, 3)[0] + np.eye(1, 7, 3)[0] * 8.0)
        for amps in ([1.0, 0.4, 0.1], [1.0, 0.4j, 0.1 + 0.3j],
                     [0.2, 1.0, 0.5 - 0.1j, 0.3j, 0.9]):
            state = TwoModeState(len(amps) - 1, amps)
            assert not state.is_symmetric()
            table = build_likelihood_table(state, 0.6)
            assert port_swap_holds(table.matrix, table.outcomes)
            thetas = np.array([0.7, 0.7 + math.pi])
            vals = _engine.expected_sharpness_batch(
                np.repeat(prior.coeffs[None], 2, axis=0), table.matrix, thetas)
            assert vals[0] == pytest.approx(vals[1], rel=1e-14)


# A single photon read out by detectors of unequal efficiency: a pi shift
# maps port 0's fringe onto port 1's, which has another visibility, so no
# state makes this matrix and no likelihood table may hold it.
ETA0, ETA1 = 0.9, 0.4
UNBALANCED = np.array([
    [ETA0 / 4, ETA0 / 2, ETA0 / 4],
    [-ETA1 / 4, ETA1 / 2, -ETA1 / 4],
    [(ETA1 - ETA0) / 4, 1.0 - (ETA0 + ETA1) / 2, (ETA1 - ETA0) / 4],
], dtype=complex)


class TestFullCircleFallback:
    """Why no full-circle search is needed: tables without the port-swap
    symmetry are rejected, and maxima above pi have a twin below it."""

    def test_unbalanced_detectors_are_not_pi_periodic(self):
        assert not port_swap_holds(UNBALANCED, [(0, 0), (0, 1), (1, 0)])
        with pytest.raises(ValueError, match="port-swap"):
            OutcomeLikelihoodTable(1, 0.65, UNBALANCED)
        doc = {"n_photons": 1, "eta": 0.65, "entries": [
            {"L": L, "k": k, "re": list(row.real[L: 3 - L]),
             "im": list(row.imag[L: 3 - L])}
            for (L, k), row in zip([(0, 0), (0, 1), (1, 0)], UNBALANCED)]}
        with pytest.raises(ValueError, match="port-swap"):
            OutcomeLikelihoodTable.from_json_dict(doc)

    def test_finds_a_maximum_above_pi(self):
        cmat = build_likelihood_table(make_loss_resistant(1, 1.7), 0.6).matrix
        scan = 2.0 * math.pi * np.arange(4096) / 4096

        # For a prior peaked near 4.3 rad the objective has a maximum above
        # pi, as high as the full-circle one; the engine searches [0, pi)
        # and must return its twin there.
        prior = bayes_update(
            flat_prior(), build_likelihood_table(make_single_photon(), 1.0),
            Outcome(0, 0), 4.3)
        prior = bayes_update(
            prior, build_likelihood_table(make_loss_resistant(1, 1.7), 1.0),
            Outcome(0, 0), 4.3)
        rows = np.repeat(prior.coeffs[None], scan.size, axis=0)
        vals = _engine.expected_sharpness_batch(rows, cmat, scan)
        upper = scan >= math.pi
        best = scan[upper][np.argmax(vals[upper])]
        assert math.pi < best < 2.0 * math.pi
        assert vals[upper].max() == pytest.approx(vals.max(), rel=1e-14)

        theta = _engine.numeric_theta_batch(prior.coeffs[None], cmat)[0]
        assert 0.0 <= theta < math.pi
        assert circular_gap(theta, best - math.pi) <= 2.0 * math.pi / 4096
        assert _engine.expected_sharpness_batch(
            prior.coeffs[None], cmat, np.array([theta]))[0] \
            >= vals.max() - 1e-12


class TestPerRowStacks:
    """A (rows, outcomes, d) stack gives every row what its own table gives:
    each row picks one of the chi in {0.5, 1.3, 1.7} tables at random."""

    STACK_CHIS = (0.5, 1.3, 1.7)

    def stack(self, rng, half_n, eta, rows):
        mats = np.stack([build_likelihood_table(make_loss_resistant(half_n, chi),
                                                eta).matrix
                         for chi in self.STACK_CHIS])
        return mats[rng.integers(0, len(self.STACK_CHIS), rows)]

    @pytest.mark.parametrize("eta", [0.6, 1.0])
    @pytest.mark.parametrize("half_n", [1, 2])
    def test_numeric_theta_matches_row_by_row(self, half_n, eta):
        rng = np.random.default_rng(500 + 10 * half_n + int(10 * eta))
        batch = random_posteriors(rng, 60)
        per_row = self.stack(rng, half_n, eta, batch.shape[0])
        got = _engine.numeric_theta_batch(batch, per_row)
        want = [_engine.numeric_theta_batch(batch[i:i + 1], per_row[i])[0]
                for i in range(batch.shape[0])]
        assert circular_gap(got, want).max() <= 1e-9

    @pytest.mark.parametrize("eta", [0.6, 1.0])
    @pytest.mark.parametrize("half_n", [1, 2])
    def test_advance_and_sharpness_match_row_by_row(self, half_n, eta):
        rng = np.random.default_rng(600 + 10 * half_n + int(10 * eta))
        batch = random_hermitian(rng, 50, 5)
        per_row = self.stack(rng, half_n, eta, batch.shape[0])
        thetas = rng.uniform(0.0, 2.0 * math.pi, batch.shape[0])
        atol = 1e-14 * np.abs(batch).max()

        out = _engine.advance_batch(batch, per_row, thetas)
        sharp = _engine.expected_sharpness_batch(batch, per_row, thetas)
        for i in range(batch.shape[0]):
            row, t = batch[i:i + 1], thetas[i:i + 1]
            np.testing.assert_allclose(
                out[i], _engine.advance_batch(row, per_row[i], t)[0],
                rtol=0.0, atol=atol)
            np.testing.assert_allclose(
                sharp[i], _engine.expected_sharpness_batch(row, per_row[i], t)[0],
                rtol=0.0, atol=atol)


def settled_rows(plans):
    """(batch, per-row cmat) of every last-detection call of real walks."""
    from lossyphase.sequences import evaluate_plans_with_speedup

    seen = []
    kernel = _engine.numeric_theta_batch

    def spy(batch, cmat, **options):
        if options.get("sharpness") and options.get("settle"):
            seen.append((batch, np.broadcast_to(
                cmat, batch.shape[:1] + cmat.shape[-2:])))
        return kernel(batch, cmat, **options)

    _engine.numeric_theta_batch = spy
    try:
        evaluate_plans_with_speedup(plans)
    finally:
        _engine.numeric_theta_batch = kernel
    # Zero-padding a posterior band symmetrically leaves it as it is.
    width = max(b.shape[1] for b, _ in seen)
    return (np.concatenate([np.pad(b, ((0, 0), ((width - b.shape[1]) // 2,) * 2))
                            for b, _ in seen]),
            np.concatenate([c for _, c in seen]))


class TestSettledFeedback:
    """The last detection's settled feedback, which stops Newton on the
    gradient and returns the sharpness at its theta, against the unsettled
    step rule and expected_sharpness_batch on the rows of two real walks.
    Both bounds of the settled stop are needed: plan (1, 2, 0.4, 1, 0.8)
    has a flat-topped maximum, where a gradient-only stop lands 1.4e-4 rad
    short, and plan (1, 4, 1.2, 1, 1.2) has a row where one outcome's
    first harmonic nearly vanishes and the Newton steps shrink while the
    gradient does not, so a step-only stop falls 1.4e-4 short in S."""

    @pytest.fixture(scope="class")
    def rows(self):
        from lossyphase.sequences import SequencePlan

        return settled_rows([SequencePlan(1, 2, 0.4, 1, 0.8, 0.6),
                             SequencePlan(1, 4, 1.2, 1, 1.2, 0.6)])

    @staticmethod
    def step_rule_sharpness(rows):
        batch, cmat = rows
        return _engine.expected_sharpness_batch(
            batch, cmat, _engine.numeric_theta_batch(batch, cmat))

    def test_matches_sharpness_at_the_step_rule_theta(self, rows):
        batch, cmat = rows
        want = self.step_rule_sharpness(rows)
        theta, got = _engine.numeric_theta_batch(batch, cmat, settle=True,
                                                 sharpness=True)
        assert np.all(np.abs(got - want) <= 1e-15 * want)
        assert np.array_equal(got, _engine.expected_sharpness_batch(batch, cmat, theta))

    def test_rows_hold_a_nearly_vanishing_harmonic(self, rows):
        batch, cmat = rows
        theta = _engine.numeric_theta_batch(batch, cmat)
        w = _engine._g1_weights(batch, cmat)
        g = np.abs(np.einsum("bod,bd->bo", w, _engine._phases(theta, w.shape[2])))
        share = g.min(axis=1) / g.sum(axis=1)
        assert np.any((share > 1e-12) & (share < 1e-4))

    @pytest.mark.parametrize("dropped", ["_SETTLE_STEP", "_SETTLE_GRAD"])
    def test_each_bound_is_needed(self, rows, monkeypatch, dropped):
        want = self.step_rule_sharpness(rows)
        monkeypatch.setattr(_engine, dropped, math.inf)
        _, loose = _engine.numeric_theta_batch(*rows, settle=True, sharpness=True)
        assert np.max((want - loose) / want) > 1e-12


class TestRowBlocks:
    """The numeric feedback, the expected sharpness, the predictive
    probabilities of the sampled walk's draw and advance_batch run
    _BLOCK_ROWS rows at a time.  Rows are independent, so the blocked
    kernels equal one pass over the whole batch bit for bit, and the memory
    peak stops growing with the rows."""

    MATS = np.stack([build_likelihood_table(make_loss_resistant(2, chi), 0.6).matrix
                     for chi in (0.5, 1.3, 1.7)])
    # Sixteen full blocks and a ragged last one, one row, and none.
    ROWS = [16 * _engine._BLOCK_ROWS + 37, 1, 0]

    @staticmethod
    def one_pass(batch, cmat, settle):
        return _engine.numeric_theta_batch.__wrapped__(batch, cmat, settle=settle,
                                                       sharpness=True)

    def inputs(self, rows, per_row):
        rng = np.random.default_rng(700 + rows + per_row)
        batch = random_hermitian(rng, rows, 6)
        cmat = self.MATS[rng.integers(0, len(self.MATS), rows)] if per_row \
            else self.MATS[1]
        return rng, batch, cmat

    @pytest.mark.parametrize("per_row", [False, True])
    @pytest.mark.parametrize("rows", ROWS)
    def test_blocks_match_one_pass_bit_for_bit(self, rows, per_row):
        rng, batch, cmat = self.inputs(rows, per_row)
        got = _engine.numeric_theta_batch(batch, cmat)
        assert got.dtype == float and got.shape == (rows,)
        assert np.array_equal(got, self.one_pass(batch, cmat, False)[0])
        for settle in (False, True):
            got = _engine.numeric_theta_batch(batch, cmat, settle=settle,
                                              sharpness=True)
            for part, want in zip(got, self.one_pass(batch, cmat, settle)):
                assert part.dtype == float and part.shape == (rows,)
                assert np.array_equal(part, want)
        thetas = rng.uniform(0.0, 2.0 * math.pi, rows)
        for n in (1, _engine._BLOCK_ROWS + 1, rows):
            args = batch[:n], cmat[:n] if per_row else cmat, thetas[:n]
            got = _engine.expected_sharpness_batch(*args)
            assert got.dtype == float and got.shape == (min(n, rows),)
            assert np.array_equal(got, _engine.expected_sharpness_batch.__wrapped__(*args))
        # An option passed by position would be sliced as a per-row array.
        for n in (1, _engine._BLOCK_ROWS + 1):
            with pytest.raises(TypeError):
                _engine.numeric_theta_batch(batch[:n], cmat[:n] if per_row else cmat,
                                            True)

    @pytest.mark.parametrize("per_row", [False, True])
    @pytest.mark.parametrize("rows", ROWS)
    def test_predictive_blocks_match_one_pass_bit_for_bit(self, rows, per_row):
        rng, batch, cmat = self.inputs(rows, per_row)
        thetas = rng.uniform(0.0, 2.0 * math.pi, rows)
        w = _engine._g1_weights(batch, cmat, harmonic=0)
        want = np.einsum("bod,bd->bo", w, _engine._phases(thetas, w.shape[2])).real
        got = _engine.predictive_batch(batch, cmat, thetas)
        assert got.dtype == float and got.shape == (rows, cmat.shape[-2])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("rows", ROWS)
    def test_advance_batch_blocks_match_one_pass_bit_for_bit(self, rows):
        # The sampled walk's one-outcome stack against the per-pick product
        # in one pass, and the exact walks' shared table.
        rng, batch, cmat = self.inputs(rows, False)
        picks = rng.integers(0, cmat.shape[0], rows)
        thetas = rng.uniform(0.0, 2.0 * math.pi, rows)
        coefs = cmat[picks] * _engine._phases(thetas, cmat.shape[-1])
        want = coefs[:, None, :] @ _engine._window(batch, (cmat.shape[-1] - 1) // 2)
        got = _engine.advance_batch(batch, cmat[picks][:, None], thetas)
        assert got.shape == (rows, 1, batch.shape[1] + cmat.shape[-1] - 1)
        assert np.array_equal(got, want)
        got = _engine.advance_batch(batch, cmat, thetas)
        assert got.shape == (rows, cmat.shape[0], batch.shape[1] + cmat.shape[-1] - 1)
        assert np.array_equal(got, _engine.advance_batch.__wrapped__(batch, cmat, thetas))

    @pytest.mark.parametrize("rows", ROWS)
    def test_tuple_outputs_keep_each_shape_and_dtype(self, rows):
        # One output array per tuple element, each filled block by block.
        def kernel(batch, cmat, scale):
            return batch * scale[:, None], (batch.real > 0).sum(axis=1), scale

        rng, batch, cmat = self.inputs(rows, True)
        scale = rng.uniform(size=rows)
        got = _engine._in_blocks(kernel)(batch, cmat, scale)
        for part, want in zip(got, kernel(batch, cmat, scale)):
            assert part.dtype == want.dtype and part.shape == want.shape
            assert np.array_equal(part, want)

    def test_memory_peak_does_not_grow_with_rows(self):
        # 16,384 rows of a 53-wide band against the 15-outcome table: one
        # pass would hold about four 35 MB weight stacks at once.
        batch = random_hermitian(np.random.default_rng(9), 16384, 26)

        def peak(rows):
            tracemalloc.start()
            try:
                _engine.numeric_theta_batch(batch[:rows], self.MATS[1])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(batch.shape[0]) <= 1.5 * peak(_engine._BLOCK_ROWS)


class TestRefinePaths:
    """Newton refines a batch in one call when every row refines and
    through a row mask when a plateau row (a flat prior, theta exactly 0)
    is among them; each row equals its one-row call bit for bit."""

    @pytest.mark.parametrize("settle", [False, True])
    def test_mixed_batch_equals_row_calls(self, settle):
        cmat = build_likelihood_table(make_loss_resistant(2, 1.3), 0.6).matrix
        batch = random_hermitian(np.random.default_rng(28), 9, 6)
        batch[4] = 0.0
        batch[4, 6] = 1.0
        got = _engine.numeric_theta_batch(batch, cmat, settle=settle, sharpness=True)
        rows = [_engine.numeric_theta_batch(batch[i:i + 1], cmat, settle=settle,
                                            sharpness=True)
                for i in range(batch.shape[0])]
        for part, want in zip(got, zip(*rows)):
            assert np.array_equal(part, np.concatenate(want))
        assert got[0][4] == 0.0
        assert not np.isin(np.delete(got[0], 4), _engine.THETA_GRID).any()
        if not settle:
            assert np.array_equal(_engine.numeric_theta_batch(batch, cmat), got[0])


class TestCachedConstants:
    """The per-width constants are filled on first use, read-only, and
    equal a fresh computation byte for byte; advance_batch's window made by
    the ndarray constructor equals the as_strided window."""

    WIDTHS = range(3, 62, 2)

    @staticmethod
    def fresh(width):
        order = (width - 1) // 2
        d = np.arange(-order, order + 1)
        return {
            "_band": d,
            "_newton_deriv": np.stack([np.ones(d.size), -1j * d,
                                       -(d * d.astype(float))], axis=1),
            "_grid_phases": np.exp(-1j * np.multiply.outer(_engine.THETA_GRID, d)).T,
            "_newton_start": np.exp(-1j * np.multiply.outer(_engine.THETA_GRID, d))[
                :, :, None] * np.stack([np.ones(d.size), -1j * d, -(d * d.astype(float))],
                                       axis=1),
        }

    @pytest.mark.parametrize("width", WIDTHS)
    def test_equal_a_fresh_computation(self, width):
        for name, want in self.fresh(width).items():
            got = getattr(_engine, name)(width)
            assert got is getattr(_engine, name)(width)
            assert (got.dtype, got.shape, got.strides) == (want.dtype, want.shape,
                                                           want.strides), name
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("width", WIDTHS)
    def test_read_only(self, width):
        for name in self.fresh(width):
            got = getattr(_engine, name)(width)
            with pytest.raises(ValueError, match="read-only"):
                got[0] = 0

    def test_import_fills_none(self):
        code = ("import lossyphase, lossyphase.cli as c; from lossyphase import _engine as e; "
                "print([f.cache_info().currsize for f in "
                "(e._band, e._newton_deriv, e._grid_phases, e._newton_start)])")
        src = str(Path(_engine.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, cwd=src, timeout=60, check=True)
        assert out.stdout.strip() == "[0, 0, 0, 0]"

    @pytest.mark.parametrize("width", [3, 5, 9])
    def test_newton_start_is_the_first_step(self, width):
        # Newton's first step reads its factor at grid point idx from the
        # table; one point at a time takes _phases' direct path, all of
        # them eight times over its mirrored one.
        table = _engine._newton_start(width)
        deriv = _engine._newton_deriv(width)
        idx = np.arange(_engine.GRID_POINTS)
        tiled = np.tile(idx, 8)
        assert tiled.size * width >= _engine._MIRROR_MIN
        for start in [*([i] for i in idx), tiled]:
            want = _engine._phases(_engine.THETA_GRID[start], width)[:, :, None] * deriv
            assert table[start].tobytes() == want.tobytes()

    @pytest.mark.parametrize("rows", [0, 1, 5])
    @pytest.mark.parametrize("order, width", [(1, 1), (2, 9), (4, 23)])
    def test_window_equals_as_strided(self, rows, order, width):
        batch = random_hermitian(np.random.default_rng(rows + width), rows,
                                 (width - 1) // 2)
        n_out = width + 2 * order
        pad = np.zeros((rows, n_out + 2 * order), dtype=complex)
        pad[:, 2 * order: 2 * order + width] = batch
        want = np.lib.stride_tricks.as_strided(
            pad, (rows, 2 * order + 1, n_out), pad.strides[:1] + pad.strides[1:] * 2,
            writeable=False)
        got = _engine._window(batch, order)
        assert (got.shape, got.strides) == (want.shape, want.strides)
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable


class TestViewsEqualKernels:
    """Every one-row view returns its batch kernel's row bit for bit (==):
    the feedback views and bayes_update against a many-row call on random
    posteriors, N = 1, 2 and 4 at eta 0.6 and 1.  evaluate_outcome is the
    clamped entry of its own one-entry kernel call: a call over more rows
    or outcomes runs another BLAS product (gemv or gemm rather than dot),
    which rounds differently (about a fifth of the entries differ in the
    last bits), so it is compared with that call only."""

    @pytest.fixture(scope="class")
    def groups(self):
        """Posteriors after 0-4 random updates, grouped by max_harmonic."""
        rng = np.random.default_rng(2500)
        tables = [build_likelihood_table(s, 0.6) for s in TABLE_STATES.values()]
        groups = {}
        for _ in range(240):
            post = flat_prior()
            for _ in range(int(rng.integers(0, 5))):
                table = tables[int(rng.integers(0, len(tables)))]
                outcome = table.outcomes[int(rng.integers(0, len(table.outcomes)))]
                post = bayes_update(post, table, outcome,
                                    float(rng.uniform(0.0, 2.0 * math.pi)))
            groups.setdefault(post.max_harmonic, []).append(post)
        return [(posts, np.stack([p.coeffs for p in posts]))
                for posts in groups.values()]

    @staticmethod
    def by_lost(table):
        """Per number lost: its outcomes and their rows over their own band."""
        for lost in range(table.n_photons + 1):
            outcomes = [o for o in table.outcomes if o.lost == lost]
            yield outcomes, np.stack([table.row(o) for o in outcomes])

    @pytest.mark.parametrize("eta", [0.6, 1.0])
    @pytest.mark.parametrize("n_photons", [1, 2, 4])
    def test_numeric_feedback_and_sharpness(self, groups, n_photons, eta):
        table = build_likelihood_table(TABLE_STATES[n_photons], eta)
        rng = np.random.default_rng(n_photons)
        for posts, batch in groups:
            thetas = rng.uniform(0.0, 2.0 * math.pi, len(posts))
            numeric = _engine.numeric_theta_batch(batch, table.matrix)
            sharp = _engine.expected_sharpness_batch(batch, table.matrix, thetas)
            for i, prior in enumerate(posts):
                assert optimal_theta_numeric(prior, table) == numeric[i]
                assert expected_sharpness(prior, table, thetas[i]) == sharp[i]

    def test_closed_form_feedback(self, groups):
        for posts, batch in groups:
            closed = _engine.closed_form_theta_batch(batch)
            for i, prior in enumerate(posts):
                assert optimal_theta_single_photon(prior) == closed[i]

    @pytest.mark.parametrize("eta", [0.6, 1.0])
    @pytest.mark.parametrize("n_photons", [1, 2, 4])
    def test_bayes_update_is_a_normalized_row(self, groups, n_photons, eta):
        table = build_likelihood_table(TABLE_STATES[n_photons], eta)
        rng = np.random.default_rng(10 + n_photons)
        checked = 0
        for posts, batch in groups:
            for outcomes, cmat in self.by_lost(table):
                picks = rng.integers(0, len(outcomes), len(posts))
                thetas = rng.uniform(0.0, 2.0 * math.pi, len(posts))
                raw = _engine.advance_batch(batch, cmat[picks][:, None], thetas)[:, 0]
                mid = (raw.shape[1] - 1) // 2
                for i, prior in enumerate(posts):
                    if not raw[i, mid].real > 0.0:
                        continue
                    post = bayes_update(prior, table, outcomes[picks[i]], thetas[i])
                    assert post.coeffs.tobytes() == (raw[i] / raw[i, mid].real).tobytes()
                    checked += 1
        assert checked >= 200

    @pytest.mark.parametrize("eta", [0.6, 1.0])
    @pytest.mark.parametrize("n_photons", [1, 2, 4])
    def test_evaluate_outcome_is_the_clamped_entry(self, n_photons, eta):
        table = build_likelihood_table(TABLE_STATES[n_photons], eta)
        rng = np.random.default_rng(20 + n_photons)
        for phi, theta in rng.uniform(-2.0 * math.pi, 2.0 * math.pi, (50, 2)):
            for outcomes, cmat in self.by_lost(table):
                for row, outcome in zip(cmat, outcomes):
                    entry = _engine.outcome_probabilities(
                        row[None, :], np.array([phi - theta]))[0, 0]
                    assert evaluate_outcome(table, outcome, phi, theta) \
                        == max(entry.real, 0.0)

    # Demo 03's run (seed 42) and a second seed that loses fewer photons:
    # theta, outcome and probability total per detection, then a_1.
    TRAJECTORIES = {
        42: ([("0x0.0p+0", (1, 0), "0x1.0000000000001p+0"),
              ("0x0.0p+0", (0, 1), "0x1.0000000000001p+0"),
              ("0x1.921fb54442d18p+0", (1, 0), "0x1.0000000000001p+0"),
              ("0x1.921fb54442d18p+0", (1, 0), "0x1.0000000000001p+0"),
              ("0x1.921fb54442d18p+0", (0, 0), "0x1.0000000000001p+0"),
              ("0x1.921fb54442d20p-1", (2, 0), "0x1.0000000000000p+0"),
              ("0x1.921fb54442d17p-1", (2, 1), "0x1.ffffffffffffep-1")],
             ("-0x1.306ea77d3c3b2p-1", "0x1.306ea77d3c3b3p-1")),
        3: ([("0x0.0p+0", (0, 0), "0x1.0000000000001p+0"),
             ("0x1.921fb54442d18p+0", (0, 0), "0x1.0000000000001p+0"),
             ("0x1.5fdbbe9bba775p+2", (1, 0), "0x1.0000000000001p+0"),
             ("0x1.5fdbbe9bba775p+2", (0, 1), "0x1.0000000000001p+0"),
             ("0x1.836306adf3ee1p+2", (0, 1), "0x1.0000000000001p+0"),
             ("0x1.950a91a53ad6cp-2", (1, 0), "0x1.0000000000000p+0"),
             ("0x1.84d44d06680dep+1", (2, 0), "0x1.ffffffffffffcp-1")],
            ("-0x1.e4ba26095e882p-3", "0x1.c812c43bba574p-1")),
    }

    @pytest.mark.parametrize("seed", sorted(TRAJECTORIES))
    def test_demo_03_trajectory_is_pinned(self, seed):
        steps, a1 = self.TRAJECTORIES[seed]
        rng = np.random.default_rng(seed)
        tables = [build_likelihood_table(TABLE_STATES[n], 0.6) for n in (1,) * 5 + (2, 4)]
        post = flat_prior()
        for i, (table, step) in enumerate(zip(tables, steps)):
            theta = (optimal_theta_single_photon(post) if i < 5
                     else optimal_theta_numeric(post, table))
            probs = np.array([evaluate_outcome(table, o, 2.2515, theta)
                              for o in table.outcomes])
            outcome = table.outcomes[rng.choice(len(probs), p=probs / probs.sum())]
            post = bayes_update(post, table, outcome, theta)
            assert (theta.hex(), tuple(outcome), float(probs.sum()).hex()) == step
        got = post.coefficient(1)
        assert (got.real.hex(), got.imag.hex()) == a1
