import copy
import json
import math
import pickle

import numpy as np
import pytest

from lossyphase.detection import (
    Outcome,
    OutcomeLikelihoodTable,
    _build_kernel,
    _port_sum,
    _port_swap,
    build_likelihood_table,
    evaluate_outcome,
    iter_outcomes,
    oracle_probabilities,
)
from lossyphase.states import TwoModeState, make_loss_resistant, make_single_photon


def random_state(rng, n):
    return TwoModeState(n, rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1))


def a_coefficient(n_photons, lost, r, m, eta):
    """Amplitude weight A_{N,L,r,m} of the traced loss channel.

    A = sqrt(eta^(N-L) (1-eta)^L C(N-r-m, N-L-r) C(r+m, r)) for the matrix
    element connecting the input component with r+m photons in arm 2 to the
    surviving component |N-L-r, r>; reference_build takes it per (r, m).
    """
    n, L = n_photons, lost
    return math.sqrt(eta ** (n - L) * (1.0 - eta) ** L
                     * math.comb(n - r - m, n - L - r) * math.comb(r + m, r))


class TestACoefficient:
    def test_lossless_is_one(self):
        assert a_coefficient(2, 0, 0, 0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_all_lost_example(self):
        # N=2, L=2, r=0, m=1, eta=0.5: sqrt(0.25 * C(1,0) * C(1,0)) = 0.5
        assert a_coefficient(2, 2, 0, 1, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_eta_zero_vanishes_unless_all_lost(self):
        assert a_coefficient(3, 2, 0, 1, 0.0) == 0.0
        assert a_coefficient(3, 3, 0, 2, 0.0) != 0.0


class TestTableStructure:
    def test_eta_out_of_range_rejected(self):
        for eta in (-0.1, 1.5):
            with pytest.raises(ValueError, match="outside"):
                build_likelihood_table(make_single_photon(), eta)

    def test_outcome_counts(self):
        t2 = build_likelihood_table(make_loss_resistant(1, 1.7), 0.6)
        t4 = build_likelihood_table(make_loss_resistant(2, 1.3), 0.6)
        assert len(t2.outcomes) == 6
        assert len(t4.outcomes) == 15

    def test_hermitian_symmetry(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 4):
            table = build_likelihood_table(random_state(rng, n), 0.4)
            for c in table.coeffs.values():
                assert np.max(np.abs(c - np.conj(c[::-1]))) < 1e-12

    def test_harmonic_band_matches_surviving_photons(self):
        table = build_likelihood_table(make_loss_resistant(2, 0.9), 0.5)
        for o, c in table.coeffs.items():
            assert len(c) == 2 * (4 - o.lost) + 1

    def test_lossless_limit(self):
        table = build_likelihood_table(make_loss_resistant(1, 1.3), 1.0)
        for o in table.outcomes:
            if o.lost >= 1:
                assert evaluate_outcome(table, o, 0.7, 0.1) == 0.0
        total = sum(
            evaluate_outcome(table, o, 0.7, 0.1)
            for o in table.outcomes if o.lost == 0
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_noon_lost_photon_has_no_phase_information(self):
        table = build_likelihood_table(make_loss_resistant(1, 0.0), 0.6)
        for o, c in table.coeffs.items():
            if o.lost == 1:
                nd = 2 - o.lost
                for d in range(-nd, nd + 1):
                    if d != 0:
                        assert abs(c[d + nd]) < 1e-15

    def test_single_photon_loss_probability(self):
        table = build_likelihood_table(make_single_photon(), 0.6)
        for phi, theta in ((0.0, 0.0), (1.2, 0.4), (4.0, 2.7)):
            assert evaluate_outcome(table, (1, 0), phi, theta) == pytest.approx(
                0.4, abs=1e-14
            )

    def test_loss_marginal_is_binomial(self):
        eta = 0.6
        table = build_likelihood_table(make_loss_resistant(2, 1.3), eta)
        for lost in range(5):
            total = sum(
                evaluate_outcome(table, o, 0.321, 0.987)
                for o in table.outcomes if o.lost == lost
            )
            expect = math.comb(4, lost) * eta ** (4 - lost) * (1 - eta) ** lost
            assert total == pytest.approx(expect, abs=1e-12)


class TestOracleEquivalence:
    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("eta", [0.25, 0.6, 1.0])
    def test_family_states_match_oracle(self, n, eta):
        state = {1: make_single_photon(), 2: make_loss_resistant(1, 1.7),
                 4: make_loss_resistant(2, 1.3)}[n]
        table = build_likelihood_table(state, eta)
        rng = np.random.default_rng(n * 100 + int(eta * 10))
        for _ in range(16):
            phi, theta = rng.uniform(0.0, 2.0 * math.pi, 2)
            oracle = oracle_probabilities(state, eta, phi, theta)
            for o in iter_outcomes(n):
                assert abs(
                    oracle[o] - evaluate_outcome(table, o, phi, theta)
                ) <= 1e-10

    def test_random_complex_states_match_oracle(self):
        rng = np.random.default_rng(77)
        for n in (2, 3, 5, 6):
            for eta in (0.15, 0.85):
                state = random_state(rng, n)
                table = build_likelihood_table(state, eta)
                phi, theta = rng.uniform(0.0, 2.0 * math.pi, 2)
                oracle = oracle_probabilities(state, eta, phi, theta)
                for o in iter_outcomes(n):
                    assert abs(
                        oracle[o] - evaluate_outcome(table, o, phi, theta)
                    ) <= 1e-10

    @pytest.mark.parametrize("phi, theta, error", [
        (math.nan, 0.3, "phi must be finite"), (0.3, math.inf, "theta must be finite"),
        (True, 0.3, "phi must be a number"),
    ])
    def test_oracle_refuses_bad_phases(self, phi, theta, error):
        # A nan phase once gave nan for every outcome.
        with pytest.raises(ValueError, match=error):
            oracle_probabilities(make_single_photon(), 0.6, phi, theta)

    def test_oracle_guard(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            oracle_probabilities(random_state(rng, 7), 0.5, 0.0, 0.0)

    def test_single_photon_lossless_point(self):
        probs = oracle_probabilities(make_single_photon(), 1.0, 0.0, 0.0)
        values = sorted(probs[o] for o in iter_outcomes(1) if o.lost == 0)
        assert values[0] == pytest.approx(0.0, abs=1e-12)
        assert values[1] == pytest.approx(1.0, abs=1e-12)

    def test_noon_super_resolution_period(self):
        state = make_loss_resistant(1, 0.0)
        p0 = oracle_probabilities(state, 1.0, 0.0, 0.0)
        p_half = oracle_probabilities(state, 1.0, math.pi / 2.0, 0.0)
        p_pi = oracle_probabilities(state, 1.0, math.pi, 0.0)
        mid = Outcome(0, 1)
        assert abs(p0[mid] - p_half[mid]) > 0.1      # fringe moves within period pi
        assert p0[mid] == pytest.approx(p_pi[mid], abs=1e-12)


class TestEvaluation:
    def test_completeness(self):
        rng = np.random.default_rng(9)
        for chi in (0.0, 0.5, 1.0, 1.7, 2.0):
            for n in (1, 2):
                for eta in (0.0, 0.3, 0.6, 1.0):
                    state = make_loss_resistant(n, chi)
                    table = build_likelihood_table(state, eta)
                    for _ in range(4):
                        phi, theta = rng.uniform(0.0, 2.0 * math.pi, 2)
                        total = sum(
                            evaluate_outcome(table, o, phi, theta)
                            for o in table.outcomes
                        )
                        assert total == pytest.approx(1.0, abs=1e-12)

    def test_shift_covariance(self):
        table = build_likelihood_table(make_loss_resistant(1, 1.1), 0.7)
        for o in table.outcomes:
            a = evaluate_outcome(table, o, 1.9, 0.6)
            b = evaluate_outcome(table, o, 1.3, 0.0)
            assert a == pytest.approx(b, abs=1e-14)

    def test_unknown_outcome_rejected(self):
        table = build_likelihood_table(make_single_photon(), 0.6)
        with pytest.raises(KeyError):
            evaluate_outcome(table, (5, 0), 0.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase_rejected(self, bad):
        table = build_likelihood_table(make_single_photon(), 0.6)
        for phi, theta in ((bad, 0.3), (0.3, bad)):
            with pytest.raises(ValueError, match="finite"):
                evaluate_outcome(table, (0, 0), phi, theta)

    @staticmethod
    def hand_table(c0):
        # N=1 rows (0,0), (0,1), (1,0): the second is the first times
        # (-1)^d, so the table keeps the port-swap symmetry.
        return OutcomeLikelihoodTable(1, 0.5, np.array([
            [0.25, c0, 0.25], [-0.25, c0, -0.25], [0.0, 0.0, 0.0]]))

    def test_imaginary_probability_rejected(self):
        table = self.hand_table(0.5 + 1e-6j)
        with pytest.raises(ValueError, match="imaginary"):
            evaluate_outcome(table, (0, 0), 0.4, 0.0)
        assert evaluate_outcome(self.hand_table(0.5 + 1e-11j), (0, 0),
                                0.4, 0.0) == pytest.approx(0.5 + 0.5 * math.cos(0.4))

    def test_negative_probability_rejected_beyond_tolerance(self):
        with pytest.raises(ValueError, match="clamping"):
            evaluate_outcome(self.hand_table(0.5 - 1e-9), (0, 0), math.pi, 0.0)
        assert evaluate_outcome(
            self.hand_table(0.5 - 1e-13), (0, 0), math.pi, 0.0) == 0.0

    def test_probability_above_one_rejected_beyond_tolerance(self):
        # At x = 0 the hand table's row (0, 0) sums to 0.25 + c0 + 0.25.
        with pytest.raises(ValueError, match="clamping"):
            evaluate_outcome(self.hand_table(0.5 + 1e-9), (0, 0), 0.0, 0.0)
        assert evaluate_outcome(self.hand_table(0.5 + 1e-13), (0, 0), 0.0, 0.0) == 1.0

    @pytest.mark.parametrize("state, outcome", [
        (make_single_photon(), (1, 0)),
        (make_loss_resistant(2, 1.0), (4, 0)),
    ])
    def test_certain_outcome_is_at_most_one(self, state, outcome):
        # At eta = 0 the all-lost row sums to one ulp above 1.
        table = build_likelihood_table(state, 0.0)
        assert evaluate_outcome(table, outcome, 0.3, 0.1) == 1.0

    def test_nonnegative_clamp(self):
        table = build_likelihood_table(make_loss_resistant(1, 0.0), 1.0)
        xs = np.linspace(0.0, 2.0 * math.pi, 512)
        for o in table.outcomes:
            for x in xs:
                assert evaluate_outcome(table, o, float(x), 0.0) >= 0.0


class TestRowViews:
    """row and coeffs read one read-only view per outcome, made once per
    table; a pickle or copy makes its own from the three fields."""

    @pytest.fixture
    def table(self):
        return build_likelihood_table(make_loss_resistant(2, 1.3), 0.6)

    def test_row_accepts_outcome_tuple_and_list(self, table):
        for o in table.outcomes:
            c = table.row(o)
            assert table.row(tuple(o)) is c
            assert table.row(list(o)) is c
            assert table.row((np.int64(o.lost), np.int64(o.detected_k))) is c

    @pytest.mark.parametrize("outcome, error", [
        ((5, 0), KeyError), ((0, 5), KeyError), ([9, 9], KeyError),
        ((1,), TypeError), ((1, 2, 3), TypeError), (5, TypeError), (None, TypeError),
    ])
    def test_row_rejects(self, table, outcome, error):
        with pytest.raises(error):
            table.row(outcome)

    def test_coeffs_are_read_only_views_in_outcome_order(self, table):
        n = table.n_photons
        coeffs = table.coeffs
        assert list(coeffs) == list(iter_outcomes(n)) == table.outcomes
        for i, (o, c) in enumerate(coeffs.items()):
            assert c is table.row(o)
            np.testing.assert_array_equal(c, table.matrix[i, o.lost: 2 * n + 1 - o.lost])
            assert not c.flags.writeable
            assert np.shares_memory(c, table.matrix)
            with pytest.raises(ValueError):
                c[0] = 0.0
        with pytest.raises(TypeError):
            coeffs[Outcome(0, 0)] = np.zeros(9)

    @pytest.mark.parametrize("clone", [
        lambda t: pickle.loads(pickle.dumps(t)), copy.deepcopy, copy.copy])
    def test_pickle_and_copy_after_row(self, table, clone):
        table.row((0, 0))
        table.coeffs
        back = clone(table)
        assert (back.n_photons, back.eta) == (table.n_photons, table.eta)
        assert back.matrix.tobytes() == table.matrix.tobytes()
        assert not back.matrix.flags.writeable
        for o, c in back.coeffs.items():
            assert c.tobytes() == table.row(o).tobytes()
            assert not c.flags.writeable
            assert np.shares_memory(c, back.matrix)
            assert back.row(o) is c


def test_json_round_trip():
    table = build_likelihood_table(make_loss_resistant(2, 1.3), 0.6)
    doc = json.loads(json.dumps(table.to_json_dict()))
    assert doc["n_photons"] == 4
    assert doc["eta"] == 0.6
    assert len(doc["entries"]) == 15
    entry = doc["entries"][0]
    assert set(entry) == {"L", "k", "re", "im"}
    back = OutcomeLikelihoodTable.from_json_dict(doc)
    for o, c in table.coeffs.items():
        assert np.allclose(back.coeffs[o], c, atol=0.0)


@pytest.mark.parametrize("eta", [0.15, 0.6, 1.0])
def test_random_states_keep_port_swap_symmetry(eta):
    # Construction checks the symmetry exactly, so building the table and
    # reading it back from JSON must not raise for any input state.
    rng = np.random.default_rng(int(eta * 100))
    for n in range(1, 7):
        table = build_likelihood_table(random_state(rng, n), eta)
        doc = json.loads(json.dumps(table.to_json_dict()))
        back = OutcomeLikelihoodTable.from_json_dict(doc)
        np.testing.assert_array_equal(back.matrix, table.matrix)


@pytest.mark.parametrize("key, value, error", [
    ("n_photons", 1.0, "n_photons must be an integer, got 1.0"),
    ("n_photons", True, "n_photons must be an integer, got True"),
    ("eta", 5, r"eta=5.0 outside \[0, 1\]"),
    ("eta", "0.6", "eta must be a number"),
])
def test_table_checks_photon_number_and_eta(key, value, error):
    # A JSON writer may give 1.0 for 1: it is refused by name, not inside
    # the outcome index.
    doc = build_likelihood_table(make_single_photon(), 0.6).to_json_dict()
    with pytest.raises(ValueError, match=error):
        OutcomeLikelihoodTable.from_json_dict({**doc, key: value})


def test_table_without_port_swap_symmetry_rejected():
    table = build_likelihood_table(make_loss_resistant(1, 1.3), 0.6)
    broken = table.matrix.copy()
    broken[0, 1] *= 1.0 + 1e-15  # its twin, row (0, 2), is untouched
    with pytest.raises(ValueError, match="port-swap"):
        OutcomeLikelihoodTable(2, 0.6, broken)


def reference_build(state, eta):
    """The per-(L, k, m) loop build: the reference for the kernel build."""
    n = state.n_photons
    psi = state.amplitudes
    outcomes = list(iter_outcomes(n))
    matrix = np.zeros((len(outcomes), 2 * n + 1), dtype=complex)
    for i, (lost, k) in enumerate(outcomes):
        n_det = n - lost
        pre = 0.5 ** n_det * math.factorial(n_det - k) * math.factorial(k)
        c = np.zeros(2 * n_det + 1, dtype=complex)
        for m in range(lost + 1):
            w = np.array([
                psi[r + m]
                * a_coefficient(n, lost, r, m, eta)
                * _port_sum(n_det, r, k)
                / math.sqrt(math.factorial(n_det - r) * math.factorial(r))
                for r in range(n_det + 1)
            ])
            c += np.conj(np.correlate(w, w, "full"))
        matrix[i, lost: 2 * n + 1 - lost] = pre * c
    return matrix


class TestBuildWitness:
    @pytest.mark.parametrize("eta", [0.0, 0.2, 0.6, 1.0])
    def test_kernel_build_matches_loop_build(self, eta):
        # The kernel sums over m before r and splits sqrt(eta^(N-L)
        # (1-eta)^L C C) into two roots, so entries move in the last bits.
        rng = np.random.default_rng(int(eta * 10) + 40)
        for n in range(1, 5):
            swap, sign = _port_swap(n)
            for _ in range(30):
                state = random_state(rng, n)
                built = build_likelihood_table(state, eta).matrix
                expected = reference_build(state, eta)
                scale = np.max(np.abs(expected))
                assert np.max(np.abs(built - expected)) <= 1e-15 * scale
                assert np.array_equal(built[swap], built * sign)

    def test_kernel_arrays_are_read_only(self):
        for n in (1, 4):
            for a in _build_kernel(n):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a.flat[0] = 1.0
