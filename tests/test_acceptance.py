"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n>: PASS/FAIL` line (run with `-s` to see
them live).  The long optimization searches (criterion 6) are shared with
criterion 7 through module-scoped fixtures.

Known honest failure: criterion 6's N = 13 clause expects the optimizer to
return the (7,1,1) split.  Under the model pinned by criteria 2 and 9 the
(9,0,1) split is reproducibly better by ~3e-4 in Holevo variance (0.18%),
verified by plain enumeration, the binomial speedup and a scalar reference
walk, and resolved by the Monte Carlo record walk at 10^6 trials); the
ordering of this near-tie flips with eta around 0.64.  The README section "The N=13 near-tie" has the full analysis.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from lossyphase.detection import (
    build_likelihood_table,
    evaluate_outcome,
    iter_outcomes,
    oracle_probabilities,
)
from lossyphase.feedback import (
    expected_sharpness,
    optimal_theta_numeric,
)
from lossyphase.fisher import (
    fisher_information,
    max_fisher_exact_optimal4,
    max_fisher_over_chi,
)
from lossyphase.fisher import _max_over_phi_states
from lossyphase.optimizer import optimize, sql_baseline
from lossyphase.posterior import (
    PhaseDistribution,
    bayes_update,
    flat_prior,
    holevo_variance,
)
from lossyphase.sequences import (
    SequencePlan,
    evaluate_exact,
    evaluate_exact_with_speedup,
    evaluate_monte_carlo,
)
from lossyphase.states import (
    TwoModeState,
    forward_simulate_triport,
    make_loss_resistant,
    make_single_photon,
    synthesize_triport,
)
from lossyphase.detection import Outcome


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {name}" + (f" ({detail})" if detail else ""))
    return ok


# --------------------------------------------------------------------------
# shared long-running searches (criteria 6 and 7)

@pytest.fixture(scope="module")
def optimize_n9():
    return optimize(9, 0.6, chi_grid_step=0.1)


@pytest.fixture(scope="module")
def optimize_n13():
    return optimize(13, 0.6, chi_grid_step=0.1)


def test_criterion_1_state_prep_round_trip():
    worst = 1.0
    for chi in np.arange(0.0, 2.0001, 0.1):
        for n in (1, 2, 3):
            cfg = synthesize_triport(float(chi))
            fid = forward_simulate_triport(cfg, n).fidelity(
                make_loss_resistant(n, float(chi))
            )
            worst = min(worst, fid)
    ok = worst >= 1.0 - 1e-10
    assert report(1, "state-prep round trip", ok, f"min fidelity {worst:.3e}")


def test_criterion_2_probability_oracle_equivalence():
    states = {1: make_single_photon(), 2: make_loss_resistant(1, 1.7),
              4: make_loss_resistant(2, 1.3)}
    worst_gap = 0.0
    worst_complete = 0.0
    rng = np.random.default_rng(2024)
    for n, state in states.items():
        for eta in (0.25, 0.6, 1.0):
            table = build_likelihood_table(state, eta)
            for _ in range(16):
                phi, theta = rng.uniform(0.0, 2.0 * math.pi, 2)
                oracle = oracle_probabilities(state, eta, phi, theta)
                total = 0.0
                for o in iter_outcomes(n):
                    p = evaluate_outcome(table, o, phi, theta)
                    worst_gap = max(worst_gap, abs(p - oracle[o]))
                    total += p
                worst_complete = max(worst_complete, abs(total - 1.0))
    ok = worst_gap <= 1e-10 and worst_complete <= 1e-12
    assert report(2, "probability model equals oracle", ok,
                  f"max |dP| {worst_gap:.2e}, completeness {worst_complete:.2e}")


def test_criterion_3_fisher_peak_location():
    # The paper's two-photon Fisher curve peaks at chi ~ 0.8.  Its figure is
    # parametrized so that phi = pi/4 corresponds to the arm-phase
    # difference x = pi/2; under the fringe convention pinned by criteria 2
    # and 9 (single-photon fringe (1 +- cos x)/2), the literal x = pi/4
    # slice is maximized by the NOON state instead.  Asserted here: the
    # paper-equivalent operating point and the convention-invariant
    # max-over-phi form both peak in [0.7, 0.9], and the literal slice
    # stays NOON-dominated (so any convention change gets flagged).
    chis = np.arange(0.0, 2.0001, 0.02)
    states = [make_loss_resistant(1, float(c)) for c in chis]

    def argmax_at(x):
        vals = [fisher_information(s, 0.6, x, 0.0) for s in states]
        return float(chis[int(np.argmax(vals))])

    peak_paper_point = argmax_at(math.pi / 2.0)
    peak_literal = argmax_at(math.pi / 4.0)
    vals_maxphi = _max_over_phi_states(states, 0.6)
    peak_invariant = float(chis[int(np.argmax(vals_maxphi))])
    ok = (0.7 <= peak_paper_point <= 0.9) and (0.7 <= peak_invariant <= 0.9) \
        and peak_literal < 0.1
    assert report(
        3, "two-photon Fisher peak at chi ~ 0.8", ok,
        f"argmax {peak_paper_point:.2f} at x=pi/2, {peak_invariant:.2f} "
        f"max over phi; literal pi/4 slice gives {peak_literal:.2f} (NOON)",
    )


def test_criterion_4_chi_family_near_optimal():
    details = []
    ok = True
    for eta in (0.3, 0.5, 0.7):
        _, f_family = max_fisher_over_chi(4, eta)
        _, _, f_exact = max_fisher_exact_optimal4(eta)
        ok &= f_family >= 0.95 * f_exact
        details.append(f"eta={eta}: {f_family / f_exact:.4f}")
    _, f_family9 = max_fisher_over_chi(4, 0.9)
    _, _, f_exact9 = max_fisher_exact_optimal4(0.9)
    ok &= f_exact9 > f_family9
    details.append(f"eta=0.9: exact {f_exact9:.3f} > family {f_family9:.3f}")
    assert report(4, "chi family nearly optimal below eta 0.7", ok,
                  "; ".join(details))


def test_criterion_5_variance_minimum_away_from_fisher_peak():
    variances = {}
    for chi in [round(0.1 * i, 1) for i in range(1, 21)]:
        plan = SequencePlan(n1=7, n2=1, chi2=chi, eta=0.6)
        variances[chi] = evaluate_exact_with_speedup(plan).holevo_variance
    best_chi = min(variances, key=variances.get)
    chis = np.arange(0.0, 2.0001, 0.02)
    fisher_vals = [
        fisher_information(make_loss_resistant(1, float(c)), 0.6,
                           math.pi / 2.0, 0.0)
        for c in chis
    ]
    fisher_peak = float(chis[int(np.argmax(fisher_vals))])
    ok = best_chi in (1.6, 1.7, 1.8) and abs(best_chi - fisher_peak) >= 0.5
    assert report(5, "variance minimum differs from Fisher peak", ok,
                  f"V_H min at chi={best_chi}, Fisher peak at {fisher_peak:.2f}")


def test_criterion_6_sequence_table_n9(optimize_n9):
    p = optimize_n9.best_plan
    ok = (p.n1, p.n2, p.n4) == (7, 1, 0) and p.chi2 in (1.6, 1.7, 1.8)
    assert report(6, "N=9 table row (7,1,0) chi2~1.7", ok,
                  f"best ({p.n1},{p.n2},{p.n4}) chi2={p.chi2}")


def test_criterion_6_sequence_table_n13(optimize_n13):
    p = optimize_n13.best_plan
    ok = (
        (p.n1, p.n2, p.n4) == (7, 1, 1)
        and p.chi2 in (1.6, 1.7, 1.8)
        and p.chi4 in (1.2, 1.3, 1.4)
    )
    report(6, "N=13 table row (7,1,1) chi2~1.7 chi4~1.3", ok,
           f"best ({p.n1},{p.n2},{p.n4}) chi2={p.chi2} chi4={p.chi4}")
    if not ok:
        # Documented model-vs-paper near-tie; see the README.
        by_split = {}
        for plan, rep in optimize_n13.pareto_table:
            key = (plan.n1, plan.n2, plan.n4)
            if rep.holevo_variance < by_split.get(key, (math.inf, None))[0]:
                by_split[key] = (rep.holevo_variance, plan)
        v711, p711 = by_split[(7, 1, 1)]
        assert p711.chi2 in (1.6, 1.7, 1.8) and p711.chi4 in (1.2, 1.3, 1.4), \
            "even the best (7,1,1) plan has drifted off the paper's chi values"
        pytest.fail(
            f"optimizer returns ({p.n1},{p.n2},{p.n4}) chi4={p.chi4} with "
            f"V_H={optimize_n13.best_variance:.6f}, below the paper row "
            f"(7,1,1) at V_H={v711:.6f} by {v711 - optimize_n13.best_variance:.2e}; "
            "near-tie analysis in README.md, section 'The N=13 near-tie'"
        )


def test_criterion_6_n30_row_beats_sql_by_monte_carlo():
    plan = SequencePlan(n1=2, n2=2, chi2=1.8, n4=6, chi4=1.3, eta=0.6)
    mc = evaluate_monte_carlo(plan, 10 ** 5, rng_seed=30)
    # The N=30 SQL baseline exceeds the exact-enumeration guard
    # (2^31 - 1 single-photon records), so it is sampled as well.
    sql = evaluate_monte_carlo(SequencePlan(n1=30, eta=0.6), 10 ** 5,
                               rng_seed=31)
    s_plan = 2.0 * mc.mc_std_error / mc.mu ** 3
    s_sql = 2.0 * sql.mc_std_error / sql.mu ** 3
    gap = sql.holevo_variance - mc.holevo_variance
    sigma = math.sqrt(s_plan ** 2 + s_sql ** 2)
    ok = gap > 3.0 * sigma
    assert report(6, "N=30 row beats SQL (Monte Carlo)", ok,
                  f"gap {gap:.5f} = {gap / sigma:.1f} sigma")


def test_criterion_7_sql_crossover(optimize_n9, optimize_n13):
    sql9 = sql_baseline(9, 0.6)
    sql13 = sql_baseline(13, 0.6)
    gain9 = (sql9 - optimize_n9.best_variance) / sql9
    gain13 = sql13 - optimize_n13.best_variance
    ok = 0.0 <= gain9 < 0.01 and gain13 > 1e-6
    assert report(7, "SQL crossover between N=9 and N=13", ok,
                  f"N=9 gain {gain9 * 100:.3f}% (<1%), N=13 gain {gain13:.6f}")


REFERENCE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def test_exact_values_match_benchmark_reference(optimize_n9, optimize_n13):
    # The benchmark's reference values, read only, against the searches
    # above: every N=9 pareto Holevo variance and every N=13 speedup mu it
    # records, each within 1e-12.
    ref = json.loads(REFERENCE_PATH.read_text())
    pareto = ref["optimize_n9"]["pareto"]
    assert len(pareto) == len(optimize_n9.pareto_table) == 1009
    for (plan, rep), want in zip(optimize_n9.pareto_table, pareto):
        assert [plan.n1, plan.n2, plan.chi2, plan.n4, plan.chi4] == want[:5]
        assert abs(rep.holevo_variance - want[5]) <= 1e-12, want
    mu = {f"{p.n1},{p.n2},{p.chi2!r},{p.n4},{p.chi4!r}": rep.mu
          for p, rep in optimize_n13.pareto_table}
    assert len(ref["evaluate_n13_mu"]) == 826
    for key, want in ref["evaluate_n13_mu"].items():
        assert abs(mu[key] - want) <= 1e-12, key


def test_criterion_8_speedup_identity():
    worst = 0.0
    for n1 in (0, 1, 2, 3):
        for n2 in (0, 1, 2):
            for n4 in (0, 1):
                if n1 + n2 + n4 == 0:
                    continue
                for eta in (0.3, 0.6, 1.0):
                    plan = SequencePlan(n1=n1, n2=n2, chi2=1.7, n4=n4,
                                        chi4=1.3, eta=eta)
                    diff = abs(
                        evaluate_exact(plan).mu
                        - evaluate_exact_with_speedup(plan).mu
                    )
                    worst = max(worst, diff)
    ok = worst <= 1e-12
    assert report(8, "binomial speedup identity", ok, f"max |dmu| {worst:.2e}")


def test_criterion_9_analytic_anchors():
    checks = []
    for eta in (0.25, 0.6, 1.0):
        mu = evaluate_exact(SequencePlan(n1=1, eta=eta)).mu
        checks.append(abs(mu - eta / 2.0) <= 1e-12)
    table = build_likelihood_table(make_single_photon(), 1.0)
    post = bayes_update(flat_prior(), table, Outcome(0, 0), 0.4)
    checks.append(abs(holevo_variance(post) - 3.0) <= 1e-12)
    for eta in (0.6, 1.0):
        f = fisher_information(make_single_photon(), eta, 1.1, 0.3)
        checks.append(abs(f - eta) <= 1e-9)
    ok = all(checks)
    assert report(9, "analytic anchors (mu=eta/2, V_H=3, F=eta)", ok)


def test_criterion_10to_property_suites():
    rng = np.random.default_rng(1234)
    single_lossless = build_likelihood_table(make_single_photon(), 1.0)
    single_lossy = build_likelihood_table(make_single_photon(), 0.6)
    two_photon = build_likelihood_table(make_loss_resistant(1, 1.7), 0.6)

    # Hermitian symmetry + harmonic bound of tables (100 random states)
    hermitian_ok = band_ok = True
    for _ in range(100):
        n = int(rng.integers(1, 6))
        amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        table = build_likelihood_table(TwoModeState(n, amps),
                                       float(rng.uniform(0.0, 1.0)))
        for o, c in table.coeffs.items():
            hermitian_ok &= bool(np.max(np.abs(c - np.conj(c[::-1]))) < 1e-12)
            band_ok &= len(c) == 2 * (n - o.lost) + 1
    report(10, "table Hermitian symmetry (100 cases)", hermitian_ok)
    report(10, "harmonic band bound (100 cases)", band_ok)

    # posterior normalization under random update chains (100 cases)
    norm_ok = True
    for _ in range(100):
        post = flat_prior()
        for _ in range(int(rng.integers(1, 5))):
            table = (single_lossy, two_photon)[int(rng.integers(0, 2))]
            outcome = list(table.coeffs)[int(rng.integers(0, len(table.coeffs)))]
            post = bayes_update(post, table, outcome,
                                float(rng.uniform(0.0, 2.0 * math.pi)))
        norm_ok &= abs(post.coefficient(0) - 1.0) < 1e-12
        norm_ok &= post.hermitian_defect() < 1e-12
        norm_ok &= bool(np.all(np.abs(post.coeffs) <= 1.0 + 1e-12))
    report(10, "posterior normalization (100 cases)", norm_ok)

    # shift covariance of likelihoods (100 cases)
    shift_ok = True
    for _ in range(100):
        n = int(rng.integers(1, 5))
        amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        table = build_likelihood_table(TwoModeState(n, amps), 0.7)
        phi, theta = rng.uniform(0.0, 2.0 * math.pi, 2)
        for o in table.outcomes:
            a = evaluate_outcome(table, o, float(phi), float(theta))
            b = evaluate_outcome(table, o, float(phi - theta), 0.0)
            shift_ok &= abs(a - b) < 1e-13
    report(10, "likelihood shift covariance (100 cases)", shift_ok)

    # feedback covariance modulo the exact pi-degeneracy (100 cases)
    fb_ok = True
    for _ in range(100):
        post = flat_prior()
        for _ in range(int(rng.integers(1, 5))):
            post = bayes_update(
                post, single_lossless, Outcome(0, int(rng.integers(0, 2))),
                float(rng.uniform(0.0, 2.0 * math.pi)),
            )
        delta = float(rng.uniform(0.0, 2.0 * math.pi))
        j = np.arange(-post.max_harmonic, post.max_harmonic + 1)
        shifted = PhaseDistribution(post.max_harmonic,
                                    post.coeffs * np.exp(1j * j * delta))
        base = optimal_theta_numeric(post, two_photon)
        moved = optimal_theta_numeric(shifted, two_photon)
        v_base = expected_sharpness(post, two_photon, base)
        v_moved = expected_sharpness(shifted, two_photon, moved)
        fb_ok &= abs(v_base - v_moved) < 1e-10
        # argmax covariance holds up to the objective's exact degeneracies
        # (pi periodicity always; mirror twins for reflection-symmetric
        # priors, where tie-breaking may pick either twin)
        wrapped = (moved - base - delta) % math.pi
        transported = expected_sharpness(shifted, two_photon, base + delta)
        fb_ok &= (min(wrapped, math.pi - wrapped) < 1e-5
                  or abs(transported - v_moved) < 1e-10)
    report(10, "feedback covariance (100 cases)", fb_ok)

    # Monte Carlo determinism (100 seeds)
    mc_ok = True
    plan = SequencePlan(n1=1, n2=1, chi2=1.7, eta=0.6)
    for seed in range(100):
        a = evaluate_monte_carlo(plan, 200, seed)
        b = evaluate_monte_carlo(plan, 200, seed)
        mc_ok &= (a.mu == b.mu) and (a.mc_std_error == b.mc_std_error)
    report(10, "Monte Carlo determinism (100 seeds)", mc_ok)

    assert hermitian_ok and band_ok and norm_ok and shift_ok and fb_ok and mc_ok
