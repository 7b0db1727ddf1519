import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from lossyphase import _engine, sequences
from lossyphase.detection import (
    OutcomeLikelihoodTable,
    build_likelihood_table,
    evaluate_outcome,
)
from lossyphase.feedback import optimal_theta_numeric, optimal_theta_single_photon
from lossyphase.optimizer import enumerate_plans
from lossyphase.posterior import PhaseDistribution
from lossyphase.sequences import (
    BranchGuardError,
    SequencePlan,
    _plan_stages,
    evaluate_exact,
    evaluate_exact_with_speedup,
    evaluate_monte_carlo,
    evaluate_plans_with_speedup,
)
from lossyphase.states import make_loss_resistant, make_single_photon


class TestPlanValidation:
    def test_counts_and_chi_ranges(self):
        with pytest.raises(ValueError):
            SequencePlan(n1=-1)
        with pytest.raises(ValueError):
            SequencePlan(n1=0, n2=1, chi2=2.5, eta=0.6)
        with pytest.raises(ValueError):
            SequencePlan(n1=1, eta=1.2)

    @pytest.mark.parametrize("kwargs", [{"chi2": 7.0}, {"chi4": -0.1}])
    def test_chi_checked_when_its_count_is_zero(self, kwargs):
        with pytest.raises(ValueError, match="outside"):
            SequencePlan(1, **kwargs)

    def test_budget_and_leaf_counts(self):
        plan = SequencePlan(n1=7, n2=1, chi2=1.7, n4=1, chi4=1.3, eta=0.6)
        assert plan.total_photons == 13
        assert plan.exact_leaf_count() == 3 ** 7 * 6 * 15
        assert plan.speedup_leaf_count() == (2 ** 8 - 1) * 6 * 15
        plan = SequencePlan(n1=2, n2=2, chi2=1.7, n4=2, chi4=1.3, eta=0.6)
        assert plan.speedup_leaf_count() == 7 * 31 * 211


class TestAnalyticAnchors:
    @pytest.mark.parametrize("eta", [0.3, 0.6, 1.0])
    def test_single_photon_mu_is_half_eta(self, eta):
        for evaluator in (evaluate_exact, evaluate_exact_with_speedup):
            report = evaluator(SequencePlan(n1=1, eta=eta))
            assert report.mu == pytest.approx(eta / 2.0, abs=1e-12)
            assert report.holevo_variance == pytest.approx(
                4.0 / eta ** 2 - 1.0, abs=1e-9
            )

    def test_empty_plan_is_flat(self):
        report = evaluate_exact(SequencePlan(n1=0, eta=0.6))
        assert report.mu == 0.0
        assert report.holevo_variance == math.inf
        assert report.branches_evaluated == 1

    def test_variance_consistency(self):
        report = evaluate_exact_with_speedup(
            SequencePlan(n1=3, n2=1, chi2=1.7, eta=0.6)
        )
        assert report.holevo_variance == pytest.approx(
            1.0 / report.mu ** 2 - 1.0, abs=1e-12
        )


def grid_trajectory_mu(plan, grid_points=4096):
    """Independent evaluation: posteriors kept pointwise on a phi grid; the
    sharpness integral done by the trapezoid rule; feedback phases from the
    public scalar API on the matching Fourier posterior."""
    tables = []
    kinds = []
    if plan.n1:
        tables += [build_likelihood_table(make_single_photon(), plan.eta)] * plan.n1
        kinds += ["single"] * plan.n1
    if plan.n2:
        tables += [build_likelihood_table(make_loss_resistant(1, plan.chi2),
                                          plan.eta)] * plan.n2
        kinds += ["multi"] * plan.n2
    if plan.n4:
        tables += [build_likelihood_table(make_loss_resistant(2, plan.chi4),
                                          plan.eta)] * plan.n4
        kinds += ["multi"] * plan.n4
    grid = np.linspace(0.0, 2.0 * math.pi, grid_points, endpoint=False)
    total = 0.0

    def recurse(step, dens, coeffs):
        nonlocal total
        if step == len(tables):
            val = np.mean(dens * np.exp(1j * grid)) * 2.0 * math.pi
            total += abs(val)
            return
        center = len(coeffs) // 2
        dist = PhaseDistribution(center, coeffs / coeffs[center].real)
        if kinds[step] == "single":
            theta = optimal_theta_single_photon(dist)
        else:
            theta = optimal_theta_numeric(dist, tables[step])
        for outcome in tables[step].coeffs:
            like = np.array(
                [evaluate_outcome(tables[step], outcome, p, theta) for p in grid]
            )
            new_dens = dens * like
            nd = tables[step].n_photons - outcome.lost
            c = tables[step].coeffs[outcome]
            d = np.arange(-nd, nd + 1)
            upd = (c * np.exp(-1j * d * theta))[::-1]
            new_coeffs = np.convolve(coeffs, upd)
            if np.abs(new_coeffs).max() == 0.0:
                continue
            recurse(step + 1, new_dens, new_coeffs)

    recurse(0, np.full(grid.size, 1.0 / (2.0 * math.pi)), np.ones(1, dtype=complex))
    return total


class TestGridOracle:
    def test_two_lossless_singles_match_grid_integration(self):
        plan = SequencePlan(n1=2, eta=1.0)
        assert evaluate_exact(plan).mu == pytest.approx(
            grid_trajectory_mu(plan), abs=1e-8
        )

    def test_mixed_plan_matches_grid_integration(self):
        plan = SequencePlan(n1=1, n2=1, chi2=1.7, eta=0.6)
        assert evaluate_exact(plan).mu == pytest.approx(
            grid_trajectory_mu(plan), abs=1e-8
        )


class TestSpeedupIdentity:
    def test_identity_over_plan_sweep(self):
        for n1 in (0, 1, 2, 3):
            for n2 in (0, 1, 2):
                for n4 in (0, 1):
                    if n1 + n2 + n4 == 0:
                        continue
                    for eta in (0.3, 0.6, 1.0):
                        plan = SequencePlan(n1=n1, n2=n2, chi2=1.7,
                                            n4=n4, chi4=1.3, eta=eta)
                        a = evaluate_exact(plan)
                        b = evaluate_exact_with_speedup(plan)
                        assert abs(a.mu - b.mu) <= 1e-12
                        assert a.branches_evaluated == plan.exact_leaf_count()
                        assert b.branches_evaluated == plan.speedup_leaf_count()

    def test_no_singles_is_noop(self):
        plan = SequencePlan(n1=0, n2=1, chi2=0.9, eta=0.45)
        a = evaluate_exact(plan)
        b = evaluate_exact_with_speedup(plan)
        assert a.mu == pytest.approx(b.mu, abs=1e-14)
        assert b.branches_evaluated == a.branches_evaluated == 6

    def test_paper_n13_row_fits_guard(self):
        plan = SequencePlan(n1=7, n2=1, chi2=1.7, n4=1, chi4=1.3, eta=0.6)
        report = evaluate_exact_with_speedup(plan)
        assert report.branches_evaluated == 22950
        assert 0.0 < report.mu < 1.0


def reference_walk(stages):
    """The leaf-summing walk: every leaf is built and its |first harmonic|
    added; pruned zero rows count their whole subtree, so the returned leaf
    count is an independent witness of the closed-form counts."""
    remaining = []
    after_stage = 1
    for stage in reversed(stages):
        n_out = stage.cmat.shape[0]
        col = [after_stage * n_out ** (stage.count - j) for j in range(stage.count)]
        remaining.insert(0, col)
        after_stage = col[0]
    mu, leaves = 0.0, 0
    stack = [(np.ones((1, 1), dtype=complex), 0, 0)]
    while stack:
        batch, si, step = stack.pop()
        if si == len(stages):
            mu += float(np.abs(_engine.first_harmonic(batch)).sum())
            leaves += batch.shape[0]
            continue
        stage = stages[si]
        children = _engine.advance_batch(batch, stage.cmat, stage.thetas(batch))
        children = children.reshape(-1, children.shape[2])
        alive = np.abs(children).max(axis=1) > 0.0
        next_si, next_step = (si, step + 1) if step + 1 < stage.count else (si + 1, 0)
        subtree = 1 if next_si == len(stages) else remaining[next_si][next_step]
        leaves += int((~alive).sum()) * subtree
        if alive.any():
            stack.append((children[alive], next_si, next_step))
    return mu, leaves


def reference_exact(plan):
    return reference_walk(_plan_stages(plan))


def merged_leaf_count(plan):
    """Records of the merged walk, read off the tables it walks: a stage of
    count c whose table has k + 1 outcomes (k phase-carrying and the
    all-lost one) ends sum over j <= c of k^j records."""
    return math.prod(sum((s.cmat.shape[-2] - 1) ** j for j in range(s.count + 1))
                     for s in _plan_stages(plan))


def reference_speedup(plan):
    """The binomial walk without merges: for each number n of surviving
    single photons, n lossless single photons and then the exact
    multi-photon stages, weighted C(n1, n) eta^n (1 - eta)^(n1 - n).
    Its leaves number (2^(n1+1) - 1) 6^n2 15^n4."""
    stages = _plan_stages(plan)
    multi = stages[1:] if plan.n1 > 0 else stages
    lossless = _engine.table_matrix(build_likelihood_table(make_single_photon(), 1.0))
    mu, leaves = 0.0, 0
    for n_alive in range(plan.n1 + 1):
        walk = ([replace(stages[0], count=n_alive, cmat=lossless)] + multi
                if n_alive else multi)
        mu_n, leaves_n = reference_walk(walk)
        mu += (math.comb(plan.n1, n_alive) * plan.eta ** n_alive
               * (1.0 - plan.eta) ** (plan.n1 - n_alive)) * mu_n
        leaves += leaves_n
    return mu, leaves


REFERENCE_SWEEP = [
    SequencePlan(n1=n1, n2=n2, chi2=1.7, n4=n4, chi4=1.3, eta=eta)
    for n1 in (0, 1, 2, 3) for n2 in (0, 1, 2) for n4 in (0, 1)
    for eta in (0.0, 0.6, 1.0)
]
SWEEP_IDS = [f"{p.n1}-{p.n2}-{p.n4}-eta{p.eta}" for p in REFERENCE_SWEEP]


class TestReferenceWalk:
    """The walk that stops at the last feedback against one that builds
    every leaf, including the empty plan, plans without single photons
    and the dead loss branches of single photons at eta = 1."""

    @pytest.mark.parametrize("plan", REFERENCE_SWEEP, ids=SWEEP_IDS)
    def test_exact_matches_leaf_sum(self, plan):
        mu, leaves = reference_exact(plan)
        report = evaluate_exact(plan)
        assert abs(report.mu - mu) <= 1e-14
        assert leaves == plan.exact_leaf_count() == report.branches_evaluated

    @pytest.mark.parametrize("plan", REFERENCE_SWEEP, ids=SWEEP_IDS)
    def test_speedup_matches_leaf_sum(self, plan):
        mu, leaves = reference_speedup(plan)
        report = evaluate_exact_with_speedup(plan)
        assert abs(report.mu - mu) <= 1e-14
        assert leaves == (2 ** (plan.n1 + 1) - 1) * 6 ** plan.n2 * 15 ** plan.n4
        assert (report.branches_evaluated == plan.speedup_leaf_count()
                == merged_leaf_count(plan))

    def test_sweep_has_dead_branches(self):
        plan = SequencePlan(n1=2, n2=1, chi2=1.7, n4=1, chi4=1.3, eta=1.0)
        assert plan in REFERENCE_SWEEP
        stages = _plan_stages(plan)
        children = _engine.advance_batch(
            np.ones((1, 1), dtype=complex), stages[0].cmat, np.zeros(1))
        assert not np.abs(children[0]).max(axis=1).all()


SPLIT_PLANS = [plan for eta in (0.0, 0.6, 1.0) for total in (5, 6, 8)
               for plan in enumerate_plans(total, 0.5, eta)]


class TestSplitWalk:
    """Each split's chi grid walked as one tree against the one-plan walks.
    N=6 adds a split without single photons whose keys span two chi
    stages, (n1, n2, n4) = (0, 1, 1); N=8 adds merged multi-photon stages
    of count 2 to 4, e.g. (0, 0, 2), (0, 2, 1) and (0, 4, 0), and
    three-stage splits such as (2, 1, 1)."""

    @pytest.fixture(scope="class")
    def batched(self):
        return evaluate_plans_with_speedup(SPLIT_PLANS)

    def test_matches_unbatched_walks(self, batched):
        for plan, report in zip(SPLIT_PLANS, batched):
            mu, leaves = reference_speedup(plan)
            assert abs(report.mu - mu) <= 1e-14, plan
            assert abs(report.mu - evaluate_exact(plan).mu) <= 1e-13, plan
            assert leaves == (2 ** (plan.n1 + 1) - 1) * 6 ** plan.n2 * 15 ** plan.n4
            assert (report.branches_evaluated == plan.speedup_leaf_count()
                    == merged_leaf_count(plan))
            assert report.method == "exact_with_speedup"

    @pytest.mark.parametrize("cap", [1, 7])
    def test_row_cap_does_not_change_mu(self, batched, cap, monkeypatch):
        # Chunks of 1 or 7 rows split keys and cut fan-outs part way.
        monkeypatch.setattr(sequences, "_CHUNK_ROWS", cap)
        plans = [p for p in SPLIT_PLANS if p.eta == 0.6]
        capped = evaluate_plans_with_speedup(plans)
        want = [r.mu for p, r in zip(SPLIT_PLANS, batched) if p.eta == 0.6]
        assert np.abs(np.array([r.mu for r in capped]) - want).max() <= 1e-14

    def test_reports_come_back_in_input_order(self, batched):
        order = np.random.default_rng(8).permutation(len(SPLIT_PLANS))
        shuffled = evaluate_plans_with_speedup([SPLIT_PLANS[i] for i in order])
        assert [r.mu for r in shuffled] == [batched[i].mu for i in order]
        assert [r.branches_evaluated for r in shuffled] == [
            SPLIT_PLANS[i].speedup_leaf_count() for i in order]

    def test_split_wall_time_is_shared(self):
        plans = enumerate_plans(4, 0.5, 0.6)[1:6]
        assert len({(p.n1, p.n2, p.n4) for p in plans}) == 1
        assert len({r.wall_time_s for r in evaluate_plans_with_speedup(plans)}) == 1


class TestBoundedPrefix:
    """The lossless single-photon prefix is walked a chunk at a time, so
    plans rich in single photons never hold a whole level of 2^n1 rows."""

    HEAVY = [SequencePlan(n1=12, eta=0.6),
             SequencePlan(n1=10, n2=1, chi2=1.0, n4=1, chi4=1.3, eta=0.6)]
    KERNELS = ("closed_form_theta_batch", "numeric_theta_batch",
               "advance_batch", "expected_sharpness_batch", "_theta_and_sharpness")

    def test_kernel_calls_stay_within_row_cap(self, monkeypatch):
        want = [evaluate_exact_with_speedup(p).mu for p in self.HEAVY]
        seen = []

        def counted(kernel):
            def call(batch, *args):
                seen.append(batch.shape[0])
                return kernel(batch, *args)
            return call

        for name in self.KERNELS:
            monkeypatch.setattr(_engine, name, counted(getattr(_engine, name)))
        monkeypatch.setattr(sequences, "_CHUNK_ROWS", 16)
        got = [evaluate_exact_with_speedup(p).mu for p in self.HEAVY]
        assert max(seen) <= 16
        assert np.abs(np.array(got) - want).max() <= 1e-14

    def test_peak_memory_does_not_grow_with_levels(self):
        # Level by level, n1 = 16 holds 2^17 rows of 33 complex coefficients
        # (69 MB per copy); a chunked walk holds a few chunks per depth.
        tracemalloc.start()
        try:
            evaluate_exact_with_speedup(SequencePlan(n1=16, eta=0.6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2 ** 20


class TestRootTwins:
    """The speedup walk keeps one of the flat root's two children, which
    at theta = 0 are pi-rotation twins, at twice the weight.  The mirror
    half of the tree's symmetry is not merged: numeric feedback breaks
    near-ties toward the smallest theta, which is not mirror-covariant."""

    def test_merge_stays_within_exact_on_a_near_tie_plan(self):
        # A mirror merge drifts 2.3e-11 on this plan, the pi merge ~7e-16.
        plan = SequencePlan(9, 1, 0.1, 0, 0.0, 0.6)
        assert plan.exact_leaf_count() == 118_098
        exact = evaluate_exact(plan)
        assert abs(evaluate_exact_with_speedup(plan).mu - exact.mu) <= 1e-12

    def test_row_counts(self, monkeypatch):
        rows = []
        kernel = _engine.closed_form_theta_batch

        def counted(batch):
            rows.append(batch.shape[0])
            return kernel(batch)

        monkeypatch.setattr(_engine, "closed_form_theta_batch", counted)
        plan = SequencePlan(n1=5, eta=0.6)
        report = evaluate_exact_with_speedup(plan)
        assert sum(rows) == 2 ** (plan.n1 - 1)
        assert report.branches_evaluated == plan.speedup_leaf_count()
        rows.clear()
        evaluate_exact(plan)
        assert sum(rows) == (3 ** plan.n1 - 1) // 2

    def test_broken_twin_raises(self, monkeypatch):
        kernel = _engine.advance_batch

        def perturbed(batch, cmat, thetas):
            out = kernel(batch, cmat, thetas)
            if batch.shape == (1, 1):
                out[0, 1, 0] += 1e-15
            return out

        plan = SequencePlan(n1=3, n2=1, chi2=1.7, eta=0.6)
        report = evaluate_exact_with_speedup(plan)
        assert report.branches_evaluated == plan.speedup_leaf_count()
        monkeypatch.setattr(_engine, "advance_batch", perturbed)
        with pytest.raises(RuntimeError, match="root twins"):
            evaluate_exact_with_speedup(plan)


class TestAllLostMerge:
    """Every merged stage turns its all-lost outcome into binomial weights,
    reading p0 off the table's (L = N, k = 0) row."""

    def test_p0_is_the_all_lost_probability(self):
        stages, _ = sequences._split_stages(
            [SequencePlan(1, 1, 1.7, 1, 1.3, 0.6)], merge_lost=True)
        for stage, n in zip(stages, (1, 2, 4)):
            assert stage.lost == pytest.approx([0.4 ** n], rel=1e-14)

    def test_doctored_all_lost_row_raises(self, monkeypatch):
        # A d = +-2 entry keeps the port-swap symmetry, so the table
        # accepts it, but the all-lost outcome would then carry phase.
        real = sequences.build_likelihood_table

        def doctored(state, eta):
            table = real(state, eta)
            n, m = table.n_photons, table.matrix.copy()
            if n == 2:
                m[-1, n - 2] = m[-1, n + 2] = 1e-17
            return OutcomeLikelihoodTable(n, eta, m)

        plan = SequencePlan(n1=1, n2=1, chi2=1.7, eta=0.6)
        monkeypatch.setattr(sequences, "build_likelihood_table", doctored)
        with pytest.raises(RuntimeError, match="all-lost row"):
            evaluate_exact_with_speedup(plan)
        assert evaluate_exact(plan).branches_evaluated == plan.exact_leaf_count()

    def test_lossless_stages_leave_only_at_full_depth(self, monkeypatch):
        # At eta = 1 every weight below full depth is zero: no row leaves
        # early, so the multi-photon stage sees only the 2^(n1-1) records
        # the twin-merged single-photon stage ends with.
        rows = []
        kernel = _engine.numeric_theta_batch

        def counted(batch, cmat):
            rows.append(batch.shape[0])
            return kernel(batch, cmat)

        monkeypatch.setattr(_engine, "numeric_theta_batch", counted)
        plan = SequencePlan(n1=4, n2=2, chi2=1.7, eta=1.0)
        evaluate_exact_with_speedup(plan)
        assert sum(rows) == 2 ** (plan.n1 - 1)


class TestBranchGuard:
    def test_exact_guard_trips(self):
        plan = SequencePlan(n1=2, n2=2, chi2=1.8, n4=6, chi4=1.3, eta=0.6)
        with pytest.raises(BranchGuardError):
            evaluate_exact(plan)
        with pytest.raises(BranchGuardError):
            evaluate_exact_with_speedup(plan)

    def test_custom_guard(self):
        with pytest.raises(BranchGuardError):
            evaluate_exact(SequencePlan(n1=2, eta=0.5), branch_guard=8)


class TestMonteCarlo:
    def test_single_photon_matches_analytic(self):
        # One detection draws nothing: every trial scores the flat root's
        # expected sharpness eta / 2, so the error bar is exactly zero.
        report = evaluate_monte_carlo(SequencePlan(n1=1, eta=0.6), 10 ** 6, 42)
        assert abs(report.mu - 0.3) <= 1e-15
        assert report.mc_std_error == 0.0
        assert report.branches_evaluated == 10 ** 6
        assert report.method == "monte_carlo"

    def test_seeded_determinism(self):
        a = evaluate_monte_carlo(SequencePlan(n1=2, n2=1, chi2=1.7, eta=0.6),
                                 5_000, 7)
        b = evaluate_monte_carlo(SequencePlan(n1=2, n2=1, chi2=1.7, eta=0.6),
                                 5_000, 7)
        assert a.mu == b.mu
        assert a.mc_std_error == b.mc_std_error

    def test_matches_exact_within_three_sigma(self):
        plan = SequencePlan(n1=2, n2=1, chi2=1.7, n4=1, chi4=1.3, eta=0.6)
        exact = evaluate_exact_with_speedup(plan)
        mc = evaluate_monte_carlo(plan, 60_000, 3)
        assert abs(mc.mu - exact.mu) < 3.0 * mc.mc_std_error

    def test_n13_row_matches_exact_within_three_sigma(self):
        plan = SequencePlan(n1=7, n2=1, chi2=1.7, n4=1, chi4=1.3, eta=0.6)
        exact = evaluate_exact_with_speedup(plan)
        mc = evaluate_monte_carlo(plan, 100_000, 13)
        assert abs(mc.mu - exact.mu) < 3.0 * mc.mc_std_error

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            evaluate_monte_carlo(SequencePlan(n1=1, eta=0.6), 0, 1)

    @pytest.mark.parametrize("trials", [2.5, 3.0, True, "3", None])
    def test_rejects_non_integer_trials(self, trials):
        with pytest.raises(ValueError, match="trials must be an integer"):
            evaluate_monte_carlo(SequencePlan(n1=1, eta=0.6), trials, 1)

    def test_accepts_numpy_integer_trials(self):
        got = evaluate_monte_carlo(SequencePlan(n1=1, eta=0.6), np.int64(50), 1)
        assert got.branches_evaluated == 50
        assert got.mu == evaluate_monte_carlo(SequencePlan(n1=1, eta=0.6), 50, 1).mu

    def test_error_bar_is_calibrated(self):
        # z = (mu - exact) / se over 200 seeds: a calibrated first-order
        # error bar gives z a spread near 1 and a mean near 0.
        plan = SequencePlan(3, 1, 1.7, 0, 0, 0.6)
        exact = evaluate_exact(plan).mu
        z = []
        for seed in range(200):
            mc = evaluate_monte_carlo(plan, 1000, seed)
            z.append((mc.mu - exact) / mc.mc_std_error)
        assert 0.8 <= np.std(z) <= 1.2
        assert abs(np.mean(z)) <= 0.3

    def test_error_bar_is_the_projected_spread(self, monkeypatch):
        # Two two-photon detections: the first splits the trials among
        # the root's outcomes (recorded), the last scores each drawn
        # record (replaced by known scores).  mu is the count-weighted mean
        # score and the error bar their count-weighted std over sqrt(trials).
        draws = []

        class Recording(np.random.Generator):
            def multinomial(self, n, pvals):
                out = super().multinomial(n, pvals)
                draws.append(out)
                return out

        known = np.array([0.1, 0.5, 0.3, 0.9, 0.7, 0.2])
        kernel = _engine._theta_and_sharpness

        def scored(batch, cmat, settle):
            return kernel(batch, cmat, settle)[0], known[:batch.shape[0]]

        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: Recording(np.random.PCG64(seed)))
        monkeypatch.setattr(_engine, "_theta_and_sharpness", scored)
        trials = 40
        mc = evaluate_monte_carlo(SequencePlan(0, 2, 1.7, 0, 0, 0.6), trials, 0)
        assert len(draws) == 1 and draws[0].shape == (1, 6)
        counts = draws[0][draws[0] > 0]
        scores = known[:counts.size]
        assert counts.size >= 3 and counts.sum() == trials
        mean = (counts * scores).sum() / trials
        assert mc.mu == pytest.approx(mean, rel=1e-15)
        assert mc.mc_std_error == pytest.approx(
            math.sqrt((counts * (scores - mean) ** 2).sum() / trials / trials),
            rel=1e-12)

    @pytest.mark.parametrize("seed, mu", [
        (0, 0.7487950551980723),
        (1, 0.7615063285155101),
        (2, 0.7561371145493103),
    ])
    def test_mu_is_pinned(self, seed, mu):
        # The sampling stream is the first child of the seed's
        # SeedSequence; moving it would change these values.
        assert evaluate_monte_carlo(SequencePlan(3, 1, 1.7, 0, 0, 0.6),
                                    1000, seed).mu == mu

    @pytest.mark.parametrize("plan", [
        SequencePlan(n1=0),
        SequencePlan(n1=2, n2=1, chi2=1.7, n4=1, chi4=1.3, eta=0.0),
    ], ids=["empty", "eta0"])
    def test_no_phase_information_scores_zero(self, plan):
        mc = evaluate_monte_carlo(plan, 5000, 3)
        assert mc.mu == 0.0 and mc.mc_std_error == 0.0
        assert mc.holevo_variance == math.inf

    def test_one_trial_has_zero_error_bar(self):
        mc = evaluate_monte_carlo(SequencePlan(3, 1, 1.7, 0, 0, 0.6), 1, 4)
        assert mc.mc_std_error == 0.0


def reference_simulate(stages, rng, n_trials):
    """The per-trial sampler: every trial draws a true phase, samples its
    outcomes from their probabilities at that phase and carries its own
    posterior row, so the feedback and the Bayes update run once per
    trial.  Returns the residuals exp(i(phi_hat - phi)).  The record walk
    reads the posterior's own sharpness, so this is the only sampler that
    checks the posterior against a true phase."""
    phi = rng.uniform(0.0, 2.0 * math.pi, n_trials)
    batch = np.ones((n_trials, 1), dtype=complex)
    for stage in stages:
        for _ in range(stage.count):
            thetas = stage.thetas(batch)
            probs = np.clip(
                _engine.outcome_probabilities(stage.cmat, phi - thetas).real,
                0.0, None)
            cdf = np.cumsum(probs, axis=1)
            cdf /= cdf[:, -1:]
            u = rng.random(n_trials)
            picks = (u[:, None] > cdf).sum(axis=1)
            batch = _engine.advance_selected(batch, stage.cmat, picks, thetas)
            norms = np.abs(batch).max(axis=1)
            norms[norms == 0.0] = 1.0
            batch /= norms[:, None]
    phi_hat = np.angle(_engine.first_harmonic(batch))
    return np.exp(1j * (phi_hat - phi))


def residual_mean(residuals):
    """|mean residual| and its first-order standard error: the std of the
    residuals projected on the direction of their mean, over sqrt(n)."""
    mean = residuals.mean()
    along = (residuals * np.exp(-1j * np.angle(mean))).real
    return abs(mean), along.std() / math.sqrt(residuals.size)


N30_ROW = SequencePlan(n1=2, n2=2, chi2=1.8, n4=6, chi4=1.3, eta=0.6)
N13_ROW = SequencePlan(n1=7, n2=1, chi2=1.7, n4=1, chi4=1.3, eta=0.6)


class TestSampledRecords:
    """The Monte Carlo walks sampled outcome records, each carrying the
    trials that drew it, and scores each by its conditional sharpness."""

    @pytest.mark.parametrize("plan", [
        N30_ROW, N13_ROW, SequencePlan(n1=12, eta=0.6),
        SequencePlan(n1=2, n2=1, chi2=1.7, n4=1, chi4=1.3, eta=1.0),
        SequencePlan(n1=2, n2=1, chi2=1.7, n4=1, chi4=1.3, eta=0.0),
    ], ids=["n30-row", "n13-row", "12-single-eta0.6", "eta1", "eta0"])
    def test_mean_matches_per_trial_sampler(self, plan):
        trials = 2048
        want, want_se = residual_mean(
            reference_simulate(_plan_stages(plan), np.random.default_rng(11), trials))
        got = evaluate_monte_carlo(plan, trials, 11)
        assert abs(got.mu - want) <= 4.0 * math.hypot(got.mc_std_error, want_se)

    def test_kernels_see_distinct_records(self, monkeypatch):
        # 5,000 trials of (2, 1, 1.7): the closed form sees the flat root,
        # then at most the 3 records of one single photon; the last
        # detection's settled feedback sees at most the 9 of two and scores
        # them.  Only drawn records are built, so advance_selected makes
        # the rows of the next call.  A per-trial sampler sends 5,000 rows
        # to each.
        rows = {"closed_form_theta_batch": [], "numeric_theta_batch": [],
                "_theta_and_sharpness": [], "advance_selected": []}
        for name, seen in rows.items():
            kernel = getattr(_engine, name)

            def counted(batch, *args, _kernel=kernel, _seen=seen):
                _seen.append(batch.shape[0])
                return _kernel(batch, *args)

            monkeypatch.setattr(_engine, name, counted)
        evaluate_monte_carlo(SequencePlan(n1=2, n2=1, chi2=1.7, eta=0.6), 5000, 3)
        closed, settled = rows["closed_form_theta_batch"], rows["_theta_and_sharpness"]
        assert len(closed) == 2 and closed[0] == 1 and closed[1] <= 3
        assert len(settled) == 1 and settled[0] <= 9
        assert rows["numeric_theta_batch"] == []
        assert rows["advance_selected"] == [closed[1], settled[0]]

    def test_chunks_do_not_cascade(self, monkeypatch):
        # 16,384 trials of the N=30 SQL row.  Uneven draws leave ragged
        # batches; chunks of _BLOCK_ROWS rows that take the whole rest once
        # at most one more chunk would remain keep the calls few.
        calls = []
        kernel = _engine.closed_form_theta_batch

        def counted(batch):
            calls.append(batch.shape[0])
            return kernel(batch)

        monkeypatch.setattr(_engine, "closed_form_theta_batch", counted)
        evaluate_monte_carlo(SequencePlan(n1=30, eta=0.6), 16384, 5)
        assert len(calls) <= 400
        assert max(calls) <= 2 * _engine._BLOCK_ROWS

    @pytest.mark.parametrize("trials", [16384, 65536])
    def test_memory_peak_does_not_grow_with_trials(self, trials):
        # A few chunks per depth are alive, not a row per trial.  A node
        # per distinct record, updated in place, peaked at 25 MiB for
        # 16,384 trials of the N=30 row.  A one-trial run fills the caches.
        evaluate_monte_carlo(N30_ROW, 1, 11)
        tracemalloc.start()
        try:
            evaluate_monte_carlo(N30_ROW, trials, 11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 2 ** 20


class TestProperties:
    def test_mu_monotone_in_eta(self):
        mus = [
            evaluate_exact_with_speedup(
                SequencePlan(n1=2, n2=1, chi2=1.7, eta=eta)
            ).mu
            for eta in (0.2, 0.4, 0.6, 0.8, 1.0)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(mus, mus[1:]))

    def test_cramer_rao_bound_respected(self):
        # 12 identical single photons: wrapped MSE from sampling must stay
        # above 1/(copies * max-phi Fisher) up to 3 sigma of the estimate.
        eta, copies = 0.6, 12
        report_trials = 20_000
        plan = SequencePlan(n1=copies, eta=eta)
        ss = np.random.SeedSequence(99)
        rng = np.random.default_rng(ss)
        stages = _plan_stages(plan)
        res = reference_simulate(stages, rng, report_trials)
        err = np.angle(res)
        mse = float(np.mean(err ** 2))
        se = float(np.std(err ** 2, ddof=1) / math.sqrt(report_trials))
        bound = 1.0 / (copies * eta)
        assert mse >= bound - 3.0 * se


def test_report_json_schema():
    report = evaluate_exact_with_speedup(SequencePlan(n1=1, eta=0.5))
    doc = json.loads(json.dumps(report.to_json_dict()))
    assert set(doc) == {"mu", "holevo_variance", "branches_evaluated",
                        "method", "mc_std_error", "wall_time_ms"}
    assert doc["mc_std_error"] is None
    assert doc["method"] == "exact_with_speedup"
    flat = evaluate_exact(SequencePlan(n1=0, eta=0.5))
    assert flat.to_json_dict()["holevo_variance"] == "inf"
