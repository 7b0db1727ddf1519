import hashlib
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from conftest import traced_peak

from lossyphase import _engine, sequences
from lossyphase.detection import (
    OutcomeLikelihoodTable,
    build_likelihood_table,
    evaluate_outcome,
)
from lossyphase.feedback import optimal_theta_numeric, optimal_theta_single_photon
from lossyphase.optimizer import enumerate_plans, optimize
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

    @pytest.mark.parametrize("field", ["n1", "n2", "n4"])
    @pytest.mark.parametrize("count", [2.5, 2.0, True, "2", None])
    def test_rejects_non_integer_counts(self, field, count):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SequencePlan(**{"n1": 1, field: count})

    def test_accepts_numpy_integer_counts(self):
        plan = SequencePlan(n1=np.int64(2), n2=np.int32(1), chi2=1.7, eta=0.6)
        assert plan.total_photons == 4
        assert evaluate_exact(plan).mu == evaluate_exact(
            SequencePlan(n1=2, n2=1, chi2=1.7, eta=0.6)).mu

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
        children = _engine.advance_batch(batch, stage.cmat,
                                         stage.feedback(batch, stage.cmat))
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

    def test_unmerged_split_keeps_chi_keys_apart(self):
        # Entering the two-photon stage every row fans out to both chi
        # values as byte-identical copies with different keys; the exact
        # walk's fold of equal rows must leave them apart.
        plans = [SequencePlan(2, 1, chi2, 1, 1.3, 0.6) for chi2 in (1.7, 0.9)]
        stages, keys = sequences._split_stages(plans, merge_lost=False)
        mu = sequences._walk_tree(stages)[0]
        for plan, key in zip(plans, keys):
            assert abs(mu[key] - evaluate_exact(plan).mu) <= 1e-14, plan

    def test_split_wall_time_is_shared(self):
        plans = enumerate_plans(4, 0.5, 0.6)[1:6]
        assert len({(p.n1, p.n2, p.n4) for p in plans}) == 1
        assert len({r.wall_time_s for r in evaluate_plans_with_speedup(plans)}) == 1


def unique_fold(batch, cells, counts):
    """The plain fold: np.unique over each row's bytes and its key."""
    raw = np.concatenate([batch.view(np.uint8).reshape(batch.shape[0], -1),
                          cells.view(np.uint8).reshape(cells.size, -1)], axis=1)
    _, first, group = np.unique(raw.view(np.dtype((np.void, raw.shape[1])))[:, 0],
                                return_index=True, return_inverse=True)
    kept = np.sort(first)
    summed = np.zeros(kept.size, dtype=counts.dtype)
    np.add.at(summed, np.searchsorted(kept, first[group]), counts)
    return batch[kept], cells[kept], summed


class TestFoldEqualRows:
    """_fold_equal_rows equals the plain np.unique fold on random chunks,
    whether its integer key exits early or falls through to the fold."""

    @staticmethod
    def chunk(seed, duplicates):
        """256 rows over 4 keys; with duplicates, a third of them copy other
        rows, some under another key."""
        rng = np.random.default_rng(seed)
        batch = rng.normal(size=(256, 9)) + 1j * rng.normal(size=(256, 9))
        cells = rng.integers(0, 4, 256)
        if duplicates:
            copies = rng.choice(256, 85, replace=False)
            batch[copies] = batch[rng.integers(0, 256, 85)]
            cells[copies[::2]] = cells[copies[::2] - 1]
        return batch, cells, rng.integers(1, 5, 256)

    @staticmethod
    def assert_folds_like_unique(batch, cells, counts):
        got = sequences._fold_equal_rows(batch, cells, counts)
        for part, want in zip(got, unique_fold(batch, cells, counts)):
            assert part.dtype == want.dtype and np.array_equal(part, want)
        return got

    @pytest.mark.parametrize("seed", range(4))
    def test_duplicates_fold_like_unique(self, seed):
        batch, cells, counts = self.chunk(seed, duplicates=True)
        got = self.assert_folds_like_unique(batch, cells, counts)
        assert got[0].shape[0] < batch.shape[0]
        assert got[2].sum() == counts.sum()

    @pytest.mark.parametrize("seed", range(4))
    def test_distinct_rows_come_back_untouched(self, seed):
        batch, cells, counts = self.chunk(seed, duplicates=False)
        got = self.assert_folds_like_unique(batch, cells, counts)
        assert all(a is b for a, b in zip(got, (batch, cells, counts)))

    def test_signed_zeros_stay_apart(self):
        batch, cells, counts = self.chunk(5, duplicates=False)
        batch[:, 4] = 0.0
        batch[1::2] = batch[::2]
        batch[1::2, 4] = -0.0
        cells[1::2] = cells[::2]
        got = self.assert_folds_like_unique(batch, cells, counts)
        assert got[0].shape[0] == batch.shape[0]

    @pytest.mark.parametrize("duplicates", [False, True])
    def test_colliding_keys_still_fold_exactly(self, duplicates, monkeypatch):
        # Zero multipliers key every row by its cell alone, so every chunk
        # collides and takes the np.unique fold.
        monkeypatch.setattr(sequences, "_key_multipliers",
                            lambda words: np.zeros(words, dtype=np.uint64))
        batch, cells, counts = self.chunk(6, duplicates)
        got = self.assert_folds_like_unique(batch, cells, counts)
        assert got[0] is not batch


class TestPinnedBits:
    """The walks' mu as hex, bit for bit: a drift in the last bits of the
    tree walk fails here although every tolerance check would pass.  The
    first plan folds rows and ends in a four-photon stage; at eta = 1 the
    second's all-lost children are zero and are filtered out."""

    @pytest.mark.parametrize("plan, exact, speedup", [
        (SequencePlan(9, 0, 0.0, 1, 1.3, 0.6),
         "0x1.d8139f2ad204ep-1", "0x1.d8139f2ad205ep-1"),
        (SequencePlan(3, 1, 1.7, 1, 1.3, 1.0),
         "0x1.e3075f28b2913p-1", "0x1.e3075f28b2911p-1"),
    ])
    def test_exact_and_speedup(self, plan, exact, speedup):
        assert evaluate_exact(plan).mu.hex() == exact
        assert evaluate_exact_with_speedup(plan).mu.hex() == speedup

    def test_chi_fanned_split(self):
        plans = [SequencePlan(3, 1, chi2, 1, chi4, 0.6)
                 for chi2 in (1.2, 1.7) for chi4 in (1.0, 1.3)]
        assert [r.mu.hex() for r in evaluate_plans_with_speedup(plans)] == [
            "0x1.b608aa9f62f87p-1", "0x1.b8f1c4564d579p-1",
            "0x1.bb655c40a97b5p-1", "0x1.be25628e44afcp-1"]

    def test_split_fanned_from_the_root(self):
        # Without single photons the first stage fans the root out over chi2.
        plans = [SequencePlan(0, 1, chi2, 1, chi4, 0.6)
                 for chi2 in (0.5, 1.5) for chi4 in (1.0, 1.5)]
        assert [r.mu.hex() for r in evaluate_plans_with_speedup(plans)] == [
            "0x1.3c38cd994dbb7p-1", "0x1.4d6374b048ec6p-1",
            "0x1.7482935f54100p-1", "0x1.7fc61bb065b6ep-1"]

    def test_unmerged_chi_fanned_split(self):
        plans = [SequencePlan(2, 1, chi2, 1, 1.3, 0.6) for chi2 in (1.7, 0.9)]
        stages, keys = sequences._split_stages(plans, merge_lost=False)
        mu = sequences._walk_tree(stages)[0]
        assert [mu[key].hex() for key in keys] == [
            "0x1.b159b5c502505p-1", "0x1.a235f5a123db3p-1"]

    def test_optimize_n9_table(self):
        # Every mu of the paper's N = 9 search, as one digest of their hex.
        rows = optimize(9, 0.6, 0.1).pareto_table
        digest = hashlib.sha256("\n".join(r.mu.hex() for _, r in rows).encode())
        assert len(rows) == 1009 and digest.hexdigest() == (
            "82c09f8ae84caf49d2fd1399f52502cbecf78b019fcec1b911acd31b550128d0")

    @pytest.mark.parametrize("plan, mu, std_error", [
        (SequencePlan(9, 2, 1.5, 0, 0, 0.6),
         "0x1.d7c4cc553e3e5p-1", "0x1.dbfd9f2cbaa13p-12"),
        (SequencePlan(20, 0, 0.0, 2, 1.3, 0.7),
         "0x1.f2de6f9b52ddep-1", "0x1.4d3f362cf567fp-14"),
    ])
    def test_monte_carlo(self, plan, mu, std_error):
        # Both plans' leaving rows are cut to the next stage's horizon and
        # advanced again; these bits are those of the whole bands.
        mc = evaluate_monte_carlo(plan, 3000, 1)
        assert (mc.mu.hex(), mc.mc_std_error.hex()) == (mu, std_error)

    @pytest.mark.parametrize("eta, trials, mu, std_error", [
        (0.0, 3000, "0x0.0p+0", "0x0.0p+0"),
        (1.0, 3000, "0x1.e2ff5796f6283p-1", "0x1.53048b969cbe8p-14"),
        (0.6, 1, "0x1.c9931ed4d4a18p-1", "0x0.0p+0"),
    ], ids=["eta0", "eta1", "one-trial"])
    def test_monte_carlo_edges(self, eta, trials, mu, std_error):
        # At eta = 0 no row scores, at eta = 1 no trial stops before the
        # last detection, and one trial is one record.
        mc = evaluate_monte_carlo(SequencePlan(3, 1, 1.7, 1, 1.3, eta), trials, 1)
        assert (mc.mu.hex(), mc.mc_std_error.hex()) == (mu, std_error)


class TestBoundedPrefix:
    """The lossless single-photon prefix is walked a chunk at a time, so
    plans rich in single photons never hold a whole level of 2^n1 rows."""

    HEAVY = [SequencePlan(n1=12, eta=0.6),
             SequencePlan(n1=10, n2=1, chi2=1.0, n4=1, chi4=1.3, eta=0.6)]
    KERNELS = ("closed_form_theta_batch", "numeric_theta_batch",
               "advance_batch", "expected_sharpness_batch")

    def test_kernel_calls_stay_within_row_cap(self, monkeypatch):
        want = [evaluate_exact_with_speedup(p).mu for p in self.HEAVY]
        seen = []

        def counted(kernel):
            def call(batch, *args, **options):
                seen.append(batch.shape[0])
                return kernel(batch, *args, **options)
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
        peak = traced_peak(evaluate_exact_with_speedup, SequencePlan(n1=16, eta=0.6))
        assert peak <= 16 * 2 ** 20


def distinct_rows_per_depth(stage):
    """The byte-distinct posterior rows at each depth of one unmerged
    stage, from every record built one row per kernel call."""
    level, counts = [np.ones((1, 1), dtype=complex)], []
    for _ in range(stage.count):
        counts.append(len({row.tobytes() for row in level}))
        level = [child[None] for row in level for child in _engine.advance_batch(
                     row, stage.cmat, stage.feedback(row, stage.cmat))[0]]
    return counts


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
        # The exact walk folds bit-identical rows, so its closed form sees
        # each depth's byte-distinct records once: an all-lost outcome only
        # scales by p0 and a flat posterior's feedback is exactly 0, so
        # e.g. the records (+, lost) and (lost, +) hold the same bits.
        plan = SequencePlan(n1=5, eta=0.6)
        distinct = distinct_rows_per_depth(_plan_stages(plan)[0])
        rows = []
        kernel = _engine.closed_form_theta_batch

        def counted(batch):
            rows.append(batch.shape[0])
            return kernel(batch)

        monkeypatch.setattr(_engine, "closed_form_theta_batch", counted)
        report = evaluate_exact_with_speedup(plan)
        assert sum(rows) == 2 ** (plan.n1 - 1)
        assert report.branches_evaluated == plan.speedup_leaf_count()
        rows.clear()
        evaluate_exact(plan)
        assert rows == distinct == [1, 3, 8, 20, 57]

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
        # the twin-merged single-photon stage ends with.  With n2 = 2 the
        # last stage's depth-0 rows are the ones whose feedback does not
        # settle, whether or not their weight-0 scores are taken.
        rows = []
        kernel = _engine.numeric_theta_batch

        def counted(batch, cmat, **options):
            if not options.get("settle"):
                rows.append(batch.shape[0])
            return kernel(batch, cmat, **options)

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

    @pytest.mark.parametrize("plan", [
        SequencePlan(n1=12, eta=0.3),
        SequencePlan(n1=1, n2=3, chi2=1.7, eta=0.3),
    ], ids=["12-single", "1-3-1.7"])
    def test_loss_heavy_matches_speedup_within_three_sigma(self, plan):
        # At eta = 0.3 most detections lose their photons, so most trials
        # stop early in every stage: the binomial stop draw carries them.
        exact = evaluate_exact_with_speedup(plan)
        mc = evaluate_monte_carlo(plan, 60_000, 3)
        assert abs(mc.mu - exact.mu) < 3.0 * mc.mc_std_error

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            evaluate_monte_carlo(SequencePlan(n1=1, eta=0.6), 0, 1)

    @pytest.mark.parametrize("trials", [2.5, 3.0, True, "3", None])
    def test_rejects_non_integer_trials(self, trials):
        with pytest.raises(ValueError, match="trials must be an integer"):
            evaluate_monte_carlo(SequencePlan(n1=1, eta=0.6), trials, 1)

    @pytest.mark.parametrize("seed, error", [
        (None, "rng_seed must be an integer, got None"),
        (1.5, "rng_seed must be an integer, got 1.5"),
        (True, "rng_seed must be an integer, got True"),
        (-1, "rng_seed must be >= 0"),
    ])
    def test_rejects_bad_seeds(self, seed, error):
        # None would draw OS entropy: the same call would not give the same bits.
        with pytest.raises(ValueError, match=error):
            evaluate_monte_carlo(SequencePlan(n1=1, eta=0.6), 50, seed)

    def test_accepts_numpy_integer_seed(self):
        plan = SequencePlan(3, 1, 1.7, 0, 0, 0.6)
        got, want = (evaluate_monte_carlo(plan, 50, seed) for seed in (np.int64(5), 5))
        assert (got.mu, got.mc_std_error) == (want.mu, want.mc_std_error)

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

    def test_error_bar_is_calibrated_under_heavy_loss(self):
        # As above over 150 seeds of 2,000 trials, where at eta = 0.3 the
        # stop draw decides how many phase-carrying photons a trial gets.
        plan = SequencePlan(n1=12, eta=0.3)
        exact = evaluate_exact_with_speedup(plan).mu
        z = []
        for seed in range(150):
            mc = evaluate_monte_carlo(plan, 2000, seed)
            z.append((mc.mu - exact) / mc.mc_std_error)
        assert 0.8 <= np.std(z) <= 1.2
        assert abs(np.mean(z)) <= 0.3

    def test_error_bar_is_the_projected_spread(self, monkeypatch, recorded_draws):
        # Two two-photon detections, merged: at the first the trials that
        # lose both photons stop (a recorded binomial draw) and the rest
        # split among the root's 5 phase-carrying outcomes (a recorded
        # multinomial); the last detection stops every drawn record.  The
        # root's stopped trials and each drawn record score known values,
        # in call order, wherever the sharpness is computed.  mu is the
        # count-weighted mean score and the error bar their count-weighted
        # std over sqrt(trials).
        known = np.array([0.1, 0.5, 0.3, 0.9, 0.7, 0.2])
        given = []

        def scoring(kernel, fused):
            def call(batch, cmat, *args, **options):
                out = kernel(batch, cmat, *args, **options)
                if fused and not options.get("sharpness"):
                    return out
                given.append(batch.shape[0])
                scores = known[sum(given[:-1]):sum(given)]
                return (out[0], scores) if fused else scores
            return call

        for name, fused in (("numeric_theta_batch", True),
                            ("expected_sharpness_batch", False)):
            monkeypatch.setattr(_engine, name, scoring(getattr(_engine, name), fused))
        trials = 40
        mc = evaluate_monte_carlo(SequencePlan(0, 2, 1.7, 0, 0, 0.6), trials, 0)
        draws = [out for *_, out in recorded_draws]
        assert [d.shape for d in draws[:2]] == [(1,), (1, 5)] and len(draws) == 3
        drawn = draws[1][draws[1] > 0]
        assert np.array_equal(draws[2], drawn)  # the last detection stops all
        counts = np.concatenate([draws[0], drawn])
        scores = known[:counts.size]
        assert given == [1, drawn.size]
        assert draws[0][0] > 0 and counts.size >= 3 and counts.sum() == trials
        mean = (counts * scores).sum() / trials
        assert mc.mu == pytest.approx(mean, rel=1e-15)
        assert mc.mc_std_error == pytest.approx(
            math.sqrt((counts * (scores - mean) ** 2).sum() / trials / trials),
            rel=1e-12)

    @pytest.mark.parametrize("seed, mu", [
        (0, 0.7543641706958468),
        (1, 0.7626453037621427),
        (2, 0.752260881582896),
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
            thetas = stage.feedback(batch, stage.cmat)
            probs = np.clip(
                _engine.outcome_probabilities(stage.cmat, phi - thetas).real,
                0.0, None)
            cdf = np.cumsum(probs, axis=1)
            cdf /= cdf[:, -1:]
            u = rng.random(n_trials)
            picks = (u[:, None] > cdf).sum(axis=1)
            batch = _engine.advance_batch(batch, stage.cmat[picks][:, None], thetas)[:, 0]
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
        SequencePlan(n1=12, eta=0.3),
    ], ids=["n30-row", "n13-row", "12-single-eta0.6", "eta1", "eta0",
            "12-single-eta0.3"])
    def test_mean_matches_per_trial_sampler(self, plan):
        trials = 2048
        want, want_se = residual_mean(
            reference_simulate(_plan_stages(plan), np.random.default_rng(11), trials))
        got = evaluate_monte_carlo(plan, trials, 11)
        assert abs(got.mu - want) <= 4.0 * math.hypot(got.mc_std_error, want_se)

    def test_kernels_see_distinct_records(self, monkeypatch):
        # 5,000 trials of (2, 1, 1.7), merged: the closed form sees the
        # flat root, then the at most 2 records of one phase-carrying
        # single photon, which advance_batch builds, as it then builds
        # the at most 4 of two.  Trials that lost photons stop at every
        # depth, so the last detection's settled feedback sees the root,
        # the depth-1 and the depth-2 records and scores them.  No all-lost
        # child is built.  A per-trial sampler sends 5,000 rows to each.
        rows = {"closed_form_theta_batch": [], "numeric_theta_batch": [],
                "advance_batch": []}
        scored = []  # the numeric feedback's calls with the sharpness
        for name, seen in rows.items():
            kernel = getattr(_engine, name)

            def counted(batch, *args, _kernel=kernel, _seen=seen, **options):
                (scored if options.get("sharpness") else _seen).append(batch.shape[0])
                return _kernel(batch, *args, **options)

            monkeypatch.setattr(_engine, name, counted)
        evaluate_monte_carlo(SequencePlan(n1=2, n2=1, chi2=1.7, eta=0.6), 5000, 3)
        closed, built = rows["closed_form_theta_batch"], rows["advance_batch"]
        assert closed == [1, built[0]] and built[0] <= 2
        assert len(built) == 2 and built[1] <= 4
        assert scored == [1 + built[0] + built[1]]
        assert rows["numeric_theta_batch"] == []

    @pytest.mark.parametrize("plan", [N30_ROW, SequencePlan(9, 2, 1.5, 0, 0, 0.6)],
                             ids=["n30-row", "9-2-1.5"])
    def test_rows_keep_only_their_horizon(self, monkeypatch, plan):
        # A row at depth s of a stage of order q holds the band J = (orders
        # of the earlier stages' detections) + q s, and the detections
        # ahead of it read at most H = 1 + q (count - s) + (orders of the
        # later stages' detections): it keeps min(J, H).  advance_batch
        # builds depth s + 1 from depth s with keep = H; the feedback sees
        # every depth below count, the rows that left the stage before at
        # depth 0 included.
        stages = [(q, n) for q, n in ((1, plan.n1), (2, plan.n2), (4, plan.n4)) if n]
        horizons, kept = {}, {}
        for i, (q, n) in enumerate(stages):
            head = sum(qq * nn for qq, nn in stages[:i])
            tail = sum(qq * nn for qq, nn in stages[i + 1:])
            depths = n if i + 1 < len(stages) else n - 1
            horizons[q] = [1 + q * (n - s) + tail for s in range(depths + 1)]
            kept[q] = [min(head + q * s, h) for s, h in enumerate(horizons[q])]
        fed, built = set(), set()
        feedback, advance = sequences._Stage.feedback, _engine.advance_batch

        def fed_spy(stage, batch, cmat, **options):
            fed.add((cmat.shape[-1] // 2, batch.shape[1]))
            return feedback(stage, batch, cmat, **options)

        def built_spy(batch, cmat, thetas, **options):
            out = advance(batch, cmat, thetas, **options)
            built.add((cmat.shape[-1] // 2, batch.shape[1], options["keep"], out.shape[2]))
            return out

        monkeypatch.setattr(sequences._Stage, "feedback", fed_spy)
        monkeypatch.setattr(_engine, "advance_batch", built_spy)
        evaluate_monte_carlo(plan, 4096, 1)
        assert fed == {(q, 2 * w + 1) for q, n in stages for w in kept[q][:n]}
        assert built == {(q, 2 * ws[s] + 1, horizons[q][s + 1], 2 * ws[s + 1] + 1)
                         for q, ws in kept.items() for s in range(len(ws) - 1)}

    def test_lossless_trials_stop_only_at_the_last_detection(self, recorded_draws):
        # At eta = 1 no detection loses its photons: every stop probability
        # is 0 before a stage's last merged depth and 1 there.
        evaluate_monte_carlo(
            SequencePlan(n1=2, n2=1, chi2=1.7, n4=1, chi4=1.3, eta=1.0), 2000, 3)
        draws = [draw[1:] for draw in recorded_draws if draw[0] == "binomial"]
        assert draws
        for n, p, out in draws:
            assert np.all((p == 0.0) | (p == 1.0))
            assert np.array_equal(out, n * (p == 1.0))

    def test_all_lost_trials_build_no_child(self, monkeypatch):
        # At eta = 0 every detection loses its photons: every trial stops
        # at depth 0 of every stage and nothing is drawn or built.
        def never(*args, **options):
            raise AssertionError("advance_batch called at eta = 0")

        monkeypatch.setattr(_engine, "advance_batch", never)
        mc = evaluate_monte_carlo(
            SequencePlan(n1=2, n2=1, chi2=1.7, n4=1, chi4=1.3, eta=0.0), 5000, 3)
        assert mc.mu == 0.0

    def test_long_stage_at_tiny_eta_stays_finite(self):
        # p0 = (1 - 1e-9)^1 leaves the binomial tail q^j underflowing to 0
        # at deep depths; their stop probability must not become 0 / 0
        # (a RuntimeWarning is an error here).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mc = evaluate_monte_carlo(SequencePlan(n1=40, eta=1e-9), 10_000, 1)
        assert math.isfinite(mc.mu) and 0.0 <= mc.mu <= 1e-7
        assert math.isfinite(mc.mc_std_error)

    @pytest.mark.parametrize("p0", [0.0, 0.4, 0.84, 1.0 - 1e-9, 1.0])
    def test_stop_hazard_reproduces_the_binomial(self, p0):
        # P(M = j) = h_j prod_{i<j} (1 - h_i) for M ~ Binomial(c, 1 - p0).
        # Near p0 = 1, h_0 is near 1 and 1 - h_0 keeps only ~8 digits.
        span = 40
        h = sequences._stop_hazard(span, np.array([p0]))[0]
        assert np.all((h >= 0.0) & (h <= 1.0)) and h[-1] == 1.0
        reach = np.concatenate([[1.0], np.cumprod(1.0 - h[:-1])])
        want = [math.comb(span, j) * (1.0 - p0) ** j * p0 ** (span - j)
                for j in range(span + 1)]
        assert np.allclose(h * reach, want, rtol=1e-5, atol=1e-300)

    @pytest.mark.parametrize("p0", [0.4, 1e-300, 1.0 - 1e-12])
    def test_stop_hazard_holds_beyond_float_binomials(self, p0):
        # C(1100, 550) ~ 1e330 is not a float; the hazards still give a
        # distribution of M with mean span q (a RuntimeWarning is an error).
        span = 1100
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = sequences._stop_hazard(span, np.array([p0]))[0]
        assert np.all((h >= 0.0) & (h <= 1.0)) and h[-1] == 1.0
        pmf = h * np.concatenate([[1.0], np.cumprod(1.0 - h[:-1])])
        assert pmf.sum() == pytest.approx(1.0, rel=1e-9)
        assert (pmf * np.arange(span + 1)).sum() == pytest.approx(
            span * (1.0 - p0), rel=1e-6)

    def test_chunks_do_not_cascade(self, monkeypatch):
        # 16,384 trials of the N=30 SQL row.  Uneven draws leave ragged
        # batches; chunks of _SAMPLE_ROWS rows that take the whole rest once
        # at most one more chunk would remain keep the calls few.
        calls = []
        kernel = _engine.closed_form_theta_batch

        def counted(batch):
            calls.append(batch.shape[0])
            return kernel(batch)

        monkeypatch.setattr(_engine, "closed_form_theta_batch", counted)
        evaluate_monte_carlo(SequencePlan(n1=30, eta=0.6), 16384, 5)
        assert len(calls) <= 400
        assert max(calls) <= 2 * sequences._SAMPLE_ROWS

    @pytest.mark.parametrize("trials", [16384, 65536])
    def test_memory_peak_does_not_grow_with_trials(self, trials):
        # A few chunks per depth are alive, not a row per trial, and the
        # kernels hold one 256-row block of temporaries.  16,384 trials of
        # the N=30 row peaked at 25 MiB with a node per distinct record,
        # updated in place, at 15.3 MiB with 1,024-row kernel blocks, at
        # 4.6 MiB (16,384 trials) and 4.9 MiB (65,536) while chunks held
        # their parent rows, and at 3.4 and 4.2 MiB now.  A one-trial run
        # fills the caches.
        evaluate_monte_carlo(N30_ROW, 1, 11)
        peak = traced_peak(evaluate_monte_carlo, N30_ROW, trials, 11)
        assert peak <= 8 * 2 ** 20

    def test_rows_past_their_horizon_are_not_held(self):
        # Rows kept at their whole band, up to 53 coefficients, peaked at
        # 6.0 MiB; rows cut to the harmonics peaked at 4.6 MiB, and at
        # 3.4 MiB once chunks let go of their parent rows.
        evaluate_monte_carlo(N30_ROW, 1, 11)
        assert traced_peak(evaluate_monte_carlo, N30_ROW, 16384, 11) <= 5.5 * 2 ** 20

    def test_chunks_let_go_of_their_parent_rows(self):
        # A chunk that has taken its rows holds no reference to its pending
        # entry, its chunk's draws die with the chunk, and Newton frees an
        # iteration's products before the next product or compaction.
        # While they did not, 16,384 trials of the N=30 row peaked at
        # 4.6 MiB and of its SQL row at 4.0 MiB; both read 3.4 MiB now.
        for plan in (N30_ROW, SequencePlan(n1=30, eta=0.6)):
            evaluate_monte_carlo(plan, 1, 11)
            assert traced_peak(evaluate_monte_carlo, plan, 16384, 11) <= 3.55 * 2 ** 20


class TestSampledFeedback:
    """A sampled walk's feedback builds only sampled children, so every
    numeric feedback settles, and below the last detection it scores the
    sharpness only on the rows whose stop draw stopped trials."""

    PLAN = SequencePlan(n1=3, n2=2, chi2=1.2, n4=2, chi4=1.5, eta=0.6)

    def test_every_numeric_feedback_settles(self, monkeypatch):
        settles = []
        kernel = _engine.numeric_theta_batch

        def spy(batch, cmat, **options):
            settles.append(options.get("settle", False))
            return kernel(batch, cmat, **options)

        monkeypatch.setattr(_engine, "numeric_theta_batch", spy)
        evaluate_monte_carlo(self.PLAN, 2000, 5)
        assert len(settles) >= 4 and all(settles)
        # The merged walk keeps full convergence below the last detection.
        settles.clear()
        evaluate_exact_with_speedup(self.PLAN)
        assert True in settles and False in settles

    @pytest.mark.parametrize("plan", [
        SequencePlan(n1=0, n4=4, chi4=1.3, eta=0.6), SequencePlan(n1=8, eta=0.6),
    ], ids=["four-photon", "single-photon"])
    def test_sharpness_only_on_stopping_rows(self, monkeypatch, recorded_draws, plan):
        # One stage, so every binomial draw is a stop draw of the last
        # stage, and its chunk's feedback and scoring follow it before the
        # next draw.  Each event is tagged with the draws made before it.
        events = []

        def spy(name, kind):
            kernel = getattr(_engine, name)

            def call(batch, *args, **options):
                events.append((len(recorded_draws), kind, batch))
                if options.get("sharpness"):
                    events.append((len(recorded_draws), "sharpness", batch))
                return kernel(batch, *args, **options)

            monkeypatch.setattr(_engine, name, call)

        spy("numeric_theta_batch", "theta")
        spy("closed_form_theta_batch", "theta")
        spy("expected_sharpness_batch", "sharpness")
        evaluate_monte_carlo(plan, 4000, 2)
        partial = 0
        for i, (method, _, _, stopped) in enumerate(recorded_draws):
            if method != "binomial":
                continue
            after = [(kind, batch) for tag, kind, batch in events if tag == i + 1]
            assert [kind for kind, _ in after] == ["theta", "sharpness"]
            (_, fed), (_, scored) = after
            assert fed.shape[0] == stopped.size
            assert np.array_equal(scored, fed[stopped > 0])
            partial += 0 < np.count_nonzero(stopped) < stopped.size
        assert partial

    def test_settled_mu_is_the_converged_mu(self, monkeypatch):
        # The settled stop leaves theta within rounding of full convergence
        # for the draws and the scores alike, at the same seed.
        settled = [evaluate_monte_carlo(self.PLAN, 4096, seed).mu for seed in range(3)]
        kernel = _engine.numeric_theta_batch
        monkeypatch.setattr(_engine, "numeric_theta_batch",
                            lambda batch, cmat, **options: kernel(
                                batch, cmat, **{**options, "settle": False}))
        converged = [evaluate_monte_carlo(self.PLAN, 4096, seed).mu for seed in range(3)]
        assert np.max(np.abs(np.subtract(settled, converged))) <= 1e-13


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
