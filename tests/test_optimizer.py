import json
import math

import numpy as np
import pytest

from lossyphase.optimizer import (
    PARETO_CSV_HEADER,
    enumerate_plans,
    optimize,
    pareto_csv,
    sql_baseline,
)
from lossyphase.sequences import SequencePlan


class TestEnumeration:
    def test_small_exhaustive_case(self):
        plans = enumerate_plans(2, 1.0)
        keys = [(p.n1, p.n2, p.chi2, p.n4) for p in plans]
        assert keys == [(2, 0, 0.0, 0), (0, 1, 0.0, 0), (0, 1, 1.0, 0),
                        (0, 1, 2.0, 0)]

    def test_n9_contains_paper_row(self):
        plans = enumerate_plans(9, 0.1, eta=0.6)
        assert any(
            (p.n1, p.n2, p.chi2, p.n4) == (7, 1, 1.7, 0) for p in plans
        )

    def test_n13_contains_paper_row(self):
        plans = enumerate_plans(13, 0.1, eta=0.6)
        assert any(
            (p.n1, p.n2, p.chi2, p.n4, p.chi4) == (7, 1, 1.7, 1, 1.3)
            for p in plans
        )

    def test_budget_conserved(self):
        for total in (4, 9, 13):
            for plan in enumerate_plans(total, 0.5):
                assert plan.total_photons == total

    def test_all_single_photon_plan_present(self):
        for total in (1, 5, 12):
            plans = enumerate_plans(total, 0.5)
            assert any(p.n1 == total and p.n2 == 0 and p.n4 == 0 for p in plans)

    def test_validation(self):
        with pytest.raises(ValueError):
            enumerate_plans(0, 0.1)
        with pytest.raises(ValueError):
            enumerate_plans(4, 0.0)


class TestOptimize:
    def test_best_never_worse_than_sql(self):
        result = optimize(4, 1.0, chi_grid_step=0.5)
        assert result.best_variance <= sql_baseline(4, 1.0) + 1e-12

    def test_deterministic(self):
        a = optimize(3, 0.7, chi_grid_step=0.5)
        b = optimize(3, 0.7, chi_grid_step=0.5)
        assert a.best_plan == b.best_plan
        assert a.best_variance == b.best_variance
        assert [(p, r.mu) for p, r in a.pareto_table] == [
            (p, r.mu) for p, r in b.pareto_table
        ]

    def test_best_matches_table_minimum(self):
        res = optimize(4, 0.6, chi_grid_step=0.5)
        table_min = min(r.holevo_variance for _, r in res.pareto_table)
        assert res.best_variance == table_min

    def test_monte_carlo_evaluator(self):
        res = optimize(2, 0.8, chi_grid_step=1.0, evaluator="mc",
                       mc_trials=2_000, mc_seed=5)
        assert all(r.method == "monte_carlo" for _, r in res.pareto_table)

    @pytest.mark.parametrize("evaluator", ["speedup", "exact"])
    def test_all_variances_infinite_picks_first_plan(self, evaluator):
        # At eta = 0 every plan keeps a flat posterior: V_H is inf for all,
        # and the first plan in enumeration order (all single photons) wins.
        res = optimize(2, 0.0, chi_grid_step=1.0, evaluator=evaluator)
        assert all(math.isinf(r.holevo_variance) for _, r in res.pareto_table)
        assert res.best_plan == SequencePlan(n1=2, eta=0.0)
        assert res.best_variance == math.inf
        assert res.to_json_dict()["best_variance"] == "inf"

    @pytest.mark.parametrize("total", [9.5, True])
    def test_non_integer_photon_count_is_named(self, total):
        with pytest.raises(ValueError,
                           match=f"total_photons must be an integer, got {total}"):
            optimize(total, 0.6)

    def test_unknown_evaluator_rejected(self):
        with pytest.raises(ValueError, match="'bogus'.*exact, speedup or mc"):
            optimize(2, 0.6, evaluator="bogus")

    def test_branch_guard_identifies_offending_plan(self):
        # N=17 all-single-photon needs 3^17 > 1e8 exact records; the error
        # must name the plan that tripped the guard.
        from lossyphase.sequences import BranchGuardError
        with pytest.raises(BranchGuardError, match="n1=17"):
            optimize(17, 0.6, chi_grid_step=2.0, evaluator="exact")


    def test_speedup_branch_guard_identifies_offending_plan(self):
        # The first split, all 27 photons single, needs 2^28 - 1 > 1e8
        # records; the split walk must refuse it before walking, naming
        # the plan once.
        from lossyphase.sequences import BranchGuardError
        with pytest.raises(BranchGuardError, match="n1=27") as info:
            optimize(27, 0.6, chi_grid_step=2.0)
        assert str(info.value).count("n1=27") == 1

    def test_work_guard_admits_the_n17_search(self):
        # 5,545 plans and 2.9e9 merged records, counted without a walk;
        # at exact, the split (17, 0, 0) trips the branch guard first.
        from lossyphase import optimizer
        from lossyphase.sequences import BranchGuardError
        plans = enumerate_plans(17, 0.1, 0.6)
        assert len(plans) == 5545 <= optimizer.PLAN_BUDGET
        assert sum(p.speedup_leaf_count() for p in plans) < optimizer.WORK_BUDGET
        optimizer._check_work(17, 0.1, 0.6, "speedup", 1)
        with pytest.raises(BranchGuardError, match="n1=17, n2=0"):
            optimizer._check_work(17, 0.1, 0.6, "exact", 1)

    @pytest.mark.parametrize("step", [0.1, 0.3, 0.7, 1 / 3, 0.15, 2.0, 1e-3,
                                      1.0000000000004, 0.6666666666669,
                                      0.4000000000002, 0.2857142857144])
    def test_counted_grid_is_the_filtered_grid(self, step):
        # The guard counts the grid the plans use: i step rounded to 12
        # decimals for i up to round(2 / step), those above 2 dropped.  The
        # last four steps put a point at 2.000000000001, which no plan
        # accepts.  fisher-scan counts and builds its grid over [lo, hi] by
        # the same two functions.
        from lossyphase.optimizer import _chi_grid, _chi_grid_size
        grid = [g for g in (round(i * step, 12) for i in range(round(2.0 / step) + 1))
                if g <= 2.0]
        assert _chi_grid_size(step) == len(grid)
        assert [p.chi2 for p in enumerate_plans(2, step)[1:]] == grid
        for lo, hi in ((0.3, 1.7), (0.5, 0.5), (1.1, 2.0), (0.05, 0.95)):
            grid = [g for g in (round(lo + i * step, 12)
                                for i in range(round((hi - lo) / step) + 2)) if g <= hi]
            assert _chi_grid_size(step, lo, hi) == len(grid), (lo, hi)
            assert _chi_grid(step, lo, hi) == grid, (lo, hi)

    @pytest.mark.parametrize("call", [lambda: optimize(1, 0.6, 0.1),
                                      lambda: enumerate_plans(3, 0.1)],
                             ids=["optimize", "enumerate_plans"])
    def test_chi_grid_beyond_budget_is_refused(self, monkeypatch, call):
        # One plan, or 22, pass the work guard; the grid's 21 points do not.
        from lossyphase import optimizer
        from lossyphase.sequences import BranchGuardError
        monkeypatch.setattr(optimizer, "PLAN_BUDGET", 10)
        with pytest.raises(BranchGuardError,
                           match=r"^21 chi points exceed the work guard 10 at chi step 0\.1$"):
            call()

    def test_integer_step_and_eta_search_as_floats(self):
        # The plans and the result hold the floats the checks return.
        def untimed(result):
            doc = result.to_json_dict()
            for row in doc["pareto_table"]:
                row["report"]["wall_time_ms"] = 0.0
            return json.dumps(doc)

        ints, floats = optimize(2, 1, 1), optimize(2, 1.0, 1.0)
        assert pareto_csv(ints) == pareto_csv(floats)
        assert untimed(ints) == untimed(floats)

    def test_work_guard_names_the_step_as_a_float(self):
        from lossyphase.sequences import BranchGuardError
        with pytest.raises(BranchGuardError, match=r"--chi-step 1e-09$"):
            optimize(3, 0.6, np.float64(1e-9))


class TestSqlBaseline:
    def test_single_photon_value(self):
        assert sql_baseline(1, 0.6) == pytest.approx(
            4.0 / 0.36 - 1.0, abs=1e-9
        )

    def test_invalid_photon_count(self):
        with pytest.raises(ValueError):
            sql_baseline(0, 0.6)

    def test_non_integer_photon_count_is_named(self):
        with pytest.raises(ValueError, match="total_photons must be an integer, got 2.5"):
            sql_baseline(2.5, 0.6)


def test_pareto_csv_format():
    res = optimize(2, 0.9, chi_grid_step=1.0)
    text = pareto_csv(res)
    lines = text.strip().split("\n")
    assert lines[0] == PARETO_CSV_HEADER
    assert lines[0] == "n1,n2,chi2,n4,chi4,eta,mu,holevo_variance,branches,method"
    assert len(lines) == 1 + len(res.pareto_table)
    first = lines[1].split(",")
    assert first[0] == "2" and first[-1] == "exact_with_speedup"


def test_json_dict_shape():
    res = optimize(2, 0.9, chi_grid_step=1.0)
    doc = res.to_json_dict()
    assert doc["total_photons"] == 2
    assert set(doc["best_plan"]) == {"n1", "n2", "chi2", "n4", "chi4", "eta"}
    assert len(doc["pareto_table"]) == len(res.pareto_table)
    assert math.isfinite(doc["best_variance"])
