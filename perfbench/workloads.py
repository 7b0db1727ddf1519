"""The four benchmark workloads: inputs, timed operations and checks.

Each workload turns (seed, pass index) into inputs, runs its operations
through lossyphase's module attributes (so the tracer's wrappers see them),
times every operation with `Clock`, and checks every output against the
committed reference data and against independent witnesses.  Checks run
outside the timed operations.  See README.md for why each workload exists.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from lossyphase import cli, detection, feedback, fisher, posterior, sequences, states
from lossyphase.sequences import SequencePlan

ETA = 0.6
CHI_GRID = tuple(round(1.0 + 0.1 * i, 1) for i in range(11))
N13_SPLITS = tuple(
    (13 - 2 * n2 - 4 * n4, n2, n4)
    for n4 in range(4) for n2 in range((13 - 4 * n4) // 2 + 1)
)
EXACT_LEAF_CAP = 3 * 10 ** 5
MC_TRIALS = 16384
N30_ROW = SequencePlan(n1=2, n2=2, chi2=1.8, n4=6, chi4=1.3, eta=ETA)
N30_SQL = SequencePlan(n1=30, eta=ETA)
OPTIMIZE_ARGV = ("optimize", "--n", "9", "--eta", "0.6", "--chi-step", "0.1")
OPTIMIZE_WITNESSES = 8
TRAJECTORIES = 500
# Demo 03's sequence: five single photons, one two-photon and one
# four-photon chi state.
TRAJECTORY_STAGES = ((1, 0.0),) * 5 + ((2, 1.7), (4, 1.3))
FISHER_SCAN_POINTS = 64


def plan_key(plan: SequencePlan) -> str:
    return f"{plan.n1},{plan.n2},{plan.chi2!r},{plan.n4},{plan.chi4!r}"


def pass_rng(seed: int, pass_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, pass_index])


class Clock:
    """Times program calls; the tracer records spans and the speed probe
    samples only inside them, and the probe's own time is not counted."""

    def __init__(self, tracer=None, probe=None):
        self.tracer = tracer
        self.probe = probe
        self.total = 0.0

    def _enable(self, on: bool) -> None:
        if self.tracer is not None:
            self.tracer.enabled = on
        if self.probe is not None:
            self.probe.active = on

    def _since(self, t0: float, spent0: float) -> float:
        spent = self.probe.spent - spent0 if self.probe is not None else 0.0
        return time.perf_counter() - t0 - spent

    def call(self, fn, *args, **kwargs):
        """(fn's result, seconds); the time is counted even when fn raises."""
        self._enable(True)
        spent0 = self.probe.spent if self.probe is not None else 0.0
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs), self._since(t0, spent0)
        finally:
            self.total += self._since(t0, spent0)
            self._enable(False)


@dataclass
class PassResult:
    """What one pass over a workload's operations produced."""

    wall_s: float = 0.0
    work: float = 0.0  # the workload's unit of work: plans, leaves, ...
    work_s: float = 0.0  # time spent on that work
    op_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    info: dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> bool:
        """Counts one checked operation; a miss is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def _close(a: float, b: float, tol: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol


class Workload:
    name = ""
    unit = ""
    pass_s = 1.0  # a pass's length at the baseline; sets the pass count
    kernel = "small"  # speed.py's kernel most like the inner loop

    def __init__(self, seed: int, reference: dict, scratch_dir: str):
        self.seed = seed
        self.ref = reference
        self.scratch_dir = scratch_dir

    def inputs(self, pass_index: int):
        raise NotImplementedError

    def run_pass(self, pass_index: int, clock: Clock) -> PassResult:
        raise NotImplementedError


class OptimizeN9(Workload):
    """`lossyphase optimize --n 9` in-process, artifact in a temp dir."""

    name = "optimize-n9"
    unit = "plans"
    pass_s = 23.0

    def inputs(self, pass_index):
        n_plans = len(self.ref["optimize_n9"]["pareto"])
        return sorted(pass_rng(self.seed, pass_index).choice(
            n_plans, OPTIMIZE_WITNESSES, replace=False).tolist())

    def run_pass(self, pass_index, clock):
        witnesses = self.inputs(pass_index)
        ref = self.ref["optimize_n9"]
        res = PassResult()
        out_dir = tempfile.mkdtemp(dir=self.scratch_dir)
        try:
            path = f"{out_dir}/optimize.json"
            t_before = clock.total
            try:
                rc, _ = clock.call(cli.main, [*OPTIMIZE_ARGV, "--output", path])
            finally:
                res.wall_s = clock.total - t_before
            with open(path) as fh:
                doc = json.load(fh)
            with open(path + ".csv") as fh:
                csv_lines = fh.read().splitlines()
        finally:
            shutil.rmtree(out_dir)
        result = doc["result"]
        rows = result["pareto_table"]
        res.work, res.work_s = len(rows), res.wall_s
        res.check(rc == 0 and len(rows) == len(ref["pareto"])
                  and csv_lines[1].startswith("n1,n2,chi2")
                  and len(csv_lines) == len(rows) + 2, "artifact")
        for row, expect in zip(rows, ref["pareto"]):
            p, r = row["plan"], row["report"]
            vh = float(r["holevo_variance"])
            res.op_ms.append(r["wall_time_ms"])
            res.check([p["n1"], p["n2"], p["chi2"], p["n4"], p["chi4"]]
                      == expect[:5] and _close(vh, float(expect[5]), 1e-12),
                      f"pareto row {expect[:5]}")
        best = result["best_plan"]
        res.check([best["n1"], best["n2"], best["chi2"], best["n4"]]
                  == ref["best_plan"][:4], f"best plan {best}")
        res.check(_close(result["sql_baseline"], ref["sql_baseline"], 1e-12)
                  and result["sql_baseline"] > float(result["best_variance"]),
                  "SQL baseline")
        # Witness: the unmerged tree walk must give the same mu.
        for i in witnesses:
            p, r = rows[i]["plan"], rows[i]["report"]
            plan = SequencePlan(**p)
            exact = sequences.evaluate_exact(plan)
            res.check(abs(exact.mu - r["mu"]) <= 1e-12
                      and exact.branches_evaluated == plan.exact_leaf_count(),
                      f"exact witness {plan_key(plan)}")
        return res


class EvaluateN13(Workload):
    """All 16 splits of N=13 with the speedup, and the small ones exactly."""

    name = "evaluate-n13"
    unit = "leaves"
    pass_s = 10.0
    kernel = "wide"

    def inputs(self, pass_index):
        rng = pass_rng(self.seed, pass_index)
        plans = []
        for n1, n2, n4 in N13_SPLITS:
            chi2 = CHI_GRID[rng.integers(len(CHI_GRID))] if n2 else 0.0
            chi4 = CHI_GRID[rng.integers(len(CHI_GRID))] if n4 else 0.0
            plans.append(SequencePlan(n1, n2, chi2, n4, chi4, ETA))
        return plans

    def run_pass(self, pass_index, clock):
        res = PassResult()
        ref = self.ref["evaluate_n13_mu"]
        for plan in self.inputs(pass_index):
            key = plan_key(plan)
            fast, dt = clock.call(sequences.evaluate_exact_with_speedup, plan)
            res.op_ms.append(dt * 1e3)
            res.work += fast.branches_evaluated
            res.work_s += dt
            res.check(fast.branches_evaluated == plan.speedup_leaf_count()
                      and abs(fast.mu - ref[key]) <= 1e-12, f"speedup {key}")
            if plan.exact_leaf_count() > EXACT_LEAF_CAP:
                continue
            exact, dt = clock.call(sequences.evaluate_exact, plan)
            res.op_ms.append(dt * 1e3)
            res.work += exact.branches_evaluated
            res.work_s += dt
            # Witness: the binomial-speedup identity.
            res.check(exact.branches_evaluated == plan.exact_leaf_count()
                      and abs(exact.mu - fast.mu) <= 1e-12, f"exact {key}")
        res.wall_s = res.work_s
        return res


class MonteCarloN30(Workload):
    """One 16,384-trial chunk on the paper's N=30 row and on its SQL row."""

    name = "montecarlo-n30"
    unit = "trials"
    pass_s = 10.0
    kernel = "wide"

    def inputs(self, pass_index):
        seeds = pass_rng(self.seed, pass_index).integers(0, 2 ** 31, 2)
        return [(N30_ROW, int(seeds[0])), (N30_SQL, int(seeds[1]))]

    def run_pass(self, pass_index, clock):
        res = PassResult()
        reports = []
        for plan, rng_seed in self.inputs(pass_index):
            rep, dt = clock.call(sequences.evaluate_monte_carlo, plan,
                                 MC_TRIALS, rng_seed)
            res.op_ms.append(dt * 1e3)
            res.work += rep.branches_evaluated
            res.work_s += dt
            reports.append((rep, dt))
        res.wall_s = res.work_s
        (row, row_s), (sql, _) = reports
        for key, rep in (("n30_row", row), ("n30_sql", sql)):
            ref = self.ref["montecarlo_n30"][key]
            sigma = math.hypot(rep.mc_std_error, ref["std_error"])
            res.check(rep.branches_evaluated == MC_TRIALS
                      and abs(rep.mu - ref["mu"]) <= 4.0 * sigma,
                      f"{key} mu {rep.mu} vs reference {ref['mu']}")
        # Witness: the paper's claim that the row beats the SQL.
        res.check(row.mu > sql.mu, f"N=30 row {row.mu} vs SQL {sql.mu}")
        res.info["n30_std_error"] = row.mc_std_error
        res.info["mc_s_at_se_1e-4"] = row_s * (row.mc_std_error / 1e-4) ** 2
        return res


class ScalarApi(Workload):
    """Fisher maxima plus seeded adaptive trajectories via the scalar API."""

    name = "scalar-api"
    unit = "trajectories"
    pass_s = 12.5

    def inputs(self, pass_index):
        rng = pass_rng(self.seed, pass_index)
        phis = rng.uniform(0.0, 2.0 * math.pi, TRAJECTORIES)
        picks = rng.random((TRAJECTORIES, len(TRAJECTORY_STAGES)))
        return phis, picks

    def run_pass(self, pass_index, clock):
        phis, picks = self.inputs(pass_index)
        res = PassResult()
        t_before = clock.total
        self._fisher(clock, res)
        res.info["fisher_s"] = clock.total - t_before

        tables = []
        for n_photons, chi in TRAJECTORY_STAGES:
            table, _ = clock.call(_stage_table, n_photons, chi)
            tables.append((n_photons, table))
        for phi, u in zip(phis, picks):
            try:
                record, dt = clock.call(_trajectory, tables, phi, u)
            except (ValueError, ArithmeticError) as exc:
                res.check(False, f"trajectory phi={phi}: {exc}")
                continue
            res.op_ms.append(dt * 1e3)
            res.work += 1
            res.work_s += dt
            res.check(all(_trajectory_step_ok(*step) for step in record),
                      f"trajectory phi={phi}")
        res.wall_s = clock.total - t_before
        return res

    def _fisher(self, clock, res):
        ref = self.ref["fisher"]
        best = {}
        for key, fn, args in (
            ("chi_n2", fisher.max_fisher_over_chi, (2, ETA)),
            ("chi_n4", fisher.max_fisher_over_chi, (4, ETA)),
            ("optimal4", fisher.max_fisher_exact_optimal4, (ETA,)),
        ):
            out, _ = clock.call(fn, *args)
            best[key] = out
            res.check(abs(out[-1] - ref[key][-1]) <= 1e-6 * ref[key][-1],
                      f"Fisher maximum {key}: {out} vs {ref[key]}")
        # Witness: the larger family contains the chi family.
        res.check(best["optimal4"][-1] >= best["chi_n4"][-1] - 1e-9,
                  "optimal4 family containment")
        # Witness: a phase scan through the per-point Fisher information,
        # which shares no code with the grid used by the maximizers.
        phis = 2.0 * math.pi * (np.arange(FISHER_SCAN_POINTS) + 0.37) \
            / FISHER_SCAN_POINTS
        for key, n_photons in (("chi_n2", 2), ("chi_n4", 4)):
            chi, f_max = best[key]
            state = states.make_loss_resistant(n_photons // 2, chi)
            scan, _ = clock.call(
                lambda: [fisher.fisher_information(state, ETA, p, 0.0)
                         for p in phis])
            res.check(0.9 * f_max <= max(scan) <= f_max * (1.0 + 1e-9),
                      f"Fisher phase scan {key}: {max(scan)} vs {f_max}")


def _stage_table(n_photons, chi):
    state = (states.make_single_photon() if n_photons == 1
             else states.make_loss_resistant(n_photons // 2, chi))
    return detection.build_likelihood_table(state, ETA)


def _trajectory(tables, phi, u):
    """One adaptive run from a flat prior; outcomes drawn by inverse CDF."""
    post = posterior.flat_prior()
    record = []
    for (n_photons, table), draw in zip(tables, u):
        if n_photons == 1:
            theta = feedback.optimal_theta_single_photon(post)
        else:
            theta = feedback.optimal_theta_numeric(post, table)
        outcomes = table.outcomes
        probs = [detection.evaluate_outcome(table, o, phi, theta)
                 for o in outcomes]
        total = sum(probs)
        acc, pick = 0.0, len(probs) - 1
        for i, p in enumerate(probs):
            acc += p
            if draw * total < acc:
                pick = i
                break
        post = posterior.bayes_update(post, table, outcomes[pick], theta)
        record.append((theta, total, post))
    return record


def _trajectory_step_ok(theta, prob_total, post) -> bool:
    return (0.0 <= theta < 2.0 * math.pi
            and abs(prob_total - 1.0) <= 1e-9
            and abs(post.coefficient(0) - 1.0) <= 1e-12
            and post.hermitian_defect() <= 1e-12)


WORKLOADS = {w.name: w for w in (OptimizeN9, EvaluateN13, MonteCarloN30,
                                  ScalarApi)}
