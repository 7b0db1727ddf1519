"""Arguments from outside the package are checked one way.

`states._require_integer` and `states._require_real` are the two checks:
a bool is neither an integer nor a number, a string is no number, and
every refusal is a ValueError that names the argument.  The table below
holds calls that each module once checked by a rule of its own, so they
ran, raised a bare TypeError or failed deep inside a kernel.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from lossyphase import fisher, optimizer
from lossyphase.detection import build_likelihood_table, evaluate_outcome
from lossyphase.feedback import expected_sharpness
from lossyphase.posterior import bayes_update, flat_prior
from lossyphase.sequences import SequencePlan
from lossyphase.states import (
    TriPortConfig,
    TwoModeState,
    make_exact_optimal4,
    make_loss_resistant,
    make_single_photon,
    synthesize_triport,
)

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lossyphase"

STATE = make_loss_resistant(1, 0.8)
TABLE = build_likelihood_table(make_single_photon(), 0.6)
PRIOR = flat_prior()

# id: (call, the argument its error must name)
CALLS = {
    "optimize-eta-bool": (lambda: optimizer.optimize(2, True), "eta"),
    "fisher-eta-bool": (lambda: fisher.fisher_information(STATE, True, 0.3, 0.0), "eta"),
    "max-fisher-eta-bool": (lambda: fisher.max_fisher_over_chi(2, True), "eta"),
    "enumerate-step-bool": (lambda: optimizer.enumerate_plans(4, True, 0.6),
                            "chi_grid_step"),
    "plan-chi2-bool": (lambda: SequencePlan(1, 1, True), "chi2"),
    "triport-chi-bool": (lambda: synthesize_triport(True), "chi"),
    "optimal4-chi1p-bool": (lambda: make_exact_optimal4(True, 1.0), "chi1p"),
    "bayes-theta-bool": (lambda: bayes_update(PRIOR, TABLE, (0, 0), True), "theta"),
    "state-photons-bool": (lambda: TwoModeState(True, [1, 1]), "n_photons"),
    "chi-string": (lambda: make_loss_resistant(1, "1.5"), "chi"),
    "plan-eta-string": (lambda: SequencePlan(1, eta="0.5"), "eta"),
    "sharpness-theta-string": (lambda: expected_sharpness(PRIOR, TABLE, "0"), "theta"),
    "optimize-step-string": (lambda: optimizer.optimize(2, 0.6, "0.5"), "chi_grid_step"),
    "table-photons-float": (
        lambda: build_likelihood_table(TwoModeState(2.0, [1, 1, 1]), 0.6), "n_photons"),
    "outcome-phi-bool": (lambda: evaluate_outcome(TABLE, (0, 0), True, 0.0), "phi"),
    "outcome-theta-bool": (lambda: evaluate_outcome(TABLE, (0, 0), 0.3, True), "theta"),
    "outcome-phi-string": (lambda: evaluate_outcome(TABLE, (0, 0), "0.3", 0.0), "phi"),
    "outcome-theta-string": (lambda: evaluate_outcome(TABLE, (0, 0), 0.3, "0"), "theta"),
    "triport-phi1-bool": (lambda: TriPortConfig(0.5, 0.5, 0.5, True, 0.0), "phi1"),
    "triport-phi2-string": (lambda: TriPortConfig(0.5, 0.5, 0.5, 0.0, "x"), "phi2"),
    "triport-phi1-nan": (lambda: TriPortConfig(0.5, 0.5, 0.5, float("nan"), 0.0),
                         "phi1"),
    "triport-phi2-inf": (lambda: TriPortConfig(0.5, 0.5, 0.5, 0.0, -math.inf), "phi2"),
}


@pytest.mark.parametrize("call, name", CALLS.values(), ids=CALLS.keys())
def test_outside_input_fails_naming_its_argument(call, name):
    with pytest.raises(ValueError, match=rf"^{name}[ =]"):
        call()


def test_plan_holds_the_floats_its_checks_return():
    plan = SequencePlan(1, 1, 1, 1, 1, 1)
    assert [type(v) for v in (plan.chi2, plan.chi4, plan.eta)] == [float] * 3


def test_triport_holds_the_floats_its_checks_return():
    config = TriPortConfig(1, 0, np.float64(0.5), 2, np.int64(-1))
    assert [type(v) for v in vars(config).values()] == [float] * 5
    assert vars(config) == {"r1": 1.0, "r2": 0.0, "r3": 0.5, "phi1": 2.0, "phi2": -1.0}


def bool_checks(tree):
    """Lines of isinstance(..., bool) and isinstance(..., (..., bool, ...))."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            kinds = node.args[1]
            kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            if any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds):
                lines.append(node.lineno)
    return lines


def test_bool_rule_lives_in_states_and_cli():
    # cli._resolve casts config values itself, so it keeps its own rule.
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             if path.name not in ("states.py", "cli.py")
             for line in bool_checks(ast.parse(path.read_text(), str(path)))]
    assert found == []
    assert bool_checks(ast.parse((PACKAGE / "states.py").read_text()))


def finiteness_checks(tree):
    """Lines of math.isfinite(...)."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "isfinite" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "math"]


def test_finiteness_rule_lives_in_states_and_cli():
    # A scalar from outside goes through states._require_real; cli._resolve
    # casts config values itself, so it keeps its own rule.
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             if path.name not in ("states.py", "cli.py")
             for line in finiteness_checks(ast.parse(path.read_text(), str(path)))]
    assert found == []
    assert finiteness_checks(ast.parse((PACKAGE / "states.py").read_text()))


def chi_roundings(tree):
    """Lines of round(..., 12), the rounding of every chi grid point."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "round"
            and any(isinstance(a, ast.Constant) and a.value == 12
                    for a in node.args[1:] + [k.value for k in node.keywords])]


def test_chi_grid_rule_lives_in_optimizer():
    # optimize and fisher-scan count and build their chi points through
    # optimizer._chi_grid_size and optimizer._chi_grid, against one budget,
    # optimizer.PLAN_BUDGET: the CLI neither counts nor holds a budget.
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "optimizer.py"
             for line in chi_roundings(ast.parse(path.read_text(), str(path)))]
    assert found == []
    assert chi_roundings(ast.parse((PACKAGE / "optimizer.py").read_text()))
    cli = list(ast.walk(ast.parse((PACKAGE / "cli.py").read_text())))
    names = {getattr(node, key) for node in cli for key in ("id", "attr", "name")
             if isinstance(getattr(node, key, None), str)}
    assert "_chi_grid_size" not in names
    assert [node.id for node in cli if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Store) and node.id.endswith("_BUDGET")] == []
