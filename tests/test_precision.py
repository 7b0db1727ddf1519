"""The exact walks against one walk at 40 significant digits.

The float walks have float witnesses only: the grid oracle integrates on
a 4,096-point grid and the leaf-summing reference repeats the same float
arithmetic.  Here every record of four plans is walked at 40 digits:
the 162 of (3, 1, 1.7, 0, 0, 0.6), the 45 of (1, 0, 0, 1, 1.3, 0.6), the
270 of (1, 1, 1.7, 1, 1.3, 0.6), those two through a four-photon stage, and
the 13,122 of the paper's N=9 row (7, 1, 1.7, 0, 0, 0.6).
The tables are summed from the float amplitude weights, and every Bayes
update and the last detection's expected sharpness are done in mpmath.  Each theta is the float feedback as the walk chooses it, read
off a float row updated beside the exact one, so the difference measures
the rounding of the updates and sums and not the feedback rule.
"""

import mpmath
import numpy as np
import pytest

from lossyphase import _engine, detection
from lossyphase.sequences import (
    SequencePlan,
    _plan_stages,
    evaluate_exact,
    evaluate_exact_with_speedup,
)
from lossyphase.states import make_loss_resistant, make_single_photon

# Each plan with its record count, 3^N1 6^N2 15^N4.
PLANS = {
    "3-1-1.7-0-0": (SequencePlan(n1=3, n2=1, chi2=1.7, eta=0.6), 162),
    "1-0-0-1-1.3": (SequencePlan(n1=1, n4=1, chi4=1.3, eta=0.6), 45),
    "1-1-1.7-1-1.3": (SequencePlan(n1=1, n2=1, chi2=1.7, n4=1, chi4=1.3, eta=0.6), 270),
    "7-1-1.7-0-0": (SequencePlan(n1=7, n2=1, chi2=1.7, eta=0.6), 13122),
}
DIGITS = 40


def mp_matrix(state, eta):
    """The likelihood matrix, c_d = pre sum_m sum_r w_r conj(w_{r+d}) per
    outcome, from the float weights of `_amplitude_weights` at 40 digits."""
    n = state.n_photons
    w = detection._amplitude_weights(state, eta)
    pre = detection._build_kernel(n).pre
    rows = []
    for o in range(w.shape[0]):
        row = [mpmath.mpc(0)] * (2 * n + 1)
        for m in range(w.shape[1]):
            amps = [mpmath.mpc(complex(a)) for a in w[o, m]]
            for r in range(n + 1):
                for s in range(n + 1):
                    row[n + s - r] += amps[r] * mpmath.conj(amps[s])
        rows.append([mpmath.mpf(float(pre[o])) * c for c in row])
    return rows


def mp_phases(theta, order):
    return [mpmath.expj(-d * mpmath.mpf(float(theta))) for d in range(-order, order + 1)]


def mp_child(coeffs, table_row, theta):
    """out_h = sum_d c[d] e^{-i d theta} a_{h+d}: the band widened by the order."""
    order = (len(table_row) - 1) // 2
    half = (len(coeffs) - 1) // 2
    phased = [c * p for c, p in zip(table_row, mp_phases(theta, order))]
    out = []
    for h in range(-half - order, half + order + 1):
        out.append(mpmath.fsum(phased[d + order] * coeffs[h + d + half]
                               for d in range(-order, order + 1)
                               if -half <= h + d <= half))
    return out


def mp_sharpness(coeffs, table, theta):
    """sum over outcomes of |sum_d c[d] e^{-i d theta} a_{1+d}|."""
    half = (len(coeffs) - 1) // 2
    total = mpmath.mpf(0)
    for table_row in table:
        order = (len(table_row) - 1) // 2
        phased = zip(range(-order, order + 1), table_row, mp_phases(theta, order))
        total += abs(mpmath.fsum(c * p * coeffs[1 + d + half]
                                 for d, c, p in phased if -half <= 1 + d <= half))
    return total


def mp_walk(plan):
    """The exact walk's sum at 40 digits, one record at a time, and the
    number of records it covers."""
    states = ([make_single_photon()] * plan.n1 + [make_loss_resistant(1, plan.chi2)] * plan.n2
              + [make_loss_resistant(2, plan.chi4)] * plan.n4)
    stages = [stage for stage in _plan_stages(plan) for _ in range(stage.count)]
    detections = [(stage, mp_matrix(state, plan.eta)) for stage, state in zip(stages, states)]
    total, records = mpmath.mpf(0), 0
    stack = [(np.ones((1, 1), dtype=complex), [mpmath.mpc(1)], 0)]
    while stack:
        row, coeffs, depth = stack.pop()
        stage, table = detections[depth]
        if depth == len(detections) - 1:
            theta = stage.feedback(row, stage.cmat, settle=True, sharpness=True)[0][0]
            total += mp_sharpness(coeffs, table, theta)
            records += len(table)
            continue
        theta = stage.feedback(row, stage.cmat)[0]
        children = _engine.advance_batch(row, stage.cmat, np.array([theta]))[0]
        for child, table_row in zip(children, table):
            stack.append((child[None], mp_child(coeffs, table_row, theta), depth + 1))
    return total, records


@pytest.fixture(scope="module", params=list(PLANS), ids=list(PLANS))
def walked(request):
    plan, records = PLANS[request.param]
    with mpmath.workdps(DIGITS):
        return plan, records, *mp_walk(plan)


def test_tables_match_the_float_build():
    with mpmath.workdps(DIGITS):
        for state in (make_single_photon(), make_loss_resistant(1, 1.7),
                      make_loss_resistant(2, 1.3)):
            want = detection.build_likelihood_table(state, 0.6).matrix
            got = np.array([[complex(c) for c in row] for row in mp_matrix(state, 0.6)])
            assert np.abs(got - want).max() <= 1e-15


def test_walk_covers_every_record(walked):
    plan, records, _, walked_records = walked
    assert walked_records == plan.exact_leaf_count() == records


@pytest.mark.parametrize("evaluator", [evaluate_exact, evaluate_exact_with_speedup],
                         ids=["exact", "speedup"])
def test_float_walk_within_bound_of_40_digits(walked, evaluator):
    # Measured |mu_float - mu_mp|, exact and speedup: 1.7e-16 and 5.3e-17
    # for (3, 1, 1.7), 1.45e-17 and 1.45e-17 for (1, 0, 0, 1, 1.3), 1.43e-16
    # and 3.2e-17 for (1, 1, 1.7, 1, 1.3), 4.4e-16 and 5.5e-16 for
    # (7, 1, 1.7); a few ulps of mu at most.
    plan, _, mu_mp, _ = walked
    assert 0.5 < mu_mp < 1.0
    assert abs(mpmath.mpf(evaluator(plan).mu) - mu_mp) <= 1e-15
