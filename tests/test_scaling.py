"""Answers that do not depend on units.

Multiplying each lower objective by c > 0 leaves the weakly efficient set,
and so h*, as it is; substituting x = x' / s changes only the units of x,
and h at the answer is h in the original units.  So a scaled copy of an
example must end within epsilon (1 + |h*|) of the h* of
``test_exact_optima``.  The solver's tolerances are absolute, and where a
scaled copy ends outside that, the test is a strict expected failure that
names the cause.  A scaled copy may also take at most twice the Euler
steps of its example, as ``test_flow_budget`` pins them: a flow that crawls
along a row whose scale changed shows there first, as example 5 with
f x 0.01 once did.
"""

import numpy as np
import pytest

from svbilevel import bnb
from svbilevel.problem import load_problem

from flow_dump import scaled_text
from test_exact_optima import EXACT
from test_flow_budget import BUDGETS, solve_counted


def solve_scaled(number, epsilon, f=1.0, x=1.0):
    return bnb.solve(load_problem(scaled_text(number, f, x)),
                     bnb.SolverConfig(epsilon=epsilon))


def assert_within(report, number, epsilon):
    h_star = EXACT[number][1]
    assert report.status is bnb.SolverStatus.OPTIMAL
    assert abs(report.incumbent.h - h_star) <= epsilon * (1.0 + abs(h_star))


# (example, f, x) of the copies that end within epsilon of h*
WITHIN = [(4, 0.01, 1.0), (4, 100.0, 1.0), (4, 1.0, 10.0), (4, 1.0, 0.1),
          (2, 1.0, 10.0), (2, 1.0, 0.1), (2, 0.01, 1.0),
          (5, 100.0, 1.0), (5, 0.01, 1.0), (5, 1.0, 0.1), (5, 1.0, 10.0)]


def _case_id(case):
    number, f, x = case
    return f"ex{number}-f*{f:g}-x*{x:g}"


@pytest.mark.parametrize("case", WITHIN + [(1, 1.0, 0.1)],
                         ids=_case_id)
def test_the_scaled_optimum_is_feasible_and_attains_h_star(case):
    number, f, x = case
    problem = load_problem(scaled_text(number, f, x))
    x_star, h_star = EXACT[number]
    u = np.array(x_star) * x
    assert max(problem.x_region().evaluate(u)[0]) <= 1e-12
    assert all(g.value(u) <= 1e-12 for g in problem.coupling)
    assert problem.upper.value(u) == pytest.approx(h_star, abs=1e-12)


# the Euler steps of each example's solve at epsilon 1e-2
UNSCALED_STEPS = {number: steps for number, epsilon, steps, _ in BUDGETS
                  if epsilon == 1e-2}


@pytest.mark.parametrize("case", WITHIN, ids=_case_id)
def test_within_epsilon_of_h_star(case, monkeypatch):
    number, f, x = case
    report, results = solve_counted(load_problem(scaled_text(number, f, x)),
                                    1e-2, monkeypatch)
    assert_within(report, number, 1e-2)
    steps = sum(res.steps for res in results)
    assert steps <= 2 * UNSCALED_STEPS[number], (steps, UNSCALED_STEPS[number])


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP items 11 and 15: the solve ends optimal with beta = h "
           "5.39e-4 above h*, where 2.79e-5 is allowed")
def test_example1_with_x_times_0_1_at_1e_5():
    assert_within(solve_scaled(1, 1e-5, x=0.1), 1, 1e-5)
