"""Answers that do not depend on units.

Multiplying each lower objective by c > 0 leaves the weakly efficient set,
and so h*, as it is; substituting x = x' / s changes only the units of x,
and h at the answer is h in the original units.  So a scaled copy of an
example must end within epsilon (1 + |h*|) of the h* of
``test_exact_optima``.  The solver's tolerances are absolute, and where a
scaled copy ends outside that, the test is a strict expected failure that
names the cause.
"""

import re

import numpy as np
import pytest

from svbilevel import bnb, catalog
from svbilevel.problem import load_problem

from test_exact_optima import EXACT

_EXPRESSION_LINE = re.compile(r"^(upper|lower|constraint_x|constraint_xy) ")


def scaled_text(number, f=1.0, x=1.0):
    """Example ``number`` with every lower objective multiplied by f and
    every x_k replaced by x_k / x, its bounds multiplied by x."""
    lines = []
    for line in catalog.example_text(number).replace("\\\n", "").splitlines():
        if _EXPRESSION_LINE.match(line):
            key, body = line.split(" ", 1)
            if x != 1.0:
                body = re.sub(r"\b(x\d+)\b", rf"(\1/{x!r})", body)
            if key == "lower" and f != 1.0:
                body = f"{f!r}*({body})"
            line = f"{key} {body}"
        elif line.startswith("bound "):
            _, name, lo, hi = line.split()
            line = f"bound {name} {float(lo) * x!r} {float(hi) * x!r}"
        lines.append(line)
    return "\n".join(lines) + "\n"


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
          (5, 100.0, 1.0), (5, 0.01, 1.0), (5, 1.0, 0.1)]


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
    assert max(problem.x_region().values(u)) <= 1e-12
    assert all(g.value(u) <= 1e-12 for g in problem.coupling)
    assert problem.upper.value(u) == pytest.approx(h_star, abs=1e-12)


@pytest.mark.parametrize("case", WITHIN, ids=_case_id)
def test_within_epsilon_of_h_star(case):
    number, f, x = case
    assert_within(solve_scaled(number, 1e-2, f, x), number, 1e-2)


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP items 11 and 15: the solve ends optimal with beta = h "
           "5.39e-4 above h*, where 2.79e-5 is allowed")
def test_example1_with_x_times_0_1_at_1e_5():
    assert_within(solve_scaled(1, 1e-5, x=0.1), 1, 1e-5)
