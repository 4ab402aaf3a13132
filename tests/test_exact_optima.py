"""The catalog's exact optima h*, each with its derivation.

A solve at epsilon must end within epsilon (1 + |h*|) of h*.  Where the
solver does not yet manage that, the test is a strict expected failure
that names the cause.
"""

import math

import numpy as np
import pytest

from svbilevel import bnb, catalog
from svbilevel import neurodynamic as nd

# Example 1: f1 and f2 are convex and X is convex, so a point is weakly
# efficient when no feasible direction lowers both objectives.  Near the
# optimum the weakly efficient set is the edge x1 + x2 = 1.5 for x1 <= s,
# then the kink line of f2, -0.5 x1 - 0.25 x2 - 0.2 = -2 x1 + 4.6 x2 - 5.8,
# that is 1.5 x1 - 4.85 x2 + 5.6 = 0, inside X.  h = x1 + x2^2 falls along
# the edge and rises along the kink line, so h* is where the two meet: with
# x2 = 1.5 - x1 the kink line reads 6.35 x1 - 1.675 = 0.
S1 = 1.675 / 6.35
X1 = (S1, 1.5 - S1)
H1 = S1 + (1.5 - S1) ** 2

# Example 2: grad f2 = 0 at (1, 2 sqrt 2 - 1): d/dx1 is (2 x1 - 2) / (x2 + 1),
# zero at x1 = 1, and there d/dx2 is zero where x2^2 + 2 x2 - 7 = 0.  So the
# point minimizes the pseudoconvex f2 over X and is weakly efficient.  f1 is
# decreasing in 3 x1 + x2, so on the edge x1 = 1 both f1 and f2 fall as x2
# rises up to 2 sqrt 2 - 1, and h, increasing in x1 and in x2, rises with
# it.  A grid over X filtered for nondominated points gives the same least
# h.  With x = (1, 2 sqrt 2 - 1), h = (6 sqrt 2 - 1) / (9 + 10 sqrt 2).
X2 = (1.0, 2.0 * math.sqrt(2.0) - 1.0)
H2 = (6.0 * math.sqrt(2.0) - 1.0) / (9.0 + 10.0 * math.sqrt(2.0))

# Example 3: X lies in x >= 0, and there
#   h - 1.1 = (1.9 x1 + 0.9 x2 + 8.9 x3) / (x1 + x2 + x3 + 10) >= 0,
# with equality only at x = 0, which X contains.  And
#   f1 - 1 = (2 x1 + 2 x2) / (3 x2 + 3 x3 + 10) >= 0,
# with equality only where x1 = x2 = 0.  So 0 minimizes f1 over X, no point
# of X has every f_j below f_j(0), and 0 is weakly efficient: h* = 1.1.
X3 = (0.0, 0.0, 0.0)
H3 = 1.1

# Example 4: f = (x1, x2), so the weakly efficient points of G (X cut by
# the disc x1^2 + x2^2 <= 0.81) are the segment x1 + x2 = -1 inside the
# disc; the edges x1 = -1 and x2 = -1 lie outside it.  h = x1 - 0.9 is
# least at the segment's end with the smallest x1, the root of
# 2 x1^2 + 2 x1 + 0.19 = 0: x1 = (-1 - sqrt 0.62) / 2.
X4 = ((-1.0 - math.sqrt(0.62)) / 2.0, (-1.0 + math.sqrt(0.62)) / 2.0)
H4 = -0.9 - (1.0 + math.sqrt(0.62)) / 2.0

# Example 5: f1 = |x|^2 and f2 = |x - e1 / 2|^2 are strictly convex with
# minimizers 0 and e1 / 2 inside the box, so the weakly efficient set is
# the segment between them, x1 in [0, 0.5] and every other x_i = 0.  There
# h = (x1 - 1)^2 + 0.25 is least at x1 = 0.5.
X5 = (0.5,) + (0.0,) * 13
H5 = 0.5

EXACT = {1: (X1, H1), 2: (X2, H2), 3: (X3, H3), 4: (X4, H4),
         5: (X5, H5)}


def solve(number, epsilon):
    return bnb.solve(catalog.load_example(number),
                     bnb.SolverConfig(epsilon=epsilon))


def within(report, h_star, epsilon):
    return abs(report.incumbent.h - h_star) <= epsilon * (1.0 + abs(h_star))


@pytest.mark.parametrize("number, value", [
    (1, 1.7920206), (2, 0.3234482), (3, 1.1), (4, -1.7937004), (5, 0.5)])
def test_the_exact_point_is_feasible_and_attains_h_star(number, value):
    problem = catalog.load_example(number)
    x, h_star = EXACT[number]
    x = np.array(x)
    assert max(problem.x_region().evaluate(x)[0]) <= 1e-12
    assert all(g.value(x) <= 1e-12 for g in problem.coupling)
    assert problem.upper.value(x) == pytest.approx(h_star, abs=1e-12)
    assert h_star == pytest.approx(value, abs=5e-8)


@pytest.mark.parametrize("number", [2, 3, 4, 5])
def test_within_epsilon_of_h_star_at_the_acceptance_epsilon(number):
    report = solve(number, 1e-2)
    assert report.status is bnb.SolverStatus.OPTIMAL
    assert within(report, EXACT[number][1], 1e-2)


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="the solver ends at h 1.7925411 with beta 1.7925135 above h*: "
           "find_feasible reports three feasible MP(z) of example 1 "
           "infeasible, so their vertices are dropped")
def test_example1_within_epsilon_of_h_star():
    report = solve(1, 1e-5)
    assert report.status is bnb.SolverStatus.OPTIMAL
    assert report.beta <= H1 + 1e-9
    assert within(report, H1, 1e-5)


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="the solver ends at h 0.3232387, 2.1e-4 below h*: the face "
           "probe's incumbent (1, 1.8249243) sits 4.4e-6 above m_2 and is "
           "strictly dominated, outside epsilon (1 + |h*|) = 1.3e-4")
def test_example2_within_epsilon_of_h_star_at_1e_4():
    report = solve(2, 1e-4)
    assert report.status is bnb.SolverStatus.OPTIMAL
    assert within(report, H2, 1e-4)


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="MP and ray flows that end Unconverged still feed the bounds: "
           "with the box flows run in full and MAX_STEPS 10 after them, 15 "
           "of example 1's 31 flows after the box end Unconverged, and the "
           "solve reports optimal with h = beta = 1.8919018, 0.0999 above "
           "h*")
def test_a_step_cap_short_of_convergence_does_not_certify_example1(
        monkeypatch):
    # the box flows must converge, else compute_box raises before the
    # bounds are built; the cap holds for every flow after them
    compute_box = bnb.compute_box

    def capped_after(*args, **kwargs):
        box = compute_box(*args, **kwargs)
        monkeypatch.setattr(nd, "MAX_STEPS", 10)
        return box

    monkeypatch.setattr(bnb, "compute_box", capped_after)
    report = bnb.solve(catalog.load_example(1),
                       bnb.SolverConfig(epsilon=1e-5))
    assert (report.status is not bnb.SolverStatus.OPTIMAL
            or report.beta <= H1 + 1e-9)
