"""Flow work per solve of each catalog example, at the epsilon the
acceptance tests use, of example 2 at the ``deep`` workload's 1e-4, and of
the ball(n) family.

Each budget case pins the total Euler steps of its ``solve_flow`` calls,
allowing 20 % above the count measured when the budget was set, and the
number of flows that did not end ``Converged``, allowing none above it.
At 20 % example 2 at 1e-4 fails with the 765 steps it took before its
child rays started at their parents' ray end points (616 since).  No
benchmark workload holds example 5, so without this its flow steps went
396 -> 3,454 in one change unnoticed.

ball(n) is example 5 in n variables: lower objectives |x|^2 and
|x - e_1/2|^2, upper |x - e_1|^2 + 1/4, the box [-1, 2]^n.  Its weakly
efficient set is the segment [0, e_1/2], so h* = 0.5 at every n.  ball3 is
the ``crawl`` workload's member and example 5 is ball(14); at n = 2, 5 and
8 a ray flow whose objective is steep (a direction component floored at
1e-6 of the box) once ran to ``MAX_STEPS``, 10-14 s a solve, and at n = 2
an MP flow once crawled 9,360 steps along its curved row, held just under
``ZERO_BAND`` by a polish that pulled the row below its own level.
"""

import pytest

from svbilevel import bnb, catalog
from svbilevel import neurodynamic as nd
from svbilevel.problem import load_problem

from flow_dump import BALL3

STEP_SLACK = 1.2

# ball(n) at n = 2, 5 and 8: no flow may take more steps than this
BALL_FLOW_STEPS = 2_000


def ball_text(n: int) -> str:
    """The problem text of ball(n)."""
    rest = "".join(f" + x{k}^2" for k in range(2, n + 1))
    lines = [f"vars x {n}",
             f"upper (x1 - 1)^2{rest} + 0.25",
             f"lower x1^2{rest}",
             f"lower (x1 - 0.5)^2{rest}"]
    lines += [f"bound x{k} -1 2" for k in range(1, n + 1)]
    return "\n".join(lines) + "\n"


def solve_counted(problem, epsilon, monkeypatch):
    """(report, the FlowResult of every ``solve_flow`` call of the solve)."""
    results = []
    solve_flow = nd.solve_flow

    def counted(*args, **kwargs):
        res = solve_flow(*args, **kwargs)
        results.append(res)
        return res

    monkeypatch.setattr(nd, "solve_flow", counted)
    report = bnb.solve(problem, bnb.SolverConfig(epsilon=epsilon))
    return report, results


# (example, epsilon, Euler steps, unconverged flows); "ball3" is ball(3).
# Each id keeps the case's name from when its budget was first set; the
# steps of 1, 2, 5, ball3 and 2 at 1e-4 were pinned again when each
# child's ray began to start at its parent's ray end point (deep 765 -> 616)
BUDGETS = [
    pytest.param(1, 1e-5, 291, 0, id="1-1e-05-301-0"),
    pytest.param(2, 1e-2, 261, 0, id="2-0.01-284-0"),
    pytest.param(3, 1e-2, 73, 0, id="3-0.01-73-0"),
    pytest.param(4, 1e-2, 112, 0, id="4-0.01-112-0"),
    pytest.param(5, 1e-2, 339, 0, id="5-0.01-350-0"),
    pytest.param(6, 1e-2, 125, 0, id="6-0.01-125-0"),
    pytest.param(2, 1e-4, 616, 0, id="2-0.0001-765-0"),
    pytest.param("ball3", 1e-2, 192, 0, id="ball3-0.01-201-0"),
]


@pytest.mark.parametrize("number,epsilon,steps,unconverged", BUDGETS)
def test_flow_work_within_budget(number, epsilon, steps, unconverged,
                                 monkeypatch):
    problem = (load_problem(ball_text(3)) if number == "ball3"
               else catalog.load_example(number))
    _, results = solve_counted(problem, epsilon, monkeypatch)
    got_steps = sum(res.steps for res in results)
    got_unconverged = sum(res.status is not nd.FlowStatus.CONVERGED
                          for res in results)
    assert got_steps <= STEP_SLACK * steps, (got_steps, steps)
    assert got_unconverged <= unconverged
    # the contract incumbents rest on: a converged flow ends feasible
    assert all(res.penalty_residual <= nd.FEASIBILITY_TOL for res in results
               if res.status is nd.FlowStatus.CONVERGED)


def test_ball3_and_example5_are_members():
    assert ball_text(3) == BALL3
    # example 5's text less its comment line
    example5 = catalog.example_text(5).splitlines(keepends=True)[1:]
    assert ball_text(14) == "".join(example5)


@pytest.mark.parametrize("n", [2, 5, 8])
def test_ball_family_solves_without_a_crawl(n, monkeypatch):
    epsilon = 1e-2
    report, results = solve_counted(load_problem(ball_text(n)), epsilon,
                                    monkeypatch)
    assert report.status is bnb.SolverStatus.OPTIMAL
    assert abs(report.incumbent.h - 0.5) <= epsilon * (1.0 + 0.5)
    # far below MAX_STEPS, which the crawling flows reached
    steps = [res.steps for res in results]
    assert max(steps) <= BALL_FLOW_STEPS, steps
    assert all(res.status is nd.FlowStatus.CONVERGED for res in results)
