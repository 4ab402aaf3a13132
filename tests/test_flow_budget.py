"""Flow work per solve of each catalog example, at the epsilon the
acceptance tests use, and of example 2 at the ``deep`` workload's 1e-4.

Each case pins the total Euler steps of its ``solve_flow`` calls, allowing
25 % above the count measured when the budget was set, and the number of
flows that did not end ``Converged``, allowing none above it.  No benchmark
workload holds example 5, so without this its flow steps went 396 -> 3,454
in one change unnoticed.
"""

import pytest

from svbilevel import bnb, catalog
from svbilevel import neurodynamic as nd

STEP_SLACK = 1.25

# (example, epsilon, Euler steps, unconverged flows), as measured when
# the budget was set
BUDGETS = [
    (1, 1e-5, 301, 0),
    (2, 1e-2, 284, 0),
    (3, 1e-2, 73, 0),
    (4, 1e-2, 112, 0),
    (5, 1e-2, 3454, 1),
    (6, 1e-2, 125, 0),
    (2, 1e-4, 804, 2),
]


@pytest.mark.parametrize("number,epsilon,steps,unconverged", BUDGETS)
def test_flow_work_within_budget(number, epsilon, steps, unconverged,
                                 monkeypatch):
    results = []
    solve_flow = nd.solve_flow

    def counted(*args, **kwargs):
        res = solve_flow(*args, **kwargs)
        results.append(res)
        return res

    monkeypatch.setattr(nd, "solve_flow", counted)
    bnb.solve(catalog.load_example(number), bnb.SolverConfig(epsilon=epsilon))
    got_steps = sum(res.steps for res in results)
    got_unconverged = sum(res.status is not nd.FlowStatus.CONVERGED
                          for res in results)
    assert got_steps <= STEP_SLACK * steps, (got_steps, steps)
    assert got_unconverged <= unconverged
