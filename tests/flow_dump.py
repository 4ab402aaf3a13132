"""Print one line for every flow a set of solves runs, to diff two versions.

Each ``neurodynamic.solve_flow`` call prints its status, its step count and
the hex of the bytes of its final point and objective value; each
``neurodynamic.find_feasible`` call prints the hex of the point it returns,
or ``none``.  Two checkouts whose dumps are equal ran the same flows to the
same bits.  The solves are examples 1 to 6 at the epsilons of
``test_acceptance.py`` (example 1 at 1e-5), example 2 at 1e-4, and
``ball3``, example 5 in 3 variables.

    python tests/flow_dump.py > dump.txt

The script imports ``svbilevel`` from the ``src`` next to its own
directory, so a copy of it placed in another checkout dumps that checkout.
pytest does not collect it.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from svbilevel import bnb, catalog
from svbilevel import neurodynamic as nd
from svbilevel.problem import load_problem

BALL3 = """\
vars x 3
upper (x1 - 1)^2 + x2^2 + x3^2 + 0.25
lower x1^2 + x2^2 + x3^2
lower (x1 - 0.5)^2 + x2^2 + x3^2
bound x1 -1 2
bound x2 -1 2
bound x3 -1 2
"""

# (name, problem text, epsilon)
CASES = [(f"ex{k}", catalog.example_text(k), 1e-5 if k == 1 else 1e-2)
         for k in range(1, 7)]
CASES += [("ex2-deep", catalog.example_text(2), 1e-4),
          ("ball3", BALL3, 1e-2)]


def _hex(values) -> str:
    return np.asarray(values, dtype=float).tobytes().hex()


def main() -> None:
    solve_flow, find_feasible = nd.solve_flow, nd.find_feasible
    name = ""

    def dumped_flow(*args, **kwargs):
        res = solve_flow(*args, **kwargs)
        print(name, "flow", res.status.value, res.steps, _hex(res.x_final),
              _hex(res.objective_value))
        return res

    def dumped_feasible(*args, **kwargs):
        u = find_feasible(*args, **kwargs)
        print(name, "feasible", "none" if u is None else _hex(u))
        return u

    nd.solve_flow, nd.find_feasible = dumped_flow, dumped_feasible
    try:
        for name, text, epsilon in CASES:
            bnb.solve(load_problem(text), bnb.SolverConfig(epsilon=epsilon))
    finally:
        nd.solve_flow, nd.find_feasible = solve_flow, find_feasible


if __name__ == "__main__":
    main()
