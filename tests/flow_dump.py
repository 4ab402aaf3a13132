"""Print one line for every flow a set of solves runs, to diff two versions.

Each ``neurodynamic.solve_flow`` call prints its role (``ray`` for a
``RayObjective``, ``mp`` when the objective is the problem's upper level
``h``, ``box`` otherwise), its status, its step count and the hex of the
bytes of its final point, its objective value and its penalty S, the
value a ``Converged`` status vouches is at most ``FEASIBILITY_TOL``; each
``neurodynamic.find_feasible`` call prints the hex of the point it returns,
or ``none``.  After each solve, one line per iteration prints k and the hex
of the selected vertex, alpha and beta, one line the hex of the
incumbent's x, y and h, or ``none``, and a last ``summary`` line the
status, the iterations, and alpha, beta and h as ``repr`` floats (h is
``none`` with no incumbent), so that a moved answer reads from the diff
without decoding hex.  Two checkouts whose dumps are equal ran the same
flows and the same outer loop to the same bits.  Stderr gets one ``work``
line per solve, which counts what the dump does not pin: its flows, their
steps summed and its ``RowSet.evaluate`` calls, so a change that keeps
the bits shows the work it saved.  The solves
are examples 1 to 6 at the epsilons of ``test_acceptance.py`` (example 1
at 1e-5), example 2 at 1e-4, ``ball3``, example 5 in 3 variables,
``ball2``, example 5 in 2 variables, ``tri3``, three lower objectives
in 3 variables, at 1e-2 for 60 iterations: the one case whose cuts make
children that ``prune`` drops before phi is evaluated at them, and example
5 with its lower objectives times 0.01 (``scaled_text``), the one case
with a flow that starts with a row above its band, so that the dump covers
the polish of such a start, and example 2 with its upper objective times
100, the one case whose flows read a rescaled h.

    python tests/flow_dump.py > dump.txt 2> work.txt

The script imports ``svbilevel`` from the ``src`` next to its own
directory, so a copy of it placed in another checkout dumps that checkout.
pytest does not collect it.
"""

import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from svbilevel import bnb, catalog
from svbilevel import neurodynamic as nd
from svbilevel.outcome import RayObjective
from svbilevel.problem import load_problem

BALL2 = """\
vars x 2
upper (x1 - 1)^2 + x2^2 + 0.25
lower x1^2 + x2^2
lower (x1 - 0.5)^2 + x2^2
bound x1 -1 2
bound x2 -1 2
"""

BALL3 = """\
vars x 3
upper (x1 - 1)^2 + x2^2 + x3^2 + 0.25
lower x1^2 + x2^2 + x3^2
lower (x1 - 0.5)^2 + x2^2 + x3^2
bound x1 -1 2
bound x2 -1 2
bound x3 -1 2
"""

TRI3 = """\
vars x 3
upper (x1 - 1)^2 + (x2 - 1)^2 + x3^2 + 0.25
lower x1^2 + x2^2 + x3^2
lower (x1 - 0.5)^2 + x2^2 + x3^2
lower x1^2 + (x2 - 0.5)^2 + x3^2
bound x1 -1 2
bound x2 -1 2
bound x3 -1 2
"""

_EXPRESSION_LINE = re.compile(r"^(upper|lower|constraint_x|constraint_xy) ")


def scaled_text(number, f=1.0, x=1.0, h=1.0):
    """Example ``number`` with every lower objective multiplied by f, the
    upper objective by h, and every x_k replaced by x_k / x, its bounds
    multiplied by x."""
    lines = []
    for line in catalog.example_text(number).replace("\\\n", "").splitlines():
        if _EXPRESSION_LINE.match(line):
            key, body = line.split(" ", 1)
            if x != 1.0:
                body = re.sub(r"\b(x\d+)\b", rf"(\1/{x!r})", body)
            if key == "lower" and f != 1.0:
                body = f"{f!r}*({body})"
            if key == "upper" and h != 1.0:
                body = f"{h!r}*({body})"
            line = f"{key} {body}"
        elif line.startswith("bound "):
            _, name, lo, hi = line.split()
            line = f"bound {name} {float(lo) * x!r} {float(hi) * x!r}"
        lines.append(line)
    return "\n".join(lines) + "\n"


# (name, problem text, epsilon, iteration cap)
CASES = [(f"ex{k}", catalog.example_text(k), 1e-5 if k == 1 else 1e-2, 500)
         for k in range(1, 7)]
CASES += [("ex2-deep", catalog.example_text(2), 1e-4, 500),
          ("ball3", BALL3, 1e-2, 500),
          ("ball2", BALL2, 1e-2, 500),
          ("tri3", TRI3, 1e-2, 60),
          ("ex5-f*0.01", scaled_text(5, f=0.01), 1e-2, 500),
          ("ex2-h*100", scaled_text(2, h=100.0), 1e-2, 500)]


def _hex(values) -> str:
    return np.asarray(values, dtype=float).tobytes().hex()


def main() -> None:
    solve_flow, find_feasible = nd.solve_flow, nd.find_feasible
    evaluate = nd.RowSet.evaluate
    name, problem = "", None
    work = dict.fromkeys(("flows", "steps", "evaluations"), 0)

    def counted_evaluate(rows, u):
        work["evaluations"] += 1
        return evaluate(rows, u)

    def dumped_flow(objective, *args, **kwargs):
        res = solve_flow(objective, *args, **kwargs)
        work["flows"] += 1
        work["steps"] += res.steps
        role = ("ray" if isinstance(objective, RayObjective) else
                "mp" if objective is problem.upper else "box")
        print(name, "flow", role, res.status.value, res.steps,
              _hex(res.x_final), _hex(res.objective_value),
              _hex(res.penalty_residual))
        return res

    def dumped_feasible(*args, **kwargs):
        u = find_feasible(*args, **kwargs)
        print(name, "feasible", "none" if u is None else _hex(u))
        return u

    nd.solve_flow, nd.find_feasible = dumped_flow, dumped_feasible
    nd.RowSet.evaluate = counted_evaluate
    try:
        for name, text, epsilon, cap in CASES:
            work.update(dict.fromkeys(work, 0))
            problem = load_problem(text)
            report = bnb.solve(problem, bnb.SolverConfig(
                epsilon=epsilon, max_iterations=cap))
            for row in report.log:
                print(name, "iteration", row.k, _hex(row.v), _hex(row.alpha),
                      _hex(row.beta))
            inc = report.incumbent
            print(name, "incumbent", "none" if inc is None else
                  " ".join(_hex(a) for a in (inc.x, inc.y, inc.h)))
            print(name, "summary", report.status.value, report.iterations,
                  repr(float(report.alpha)), repr(float(report.beta)),
                  "none" if inc is None else repr(float(inc.h)))
            print(name, "work", *(f"{k} {v}" for k, v in work.items()),
                  file=sys.stderr)
    finally:
        nd.solve_flow, nd.find_feasible = solve_flow, find_feasible
        nd.RowSet.evaluate = evaluate


if __name__ == "__main__":
    main()
