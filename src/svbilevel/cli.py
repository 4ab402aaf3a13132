"""Command-line front end.

Loads a built-in example or a problem file, runs the branch-and-bound
solver and prints the iteration log as a table or as CSV, followed by a
summary (x*, y*, h*, iteration count, wall time, status).  An optional
trace file collects every integration step of every flow, from a
``neurodynamic.recording`` opened around the solve.

Exit codes: 0 optimal, 2 infeasible, 3 iteration cap reached, 1 input
error (a command-line usage error included; ``--help`` exits 0).
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from . import bnb, catalog
from . import neurodynamic as nd
from .expr import ExprError
from .outcome import OutcomeError
from .problem import ProblemFormatError, load_problem

EXIT_OPTIMAL = 0
EXIT_INPUT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_MAX_ITERATIONS = 3

_STATUS_EXIT = {
    bnb.SolverStatus.OPTIMAL: EXIT_OPTIMAL,
    bnb.SolverStatus.INFEASIBLE: EXIT_INFEASIBLE,
    bnb.SolverStatus.MAX_ITERATIONS: EXIT_MAX_ITERATIONS,
}


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse's own usage errors exit 2, the code of an infeasible
    problem; here they are input errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="svbilevel",
        description="Global solver for pseudoconvex semivectorial bilevel "
                    "problems.")
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--example", type=int, metavar="N",
                        help="built-in example number (1-6)")
    source.add_argument("--file", metavar="PATH", help="problem file to solve")
    parser.add_argument("--epsilon", type=float, metavar="E",
                        default=bnb.SolverConfig.epsilon, help="relative "
                        "optimality tolerance (default %(default)s)")
    parser.add_argument("--max-iters", type=int,
                        default=bnb.SolverConfig.max_iterations,
                        help="branch-and-bound iteration cap")
    parser.add_argument("--format", choices=("table", "csv"), default="table",
                        help="iteration log format (default table)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write per-step flow trace CSV to PATH")
    return parser


def _load(args) -> "bnb.BilevelProblem":
    if args.example is not None:
        try:
            return catalog.load_example(args.example)
        except KeyError as exc:
            raise InputError(str(exc.args[0]))
    try:
        with open(args.file) as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {args.file}: {exc.strerror}")
    try:
        return load_problem(text)
    except ProblemFormatError as exc:
        raise InputError(f"{args.file}: {exc}")


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _vec(v) -> str:
    return "(" + ", ".join(_fmt(c) for c in v) + ")"


def _log_cells(report: bnb.SolverReport) -> list:
    """The iteration log as rows of formatted cells, the header (k,
    v_1..v_p, alpha, beta, gap) first."""
    p = len(report.box.M)
    header = ["k"] + [f"v_{i + 1}" for i in range(p)] + ["alpha", "beta", "gap"]
    return [header] + [[str(row.k)] + [_fmt(c) for c in row.v]
                       + [_fmt(row.alpha), _fmt(row.beta), _fmt(row.gap)]
                       for row in report.log]


def _print_table(report: bnb.SolverReport, out) -> None:
    rows = _log_cells(report)
    widths = [max(len(r[j]) for r in rows) for j in range(len(rows[0]))]
    for r in rows:
        print("  ".join(c.rjust(w) for c, w in zip(r, widths)), file=out)


def _print_summary(report: bnb.SolverReport, out) -> None:
    print(f"status     {report.status.value}", file=out)
    if report.incumbent is not None:
        print(f"x*         {_vec(report.incumbent.x)}", file=out)
        if len(report.incumbent.y):
            print(f"y*         {_vec(report.incumbent.y)}", file=out)
        print(f"h*         {_fmt(report.incumbent.h)}", file=out)
    print(f"alpha      {_fmt(report.alpha)}", file=out)
    print(f"beta       {_fmt(report.beta)}", file=out)
    print(f"iterations {report.iterations}", file=out)
    print(f"wall_time  {report.wall_time:.2f}s", file=out)


def _print_csv(report: bnb.SolverReport, out) -> None:
    for cells in _log_cells(report):
        print(",".join(cells), file=out)
    summary = [f"status={report.status.value}",
               f"alpha={_fmt(report.alpha)}",
               f"beta={_fmt(report.beta)}",
               f"iterations={report.iterations}",
               f"wall_time={report.wall_time:.2f}s"]
    if report.incumbent is not None:
        summary.insert(1, "h=" + _fmt(report.incumbent.h))
        summary.insert(2, "x=" + ";".join(_fmt(c) for c in report.incumbent.x))
        if len(report.incumbent.y):
            summary.insert(
                3, "y=" + ";".join(_fmt(c) for c in report.incumbent.y))
    print("# " + ",".join(summary), file=out)


def _write_trace(rows: list, path: str) -> None:
    width = max((len(r[2]) for r in rows), default=0)
    with open(path, "w") as fh:
        head = ["flow", "t"] + [f"x_{i + 1}" for i in range(width)]
        fh.write(",".join(head + ["r", "S", "speed"]) + "\n")
        for flow_id, t, x, r, s, speed in rows:
            cells = [str(flow_id), repr(float(t))]
            cells += [repr(float(c)) for c in x]
            cells += [""] * (width - len(x))
            cells += [repr(float(r)), repr(float(s)), repr(float(speed))]
            fh.write(",".join(cells) + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        problem = _load(args)
        # a bad setting raises ValueError, reported as an input error
        config = bnb.SolverConfig(args.epsilon, args.max_iters)
        with (nd.recording() if args.trace is not None
              else contextlib.nullcontext()) as rows:
            report = bnb.solve(problem, config)
    except (InputError, OutcomeError, ExprError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    out = sys.stdout
    if args.format == "csv":
        _print_csv(report, out)
    else:
        _print_table(report, out)
        print("", file=out)
        _print_summary(report, out)
    if args.trace is not None:
        try:
            _write_trace(rows, args.trace)
        except OSError as exc:
            print(f"error: cannot write {args.trace}: {exc.strerror}",
                  file=sys.stderr)
            return EXIT_INPUT_ERROR
    return _STATUS_EXIT[report.status]


if __name__ == "__main__":
    sys.exit(main())
