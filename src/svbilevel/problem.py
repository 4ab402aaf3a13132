"""Bilevel problem representation, file format and constraint rows.

A problem instance holds the upper objective h(x, y), the vector of lower
objectives f(x), lower-level constraints s(x) <= 0 defining X, coupling
constraints g(x, y) <= 0 and optional variable bounds.  The joint feasible
region is G = {(x, y) | x in X, y >= 0, g(x, y) <= 0}.

Every subproblem constrains one of three regions, and each is a
``neurodynamic.RowSet`` built from one list of rows: X over x
(``x_region``), {u in G | f(x) <= z} over u = (x, y) with the f-rows
shifted by z (``stacked_mp_constraints``), and the rows of G that involve
y, over y at a fixed x (``lift_rows``).

Problem file format (line oriented):

    vars x 2            dimensions (x required, y optional)
    vars y 2
    upper <expr>        h over x and y
    lower <expr>        one f_i per line, order = objective index
    constraint_x <expr> s_k <= 0, over x only
    constraint_xy <expr> g_j <= 0, over x and y
    bound x1 -1 2       optional box bound (use -inf/inf for one-sided)
    known <key> <vals>  optional reference values, ignored by the solver
    # comment

Variables are named x1..xn and y1..ym.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Union

import numpy as np

from . import neurodynamic as nd
from .expr import CompiledExpr, ExprError, Max, parse_expression


class ProblemFormatError(Exception):
    """Raised for malformed problem files; carries the offending line."""

    def __init__(self, message: str, line_no: Optional[int] = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


@dataclass(frozen=True)
class VariableBound:
    """Box bound on a single named variable; one-sided when lo/hi infinite."""
    name: str
    lo: float
    hi: float


@dataclass(frozen=True)
class Diagnostic:
    level: str  # "error", "warning" or "info"
    message: str

    def __str__(self):
        return f"{self.level}: {self.message}"


class AffineRow:
    """Constraint oracle for an affine row  a @ u + b <= 0."""

    def __init__(self, coeffs, const: float, label: str = ""):
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.const = float(const)
        self.label = label
        self.affine = (self.coeffs, self.const)

    def value(self, u) -> float:
        return float(self.coeffs @ u + self.const)

    def value_grad(self, u):
        return self.value(u), self.coeffs.copy()


@dataclass(frozen=True)
class BilevelProblem:
    """Immutable (BP) instance with compiled oracles."""

    n: int
    m: int
    upper: CompiledExpr
    lower: tuple
    lower_constraints: tuple
    coupling: tuple
    bounds: tuple = ()
    known: dict = field(default_factory=dict)
    source_name: str = "<text>"

    @property
    def p(self) -> int:
        return len(self.lower)

    @property
    def ell(self) -> int:
        return len(self.coupling)

    @property
    def x_names(self):
        return [f"x{i + 1}" for i in range(self.n)]

    @property
    def y_names(self):
        return [f"y{j + 1}" for j in range(self.m)]

    @cached_property
    def _rows(self) -> tuple:
        """The rows of G as ``RowSet.of`` tuples (oracle, k, label, shift)
        over u = (x, y), in four groups: the rows of X (declared s-rows,
        then x-bound rows), the rows on y alone (y >= 0, then y-bound rows),
        the g-rows, and the f-rows, whose last entry is the index i of the
        z_i that shifts them.  A row whose expression is a max is one row
        per branch, labelled "<row> [j]" for branch j: max(a, b) <= z is
        exactly a <= z and b <= z, and each branch is smooth.  Built on
        first use."""
        n, total = self.n, self.n + self.m
        names = self.x_names + self.y_names

        def unit(i, sign, width):
            e = np.zeros(width)
            e[i] = sign
            return e

        def split(exprs, fmt):
            """(k, oracle, label) of each row of expression k of ``exprs``,
            labelled fmt.format(k + 1)."""
            for k, c in enumerate(exprs):
                label = fmt.format(k + 1)
                if not isinstance(c.ast, Max):
                    yield k, c, label
                    continue
                for j, b in enumerate(c.ast.children):
                    yield k, CompiledExpr(b, c.n_vars), f"{label} [{j + 1}]"

        x_rows = [(s, n, label, 0.0)
                  for _, s, label in split(self.lower_constraints, "s_{}")]
        y_rows = [(AffineRow(unit(n + j, -1.0, total), 0.0), total,
                   f"y{j + 1} >= 0", 0.0) for j in range(self.m)]
        for b in self.bounds:
            i = names.index(b.name)
            rows, width = (x_rows, n) if i < n else (y_rows, total)
            if np.isfinite(b.lo):
                rows.append((AffineRow(unit(i, -1.0, width), b.lo), width,
                             f"{b.name} >= {b.lo}", 0.0))
            if np.isfinite(b.hi):
                rows.append((AffineRow(unit(i, 1.0, width), -b.hi), width,
                             f"{b.name} <= {b.hi}", 0.0))
        g_rows = [(g, total, label, 0.0)
                  for _, g, label in split(self.coupling, "g_{}")]
        f_rows = [(f, n, label, i)
                  for i, f, label in split(self.lower, "f_{0} - z_{0}")]
        return x_rows, y_rows, g_rows, f_rows

    @cached_property
    def _x_set(self) -> nd.RowSet:
        return nd.RowSet.of(self._rows[0], self.n)

    @cached_property
    def _y_set(self) -> nd.RowSet:
        _, y_rows, g_rows, _ = self._rows
        return nd.RowSet.of(y_rows + g_rows, self.n + self.m)

    def x_region(self) -> nd.RowSet:
        """X as rows over x: the declared s-rows, then the x-bound rows.
        Built once per problem; a RowSet holds no flow state."""
        return self._x_set

    def lift_rows(self, x) -> nd.RowSet:
        """The rows of G that involve y (y >= 0, y-bounds, g), as rows over
        y with x held fixed: the rows over u = (x, y), built once per
        problem, with their head fixed at x."""
        return self._y_set.fix_head(x)


def stacked_mp_constraints(problem: BilevelProblem, z) -> nd.RowSet:
    """The rows of {u in G | f(x) <= z} over u = (x, y): affine rows, then
    nonlinear rows, each in the order s-rows (declared then bound-derived),
    -y rows, y-bound rows, f_i(x) - z_i rows, g-rows; a max row is its
    branch rows."""
    z = np.asarray(z, dtype=float)
    if len(z) != problem.p:
        raise ValueError(f"z has length {len(z)}, expected p = {problem.p}")
    x_rows, y_rows, g_rows, f_rows = problem._rows
    f_rows = [(f, k, label, float(z[i])) for f, k, label, i in f_rows]
    return nd.RowSet.of(x_rows + y_rows + f_rows + g_rows,
                        problem.n + problem.m)


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

def _parse_float(tok: str, line_no: int) -> float:
    try:
        return float(tok)
    except ValueError:
        raise ProblemFormatError(f"not a number: {tok!r}", line_no)


def load_problem(source: Union[str, os.PathLike]) -> BilevelProblem:
    """Parse a problem from a file path or from literal text (anything
    containing a newline is treated as text)."""
    name = "<text>"
    if isinstance(source, os.PathLike):
        name = os.fspath(source)
        with open(source) as fh:
            text = fh.read()
    elif isinstance(source, str) and "\n" not in source and os.path.exists(source):
        name = source
        with open(source) as fh:
            text = fh.read()
    elif isinstance(source, str):
        text = source
    else:
        raise TypeError(f"unsupported source: {source!r}")

    n = m = None
    raw = {"upper": [], "lower": [], "constraint_x": [], "constraint_xy": []}
    bounds = []
    known = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        key = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if key == "vars":
            toks = rest.split()
            if len(toks) != 2 or toks[0] not in ("x", "y"):
                raise ProblemFormatError("expected 'vars x|y <count>'", line_no)
            try:
                count = int(toks[1])
            except ValueError:
                raise ProblemFormatError(f"bad count {toks[1]!r}", line_no)
            if count < 0:
                raise ProblemFormatError("negative dimension", line_no)
            if toks[0] == "x":
                n = count
            else:
                m = count
        elif key in raw:
            if not rest:
                raise ProblemFormatError(f"'{key}' needs an expression", line_no)
            raw[key].append((line_no, rest))
        elif key == "bound":
            toks = rest.split()
            if len(toks) != 3:
                raise ProblemFormatError("expected 'bound <var> <lo> <hi>'", line_no)
            bounds.append((line_no, toks[0],
                           _parse_float(toks[1], line_no),
                           _parse_float(toks[2], line_no)))
        elif key == "known":
            toks = rest.split()
            if not toks:
                raise ProblemFormatError("'known' needs a key", line_no)
            vals = [_parse_float(t, line_no) for t in toks[1:]]
            known[toks[0]] = vals[0] if len(vals) == 1 else vals
        else:
            raise ProblemFormatError(f"unknown directive {key!r}", line_no)

    if n is None:
        raise ProblemFormatError("missing 'vars x' declaration")
    if n < 1:
        raise ProblemFormatError("need at least one x variable")
    if m is None:
        m = 0
    if len(raw["upper"]) != 1:
        raise ProblemFormatError(
            f"exactly one 'upper' line required, found {len(raw['upper'])}")
    if not raw["lower"]:
        raise ProblemFormatError("at least one 'lower' objective required")

    x_names = [f"x{i + 1}" for i in range(n)]
    xy_names = x_names + [f"y{j + 1}" for j in range(m)]

    def compile_exprs(entries, variables):
        out = []
        for line_no, src in entries:
            try:
                out.append(CompiledExpr(parse_expression(src, variables),
                                        len(variables)))
            except ExprError as exc:
                raise ProblemFormatError(str(exc), line_no)
        return out

    upper = compile_exprs(raw["upper"], xy_names)[0]
    lower = compile_exprs(raw["lower"], x_names)
    s_rows = compile_exprs(raw["constraint_x"], x_names)
    g_rows = compile_exprs(raw["constraint_xy"], xy_names)

    valid_names = set(xy_names)
    checked_bounds = []
    for line_no, var, lo, hi in bounds:
        if var not in valid_names:
            raise ProblemFormatError(f"unknown variable {var!r} in bound", line_no)
        if lo > hi:
            raise ProblemFormatError(f"empty bound [{lo}, {hi}]", line_no)
        checked_bounds.append(VariableBound(var, lo, hi))

    return BilevelProblem(
        n=n, m=m, upper=upper, lower=tuple(lower),
        lower_constraints=tuple(s_rows), coupling=tuple(g_rows),
        bounds=tuple(checked_bounds), known=known, source_name=name)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate(problem: BilevelProblem) -> list:
    """Structural diagnostics: hard errors for shape violations, warnings for
    unverifiable convexity assumptions.  It starts no flow: whether X is
    bounded is checked where the outcome box is built
    (``outcome.compute_box``), whose flows must converge."""
    out = []
    if problem.p < 2:
        out.append(Diagnostic("error", "lower level must be vectorial (p >= 2)"))
    if problem.x_region().size == 0:
        out.append(Diagnostic("error", "X has no constraints; it cannot be bounded"))
    if problem.m == 0:
        out.append(Diagnostic("info", "no y variables declared"))
    if problem.ell == 0:
        out.append(Diagnostic("info", "no coupling constraints declared"))
    out.append(Diagnostic(
        "warning",
        "pseudoconvexity of the objectives and quasiconvexity of the "
        "constraints are assumed, not verified; fractional-quadratic and "
        "max-of-affine forms are standard sufficient conditions"))
    return out


def find_interior_start(problem: BilevelProblem, config=None) -> Optional[np.ndarray]:
    """A feasible point of X, from the origin (or bound midpoints) via
    penalty descent."""
    if config is None:
        config = nd.FlowConfig()
    x0 = np.zeros(problem.n)
    for b in problem.bounds:
        if b.name.startswith("x"):
            i = int(b.name[1:]) - 1
            lo = b.lo if np.isfinite(b.lo) else 0.0
            hi = b.hi if np.isfinite(b.hi) else lo + 2.0
            x0[i] = 0.5 * (lo + hi)
    return nd.find_feasible(problem.x_region(), x0, config)
