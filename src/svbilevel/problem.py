"""Bilevel problem representation, file format and constraint rows.

A problem instance holds the upper objective h(x, y), the vector of lower
objectives f(x), lower-level constraints s(x) <= 0 defining X, coupling
constraints g(x, y) <= 0 and optional variable bounds.  The joint feasible
region is G = {(x, y) | x in X, y >= 0, g(x, y) <= 0}.

Every subproblem constrains one of three regions, and each is a
``neurodynamic.RowSet`` built from one list of rows: X over x
(``x_region``), {u in G | f(x) <= z} over u = (x, y) with the f-rows
shifted by z (``stacked_mp_constraints``, from one set per problem with
every shift 0), and the rows of G that involve y, over y at a fixed x
(``lift_rows``).

Problem file format (line oriented):

    vars x 2            dimensions (x required, y optional)
    vars y 2
    upper <expr>        h over x and y
    lower <expr>        one f_i per line, order = objective index
    constraint_x <expr> s_k <= 0, over x only
    constraint_xy <expr> g_j <= 0, over x and y
    bound x1 -1 2       optional box bound (use -inf/inf for one-sided)
    known <key> <vals>  accepted and skipped (reference values)
    # comment

Variables are named x1..xn and y1..ym.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

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
    """Bound lo <= u_index <= hi on the variable ``name``, one-sided where
    lo or hi is infinite; ``load_problem`` sets index, its place in u = (x,
    y), and is the one place that maps a name to a coordinate."""
    name: str
    lo: float
    hi: float
    index: int


class AffineRow:
    """Constraint oracle for an affine row  a @ u + b <= 0, held once as
    ``affine`` = (a, b), the pair ``RowSet.of`` reads."""

    def __init__(self, coeffs, const: float):
        self.affine = (np.asarray(coeffs, dtype=float), float(const))

    def value(self, u) -> float:
        a, b = self.affine
        return float(a @ u + b)

    def branch_pairs(self, u) -> list:
        return [(self.value(u), self.affine[0].copy())]


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

    @property
    def p(self) -> int:
        return len(self.lower)

    @cached_property
    def _rows(self) -> tuple:
        """The rows of G as ``RowSet.of`` tuples (row, label, shift) over
        u = (x, y), in four groups: the rows of X (declared s-rows, then
        x-bound rows), the rows on y alone (y >= 0, then y-bound rows), the
        g-rows, and the f-rows, whose last entry is the index i of the z_i
        that shifts them.  Each row is an ``AffineRow`` or a max-free
        expression over the leading ``n_vars`` columns of u.  A row whose
        expression is a max is one row per branch, labelled "<row> [j]" for
        branch j: max(a, b) <= z is exactly a <= z and b <= z, and each
        branch is smooth.  Built on first use."""
        n, total = self.n, self.n + self.m

        def unit(i, sign, width):
            e = np.zeros(width)
            e[i] = sign
            return e

        def split(exprs, fmt):
            """(k, row, label) of each row of expression k of ``exprs``,
            labelled fmt.format(k + 1)."""
            for k, c in enumerate(exprs):
                label = fmt.format(k + 1)
                if not isinstance(c.ast, Max):
                    yield k, c, label
                    continue
                for j, b in enumerate(c.ast.children):
                    yield k, CompiledExpr(b, c.n_vars), f"{label} [{j + 1}]"

        x_rows = [(s, label, 0.0)
                  for _, s, label in split(self.lower_constraints, "s_{}")]
        y_rows = [(AffineRow(unit(n + j, -1.0, total), 0.0), f"y{j + 1} >= 0",
                   0.0) for j in range(self.m)]
        for b in self.bounds:
            rows, width = (x_rows, n) if b.index < n else (y_rows, total)
            if np.isfinite(b.lo):
                rows.append((AffineRow(unit(b.index, -1.0, width), b.lo),
                             f"{b.name} >= {b.lo}", 0.0))
            if np.isfinite(b.hi):
                rows.append((AffineRow(unit(b.index, 1.0, width), -b.hi),
                             f"{b.name} <= {b.hi}", 0.0))
        g_rows = [(g, label, 0.0)
                  for _, g, label in split(self.coupling, "g_{}")]
        f_rows = [(f, label, i)
                  for i, f, label in split(self.lower, "f_{0} - z_{0}")]
        return x_rows, y_rows, g_rows, f_rows

    @cached_property
    def _x_set(self) -> nd.RowSet:
        return nd.RowSet.of(self._rows[0], self.n)

    @cached_property
    def _mp_template(self) -> tuple:
        """(rows, f-rows): ``RowSet.of`` over the rows of {u in G | f(x) <=
        z} with every f-row shifted by 0.0, and the (list index, i) of each
        f-row in the list given to ``of``, i the index of the z_i that
        shifts it.  Built at the first MP(z), not at load."""
        x_rows, y_rows, g_rows, f_rows = self._rows
        head = x_rows + y_rows
        rows = nd.RowSet.of(
            head + [(f, label, 0.0) for f, label, _ in f_rows] + g_rows,
            self.n + self.m)
        return rows, [(len(head) + k, i)
                      for k, (_, _, i) in enumerate(f_rows)]

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
    branch rows.  The problem's one template, whose f-rows are shifted by
    0.0, ``shifted`` by z_i at each f-row and by 0.0 elsewhere: each row is
    bit for bit the one ``RowSet.of`` builds with the shifts z, and the set
    shares A, the labels, the expressions and the affine bands of the
    template."""
    z = np.asarray(z, dtype=float).tolist()
    if len(z) != problem.p:
        raise ValueError(f"z has length {len(z)}, expected p = {problem.p}")
    rows, f_rows = problem._mp_template
    shifts = [0.0] * rows.size
    for j, i in f_rows:
        shifts[j] = z[i]
    return rows.shifted(shifts)


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

def _parse_float(tok: str, line_no: int) -> float:
    try:
        return float(tok)
    except ValueError:
        raise ProblemFormatError(f"not a number: {tok!r}", line_no)


def load_problem(text: str) -> BilevelProblem:
    """Parse a problem from its text (see the module docstring)."""
    dims = {}
    raw = {"upper": [], "lower": [], "constraint_x": [], "constraint_xy": []}
    bounds = []
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
            if toks[0] in dims:
                raise ProblemFormatError(f"'vars {toks[0]}' declared twice",
                                         line_no)
            dims[toks[0]] = count
        elif key in raw:
            if not rest:
                raise ProblemFormatError(f"'{key}' needs an expression", line_no)
            raw[key].append((line_no, rest))
        elif key == "bound":
            toks = rest.split()
            if len(toks) != 3:
                raise ProblemFormatError("expected 'bound <var> <lo> <hi>'", line_no)
            lo, hi = (_parse_float(t, line_no) for t in toks[1:])
            # +-inf marks a one-sided bound; nan marks nothing
            if math.isnan(lo) or math.isnan(hi):
                raise ProblemFormatError(f"nan in the bound of {toks[0]}",
                                         line_no)
            bounds.append((line_no, toks[0], lo, hi))
        elif key != "known":
            raise ProblemFormatError(f"unknown directive {key!r}", line_no)

    if "x" not in dims:
        raise ProblemFormatError("missing 'vars x' declaration")
    n, m = dims["x"], dims.get("y", 0)
    if n < 1:
        raise ProblemFormatError("need at least one x variable")
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

    checked_bounds = []
    for line_no, var, lo, hi in bounds:
        if var not in xy_names:
            raise ProblemFormatError(f"unknown variable {var!r} in bound", line_no)
        # [inf, inf] and [-inf, -inf] build no row, yet hold no number
        if lo > hi or lo == math.inf or hi == -math.inf:
            raise ProblemFormatError(f"empty bound [{lo}, {hi}]", line_no)
        checked_bounds.append(VariableBound(var, lo, hi, xy_names.index(var)))

    return BilevelProblem(
        n=n, m=m, upper=upper, lower=tuple(lower),
        lower_constraints=tuple(s_rows), coupling=tuple(g_rows),
        bounds=tuple(checked_bounds))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate(problem: BilevelProblem) -> list:
    """The messages of the shape errors that make a problem unsolvable;
    empty when there is none.  The assumed structure (pseudoconvex
    objectives, quasiconvex constraints) is not verified.  It starts no
    flow: whether X is bounded is checked where the outcome box is built
    (``outcome.compute_box``), whose flows must converge."""
    out = []
    if problem.p < 2:
        out.append("lower level must be vectorial (p >= 2)")
    if problem.x_region().size == 0:
        out.append("X has no constraints; it cannot be bounded")
    return out


def find_interior_start(problem: BilevelProblem) -> Optional[np.ndarray]:
    """A feasible point of X by penalty descent, started at the origin in
    each free coordinate and inside each bounded one: at the midpoint of
    [lo, hi], taking lo + 2 for a missing upper end, hi - 2 for a missing
    lower one, and [0, 2] for a bound with neither."""
    x0 = np.zeros(problem.n)
    for b in problem.bounds:
        if b.index < problem.n:
            lo, hi = b.lo, b.hi
            if not np.isfinite(lo):
                lo = hi - 2.0 if np.isfinite(hi) else 0.0
            if not np.isfinite(hi):
                hi = lo + 2.0
            x0[b.index] = 0.5 * (lo + hi)
    return nd.find_feasible(problem.x_region(), x0)
