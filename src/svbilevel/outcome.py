"""Outcome-space scaffolding: bounding box, ray scalarization and the
monotone value function.

The lower objectives map the (compact) set X into the outcome space.  A box
[m, M] containing the image is built from p minimizing flows (for m), a
simplex enclosure of X and vertex evaluation (for M).  Two parametric
subproblem families drive the main algorithm: the ray problem
min_x max_j (f_j(x) - v_j) / d_j whose optimum projects v onto the weakly
nondominated frontier, and MP(z): phi(z) = min {h(x, y) | (x, y) in G,
f(x) <= z}, a decreasing function of z, solved once per query by
``PhiCache``.  A ray or MP solve's record holds its flow's ``FlowResult``
and copies none of its fields.  Every subproblem flow starts where its
caller says: the driver passes a warm start or takes ``PhiCache``'s, the
box's feasible point of X with y = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import neurodynamic as nd
from .expr import EvaluationError, as_floats, to_source
from .problem import AffineRow, BilevelProblem, find_interior_start, \
    stacked_mp_constraints


class OutcomeError(Exception):
    pass


@dataclass
class OutcomeBox:
    """The box [m, M] that contains f(X): m_argmin[i] minimizes f_i over
    X, and M bounds each f_i on ``simplex_vertices``, a simplex that
    encloses X."""
    m: np.ndarray
    M: np.ndarray
    simplex_vertices: list
    m_argmin: list
    # the feasible point of X the box flows started from
    x_feasible: np.ndarray


@dataclass
class RaySolution:
    """The ray flow from v along d_hat, and w = v + t d_hat, its projection
    onto the frontier at the flow's objective value t, which is
    ``RayObjective(problem, v, d_hat).value(flow.x_final)``.  A converged
    flow minimizes max_j (f_j - v_j) / d_j over X, so its end point is
    weakly efficient (Pascoletti and Serafini, 1984)."""
    flow: nd.FlowResult
    w: np.ndarray


@dataclass
class MpSolution:
    """The MP(z) value flow over {(x, y) in G | f(x) <= z}, or None where
    no feasible point was found.  A converged flow ends with those rows
    met within ``FEASIBILITY_TOL``, so its end point (x, y) is feasible."""
    flow: Optional[nd.FlowResult]

    @property
    def feasible(self) -> bool:
        return self.flow is not None

    @property
    def phi(self) -> float:
        return math.inf if self.flow is None else self.flow.objective_value


def _reject_diverged(res: nd.FlowResult, what: str) -> nd.FlowResult:
    if res.status is nd.FlowStatus.DIVERGED:
        raise OutcomeError(f"{what}: flow diverged (unbounded problem?)")
    return res


def _box_flow(objective, region, x0, what: str) -> nd.FlowResult:
    """A box flow over X; it must converge, or [m, M] may not contain
    f(X).  A FlowError is raised again as OutcomeError, ``what`` first."""
    try:
        res = nd.solve_flow(objective, region, x0)
    except nd.FlowError as exc:
        raise OutcomeError(f"{what}: {exc}") from None
    if res.status is not nd.FlowStatus.CONVERGED:
        raise OutcomeError(f"{what}: flow ended {res.status.value} after "
                           f"{res.steps} steps; X may be unbounded")
    return res


def compute_box(problem: BilevelProblem) -> OutcomeBox:
    """Box [m, M] containing the outcome set: m from p minimizing flows,
    M from evaluating each objective on the vertices of a simplex
    enclosing X.  This is where X is checked numerically: every one of the
    p + n + 1 flows must end converged, else ``OutcomeError`` names it,
    since an unbounded X leaves a box that need not contain f(X).  An m_i
    above M_i by more than rounding also raises ``OutcomeError``, naming
    f_i: the vertex bound M_i holds only for a quasiconvex f_i.  The
    simplex's vertices may lie outside X, and f_i is evaluated there: an
    f_i that fails or is not finite at one raises ``OutcomeError``, naming
    f_i and the vertex."""
    region = problem.x_region()
    x0 = find_interior_start(problem)
    if x0 is None:
        raise OutcomeError("X is empty: no feasible point found")

    n, p = problem.n, problem.p
    m = np.zeros(p)
    m_argmin = []
    start = x0
    for i, f in enumerate(problem.lower):
        res = _box_flow(f, region, start, f"min f_{i + 1} over X")
        m[i] = res.objective_value
        m_argmin.append(res.x_final.copy())
        start = res.x_final

    # simplex enclosure: componentwise minima and the max of the coordinate sum
    delta0 = np.zeros(n)
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        res = _box_flow(AffineRow(e, 0.0), region, x0,
                        f"min x_{k + 1} over X")
        delta0[k] = res.objective_value
    res = _box_flow(AffineRow(-np.ones(n), 0.0), region, x0,
                    "max <e, x> over X")
    U = -res.objective_value

    vertices = [delta0.copy()]
    total = float(np.sum(delta0))
    for i in range(n):
        v = delta0.copy()
        v[i] = U - (total - delta0[i])
        vertices.append(v)

    M = np.full(p, -math.inf)
    for i, f in enumerate(problem.lower):
        for v in vertices:
            # a vertex may lie outside X, where f_i need not be defined
            try:
                value = f.value(v)
                fault = None if math.isfinite(value) else f"is {value}"
            except EvaluationError as exc:
                fault = f"is undefined ({exc})"
            if fault is not None:
                raise OutcomeError(
                    f"f_{i + 1} at {tuple(v.tolist())}, a vertex of a "
                    f"simplex enclosing X, {fault}; the vertex bound "
                    f"M_{i + 1} needs f_{i + 1} defined and quasiconvex on "
                    "that simplex")
            M[i] = max(M[i], value)
        # the vertex bound holds for a quasiconvex f_i; a minimum above it,
        # by more than rounding, shows f_i is not one
        if m[i] - M[i] > 1e-9 * max(1.0, abs(M[i])):
            raise OutcomeError(
                f"f_{i + 1}: its minimum over X, {m[i]:.6g}, exceeds "
                f"M_{i + 1} = {M[i]:.6g}, its largest value on the vertices "
                f"of a simplex enclosing X; that bound needs f_{i + 1} "
                "quasiconvex")
    return OutcomeBox(m=m, M=M, simplex_vertices=vertices,
                      m_argmin=m_argmin, x_feasible=x0)


class RayObjective:
    """max_j (f_j(x) - v_j) / d_j with the max branches of each f_j
    flattened into one branch list.  Each branch runs through its lower
    objective's generated function, made once per problem, with v_j and
    d_j applied as floats outside them, so a ray call generates no code.
    The arithmetic is that of the expression ``Max`` of
    ``(branch - Const(v_j)) / Const(d_j)`` compiled as a ``CompiledExpr``,
    so ``value`` is the top of ``branch_pairs`` bit for bit.

    The minimizer lies on the kink where the leading branches are equal.
    ``branch_pairs`` gives the flow each branch's (value, gradient); the
    flow picks the branches within its band, and after each sliding trial
    step it lands on their kink by a Gauss-Newton step (see
    ``neurodynamic``)."""

    def __init__(self, problem: BilevelProblem, v, d_hat):
        self.terms = [
            (branch, fn, float(v[j]), float(d_hat[j]))
            for j, f in enumerate(problem.lower)
            for branch, fn in zip(f.branches, f.branch_values)]

    def value(self, x) -> float:
        xs = as_floats(x)
        return max((fn(xs) - vj) / dj for _, fn, vj, dj in self.terms)

    def branch_pairs(self, x) -> list:
        """((f_j(x) - v_j) / d_j, gradient) of each branch, in the order of
        ``terms``."""
        xs = as_floats(x)
        pairs = []
        for branch, fn, vj, dj in self.terms:
            bv, bg = fn(xs, True)
            r = (bv - vj) / dj
            if not math.isfinite(r):
                raise EvaluationError(
                    f"non-finite ray value at branch {to_source(branch)}")
            pairs.append((r, bg / dj))
        return pairs


def solve_ray(problem: BilevelProblem, v, d_hat, x0) -> RaySolution:
    """Project v along direction d_hat onto the weakly nondominated frontier
    by the scalarized pseudoconvex flow on ``RayObjective``, started at the
    point x0 of X."""
    v = np.asarray(v, dtype=float)
    d_hat = np.asarray(d_hat, dtype=float)
    if not (np.isfinite(d_hat).all() and (d_hat > 0.0).all()):
        raise ValueError("ray direction must be finite and strictly positive")
    region = problem.x_region()
    obj = RayObjective(problem, v, d_hat)
    res = _reject_diverged(nd.solve_flow(obj, region, x0), "ray problem")
    return RaySolution(flow=res, w=v + res.objective_value * d_hat)


def solve_mp(problem: BilevelProblem, z, u0) -> MpSolution:
    """phi(z) = min {h(x, y) | (x, y) in G, f(x) <= z}, searched from u0.
    Infeasible z is detected by a stalled feasibility phase."""
    z = np.asarray(z, dtype=float)
    stack = stacked_mp_constraints(problem, z)
    u_feas = nd.find_feasible(stack, u0)
    if u_feas is None:
        return MpSolution(flow=None)
    return MpSolution(flow=_reject_diverged(
        nd.solve_flow(problem.upper, stack, u_feas), "MP value flow"))


class PhiCache:
    """Solves MP(z) for the driver, one flow per call: the branch-and-bound
    evaluates phi once at each vertex and keeps the solve on the vertex, so
    nothing is memoized here.  A query without a warm start begins at
    ``start``, the box's feasible point of X with y = 1; ``misses`` counts
    the solves."""

    def __init__(self, problem: BilevelProblem, box: OutcomeBox):
        self.problem = problem
        self.start = np.concatenate([box.x_feasible, np.ones(problem.m)])
        self.misses = 0

    def get(self, z, u0: Optional[np.ndarray] = None) -> MpSolution:
        self.misses += 1
        return solve_mp(self.problem, z, self.start if u0 is None else u0)
