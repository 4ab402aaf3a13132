"""Branch-and-bound driver over the outcome space.

The driver maintains an inner copolyblock approximation of the weakly
nondominated outcome set, a list of vertices in the order they were made.
Each iteration evaluates the monotone value function phi at the vertices
not yet evaluated, takes the least value as the lower bound beta,
projects the argmin vertex v onto the frontier along the ray from v
toward the box's lower corner m, and cuts the vertex with the
projection.  Only a converged flow gives an incumbent, the candidate
that can lower alpha: a face probe's MP flow, or a ray flow whose weakly
efficient end point lifts to a feasible upper-level pair.  The loop
stops when alpha - beta <= epsilon * (1 + |beta|), when the vertex list
empties, or at the iteration cap.  A solve keeps one record, a
``SolverReport``: ``initialize`` builds it, ``iterate`` advances it, and
``solve`` returns it.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from . import neurodynamic as nd
from .copolyblock import COORD_TOL, Vertex, cut, prune, select_min_phi
from .outcome import OutcomeBox, PhiCache, compute_box, solve_ray
from .problem import BilevelProblem, validate


class SolverStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    MAX_ITERATIONS = "max_iterations"


@dataclass
class SolverConfig:
    epsilon: float = 1e-2
    max_iterations: int = 500

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError("epsilon must be finite and positive")
        if not (isinstance(self.max_iterations, numbers.Integral)
                and self.max_iterations >= 1):
            raise ValueError("max_iterations must be an integer of at least 1")


@dataclass
class Incumbent:
    x: np.ndarray
    y: np.ndarray
    h: float


@dataclass
class IterationRow:
    k: int
    v: np.ndarray
    alpha: float
    beta: float

    @property
    def gap(self) -> float:
        return self.alpha - self.beta


@dataclass
class SolverReport:
    """The one record of a solve.  V holds the vertices in the order they
    were made; status is None while the loop runs, and wall_time NaN
    until ``solve`` sets it.  alpha, the upper bound, is the incumbent's
    h, inf with none; iterations is the log's length."""
    box: OutcomeBox
    V: list[Vertex]
    cache: PhiCache
    beta: float
    incumbent: Optional[Incumbent]
    log: list = field(default_factory=list)
    status: Optional[SolverStatus] = None
    wall_time: float = math.nan

    @property
    def alpha(self) -> float:
        return math.inf if self.incumbent is None else self.incumbent.h

    @property
    def iterations(self) -> int:
        return len(self.log)


def _ray_direction(box: OutcomeBox, v: np.ndarray) -> np.ndarray:
    # aim from the vertex toward m, floored away from zero so the direction
    # stays strictly positive on the lower faces; the floor is tiny because
    # an inflated component chokes the step the ray can take in the
    # coordinates that still have distance to cover
    span = np.maximum(box.M - box.m, 1e-9)
    return np.maximum(v - box.m, 1e-6 * span)


def _evaluate_pending(state: SolverReport, problem: BilevelProblem) -> None:
    """Fill phi at the vertices not yet evaluated; drop infeasible vertices
    and vertices whose MP minimizer has an f_i within ``COORD_TOL`` of m_i:
    outcomes on a lower face are the face probes' of ``initialize``.  This
    is the one lower-face rule; ``cut`` keeps every child.  V needs no
    prune here: ``iterate`` prunes it right after each cut, and dropping
    vertices makes no other one dominated."""
    n = problem.n
    for v in [v for v in state.V if v.mp is None]:
        v.mp = state.cache.get(v.z)
        if not v.mp.feasible or any(
                abs(f.value(v.mp.flow.x_final[:n]) - m_i) <= COORD_TOL
                for f, m_i in zip(problem.lower, state.box.m)):
            state.V.remove(v)


def initialize(problem: BilevelProblem) -> SolverReport:
    """Box, the one-vertex list [M], the p lower-face upper-bound probes,
    then phi at M and the initial bounds.  A probe whose MP flow converged,
    and so ends feasible, is the incumbent when its phi is below alpha."""
    box = compute_box(problem)
    cache = PhiCache(problem, box)
    top = Vertex(box.M)
    V = [top]

    alpha = math.inf
    incumbent = None
    for i in range(problem.p):
        z = box.M.copy()
        # tiny slack above the face: {f_i <= m_i} is exactly the argmin
        # slice of f_i, which has no interior for a feasibility flow to find
        z[i] = box.m[i] + 1e-6 * max(1.0, abs(box.m[i]))
        # warm start at the recorded argmin of f_i: the probe's feasible set
        # hugs that point, far too thin to find from a generic start
        u0 = np.concatenate([box.m_argmin[i], np.ones(problem.m)])
        sol = cache.get(z, u0)
        if sol.phi < alpha and sol.flow.status is nd.FlowStatus.CONVERGED:
            alpha = sol.phi
            x, y = np.split(sol.flow.x_final, [problem.n])
            incumbent = Incumbent(x=x, y=y, h=alpha)

    state = SolverReport(box=box, V=V, cache=cache, beta=math.inf,
                         incumbent=incumbent)
    # M is a vertex like any other: one solve, and its lower-face check
    _evaluate_pending(state, problem)
    if top.mp.feasible:
        state.beta = top.mp.phi
    elif incumbent is None:
        state.status = SolverStatus.INFEASIBLE
    return state


def find_feasible_y(problem: BilevelProblem, x) -> Optional[np.ndarray]:
    """Lift x to (x, y) in G at fixed x: a feasibility flow over y on the
    rows of G that involve y, checked within ``FEASIBILITY_TOL``.  x must
    be the end point of a converged flow over X, which meets X's rows
    within that tolerance.  With no y variables the flow returns the empty
    point or None."""
    x = np.asarray(x, dtype=float)
    return nd.find_feasible(problem.lift_rows(x), np.ones(problem.m))


def iterate(state: SolverReport, problem: BilevelProblem,
            config: SolverConfig) -> SolverReport:
    """One bound-update / projection / cut round."""
    if state.status is not None:
        return state
    _evaluate_pending(state, problem)
    if not state.V:
        if state.incumbent is not None:
            state.beta = state.alpha
            state.status = SolverStatus.OPTIMAL
        else:
            state.status = SolverStatus.INFEASIBLE
        # no vertex was selected
        state.log.append(IterationRow(k=state.iterations + 1,
                                      v=np.full(problem.p, math.nan),
                                      alpha=state.alpha, beta=state.beta))
        return state

    vertex, beta_raw = select_min_phi(state.V)
    # phi decreases while vertices shrink, so the running minimum cannot
    # honestly drop; clamp out flow noise and keep the gap nonnegative
    state.beta = min(max(state.beta, beta_raw), state.alpha)
    v = vertex.z

    d_hat = _ray_direction(state.box, v)
    # _evaluate_pending dropped every infeasible vertex, so the selected one
    # has an MP minimizer to start its ray from
    ray = solve_ray(problem, v, d_hat, vertex.mp.flow.x_final[:problem.n])
    w = np.clip(ray.w, state.box.m, v)

    # a converged ray flow ends at a weakly efficient x, which a feasible y
    # makes an incumbent candidate
    x_k = ray.flow.x_final
    y_k = (find_feasible_y(problem, x_k)
           if ray.flow.status is nd.FlowStatus.CONVERGED else None)
    if y_k is not None:
        h_k = problem.upper.value(np.concatenate([x_k, y_k]))
        if h_k < state.alpha:
            state.incumbent = Incumbent(x=x_k.copy(), y=y_k, h=h_k)
            state.beta = min(state.beta, state.alpha)

    if state.alpha - state.beta <= config.epsilon * (1.0 + abs(state.beta)):
        state.status = SolverStatus.OPTIMAL
    else:
        cut(state.V, vertex, w)
        prune(state.V)

    state.log.append(IterationRow(k=state.iterations + 1, v=v.copy(),
                                  alpha=state.alpha, beta=state.beta))
    return state


def solve(problem: BilevelProblem,
          config: Optional[SolverConfig] = None) -> SolverReport:
    """Run the branch-and-bound loop.  Raises ValueError, naming each
    error, on a problem that ``validate`` rejects."""
    if config is None:
        config = SolverConfig()
    errors = validate(problem)
    if errors:
        raise ValueError("; ".join(errors))
    t0 = time.perf_counter()
    state = initialize(problem)
    while state.status is None and state.iterations < config.max_iterations:
        iterate(state, problem, config)
    if state.status is None:
        state.status = SolverStatus.MAX_ITERATIONS
    state.wall_time = time.perf_counter() - t0
    return state
