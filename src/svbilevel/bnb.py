"""Branch-and-bound driver over the outcome space.

The driver maintains an inner copolyblock approximation of the weakly
nondominated outcome set.  Each iteration evaluates the monotone value
function phi at the pending vertices, takes the least value as the lower
bound beta, projects the argmin vertex v onto the frontier along the ray
from v toward the box's lower corner m, tries to lift the projected point
to a feasible upper-level pair for the incumbent, and cuts the vertex with
the projection.  The loop stops when alpha - beta <= epsilon * (1 + |beta|),
when the vertex set empties, or at the iteration cap.
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
from .copolyblock import VertexSet, cut, prune, select_min_phi
from .outcome import OutcomeBox, PhiCache, compute_box, solve_ray
from .problem import BilevelProblem, stacked_mp_constraints, validate

# Outcomes within BOUNDARY_TOL of a lower face z_i = m_i are the face probes'
# to cover; a ray point w within W_MATCH_TOL of its f(x) is an outcome.
BOUNDARY_TOL = 1e-9
W_MATCH_TOL = 1e-4


class SolverStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    MAX_ITERATIONS = "max_iterations"


@dataclass
class SolverConfig:
    epsilon: float = 1e-2
    max_iterations: int = 500
    # records every step of every flow when set
    trace: Optional[nd.TraceRecorder] = None

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
class SolverState:
    box: OutcomeBox
    V: VertexSet
    cache: PhiCache
    alpha: float
    beta: float
    incumbent: Optional[Incumbent]
    k: int = 0
    log: list = field(default_factory=list)
    # None while the loop runs
    status: Optional[SolverStatus] = None


@dataclass
class SolverReport:
    status: SolverStatus
    incumbent: Optional[Incumbent]
    alpha: float
    beta: float
    log: list
    iterations: int
    wall_time: float
    box: OutcomeBox


def _ray_direction(box: OutcomeBox, v: np.ndarray) -> np.ndarray:
    # aim from the vertex toward m, floored away from zero so the direction
    # stays strictly positive on the lower faces; the floor is tiny because
    # an inflated component chokes the step the ray can take in the
    # coordinates that still have distance to cover
    span = np.maximum(box.M - box.m, 1e-9)
    return np.maximum(v - box.m, 1e-6 * span)


def _evaluate_pending(state: SolverState, problem: BilevelProblem) -> None:
    """Fill phi for pending vertices; drop infeasible vertices and vertices
    whose minimizer sits on the lower boundary of the box (those outcomes
    are covered by the initialization subproblems)."""
    for v in state.V.pending():
        sol = state.cache.get(v.z)
        v.mp = sol
        if not sol.feasible:
            continue
        for i, f in enumerate(problem.lower):
            if abs(f.value(sol.x) - state.box.m[i]) <= BOUNDARY_TOL:
                state.V.remove(v)
                break
    prune(state.V)


def _in_stack(problem: BilevelProblem, sol) -> bool:
    """Whether an MP solution lies in its own region {u in G | f(x) <= z},
    row by row within the flows' ``FEASIBILITY_TOL``."""
    u = np.concatenate([sol.x, sol.y])
    rows = stacked_mp_constraints(problem, sol.z)
    return bool((rows.values(u) <= nd.FEASIBILITY_TOL).all())


def initialize(problem: BilevelProblem, config: SolverConfig) -> SolverState:
    """Box, singleton vertex set {M}, the p lower-face upper-bound probes,
    then phi at M and the initial bounds."""
    box = compute_box(problem, config.trace)
    cache = PhiCache(problem, box, config.trace)
    V = VertexSet(box.m)
    top = V.add(box.M)

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
        if sol.feasible and sol.phi < alpha and _in_stack(problem, sol):
            alpha = sol.phi
            incumbent = Incumbent(x=sol.x, y=sol.y, h=sol.phi)

    state = SolverState(box=box, V=V, cache=cache, alpha=alpha,
                        beta=math.inf, incumbent=incumbent)
    # M is a vertex like any other: one solve, and its lower-face check
    _evaluate_pending(state, problem)
    if top.mp.feasible:
        state.beta = top.mp.phi
    elif incumbent is None:
        state.status = SolverStatus.INFEASIBLE
    return state


def find_feasible_y(problem: BilevelProblem, x) -> Optional[np.ndarray]:
    """Lift x to (x, y) in G at fixed x: a feasibility flow over y on the
    rows of G that involve y, both checked within ``FEASIBILITY_TOL``.
    With no y variables the flow returns the empty point or None."""
    x = np.asarray(x, dtype=float)
    if (problem.x_region().values(x) > nd.FEASIBILITY_TOL).any():
        return None
    return nd.find_feasible(problem.lift_rows(x), np.ones(problem.m))


def iterate(state: SolverState, problem: BilevelProblem,
            config: SolverConfig) -> SolverState:
    """One bound-update / projection / cut round."""
    if state.status is not None:
        return state
    state.k += 1
    _evaluate_pending(state, problem)
    if len(state.V) == 0:
        if state.incumbent is not None:
            state.beta = state.alpha
            state.status = SolverStatus.OPTIMAL
        else:
            state.status = SolverStatus.INFEASIBLE
        # no vertex was selected
        state.log.append(IterationRow(k=state.k, v=np.full(problem.p, math.nan),
                                      alpha=state.alpha, beta=state.beta))
        return state

    vertex, beta_raw = select_min_phi(state.V)
    # phi decreases while vertices shrink, so the running minimum cannot
    # honestly drop; clamp out flow noise and keep the gap nonnegative
    state.beta = min(max(state.beta, beta_raw), state.alpha)
    v = vertex.z

    d_hat = _ray_direction(state.box, v)
    # prune dropped every infeasible vertex, so the selected one has an MP
    # minimizer to start its ray from
    ray = solve_ray(problem, v, d_hat, vertex.mp.x, config.trace)
    z_k = np.array([f.value(ray.x) for f in problem.lower])
    w = np.clip(ray.w, state.box.m, v)

    # the incumbent candidate is only valid when the ray point is itself an
    # outcome; a stale candidate from a failed match must not be re-applied
    update = False
    y_k = None
    if (np.max(np.abs(ray.w - z_k)) <= W_MATCH_TOL
            and np.all(ray.w > state.box.m + BOUNDARY_TOL)):
        y_k = find_feasible_y(problem, ray.x)
        update = y_k is not None
    if update:
        u = np.concatenate([ray.x, y_k])
        h_k = problem.upper.value(u)
        if h_k < state.alpha:
            state.alpha = h_k
            state.incumbent = Incumbent(x=ray.x.copy(), y=y_k, h=h_k)
            state.beta = min(state.beta, state.alpha)

    if state.alpha - state.beta <= config.epsilon * (1.0 + abs(state.beta)):
        state.status = SolverStatus.OPTIMAL
    else:
        cut(state.V, vertex, w)
        prune(state.V)

    state.log.append(IterationRow(k=state.k, v=v.copy(), alpha=state.alpha,
                                  beta=state.beta))
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
    state = initialize(problem, config)
    while state.status is None and state.k < config.max_iterations:
        iterate(state, problem, config)
    if state.status is None:
        state.status = SolverStatus.MAX_ITERATIONS
    return SolverReport(status=state.status, incumbent=state.incumbent,
                        alpha=state.alpha, beta=state.beta, log=state.log,
                        iterations=state.k,
                        wall_time=time.perf_counter() - t0, box=state.box)
