import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from svbilevel import bnb, catalog
from svbilevel import neurodynamic as nd
from svbilevel.bnb import SolverConfig, SolverStatus
from svbilevel.copolyblock import Vertex, prune
from svbilevel.outcome import MpSolution, OutcomeBox, OutcomeError, \
    RayObjective
from svbilevel.problem import load_problem

from flow_dump import TRI3

INFEASIBLE_TEXT = """\
vars x 2
vars y 1
upper x1 + y1
lower x1
lower x2
constraint_x x1 + x2 - 1
constraint_xy y1 + 1
bound x1 0 1
bound x2 0 1
"""

EMPTY_Y_TEXT = """\
vars x 1
vars y 1
upper x1 + y1
lower x1
lower 1 - x1
constraint_xy y1 - x1 + 2
bound x1 0 1
"""

# no y variables, one coupling row over x: x1 + x2 <= 1 inside X
NO_Y_COUPLED_TEXT = """\
vars x 2
upper x1 + x2
lower x1
lower x2
constraint_x x1 - 1
constraint_xy x1 + x2 - 1
bound x1 -1 2
bound x2 -1 2
"""

# no rows: X is unbounded
UNBOUNDED_TEXT = """\
vars x 2
upper x1 + x2
lower x1
lower x2
"""

# p = 1: a scalar lower level
SCALAR_TEXT = """\
vars x 2
upper x1^2 + x2^2
lower x1^2 + x2^2
bound x1 -1 2
bound x2 -1 2
"""

# X = {x1 + x2 >= 500} in [0, 1000]^2: h* = 500 at (500, 0), and X is
# wider than the arc length 200 at which flows used to be cut
WIDE_TEXT = """\
vars x 2
upper x1 + 2*x2
lower x1
lower x2
constraint_x 500 - x1 - x2
bound x1 0 1000
bound x2 0 1000
"""

# 1/(x1 - 0.3) is not quasiconvex over x1 in [-1, 2]: its minimum over X,
# 1/1.7 = 0.588 at x1 = 2, lies above its largest value on the enclosing
# simplex, M_1 = 0.213; this was reported optimal with h 1
POLE_BOX_TEXT = """\
vars x 2
upper (x1 - 1)^2 + (x2 - 1)^2
lower 1/(x1 - 0.3)
lower x2
bound x1 -1 2
bound x2 -1 2
"""


@pytest.fixture(scope="module")
def report1():
    return bnb.solve(catalog.load_example(1), SolverConfig(epsilon=1e-5))


@pytest.fixture(scope="module")
def report3():
    return bnb.solve(catalog.load_example(3), SolverConfig(epsilon=1e-2))


@pytest.fixture(scope="module")
def report6():
    return bnb.solve(catalog.load_example(6), SolverConfig(epsilon=1e-2))


class TestConfig:
    def test_nonpositive_epsilon_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(epsilon=0.0)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
    def test_nonfinite_epsilon_rejected(self, epsilon):
        with pytest.raises(ValueError, match="finite and positive"):
            SolverConfig(epsilon=epsilon)

    def test_no_direction_field(self):
        # the ray always aims from the vertex toward m
        with pytest.raises(TypeError, match="direction"):
            SolverConfig(direction=[1.0, 1.0])

    def test_fields(self):
        # the flows have no settings of their own
        assert [f.name for f in dataclasses.fields(SolverConfig)] == [
            "epsilon", "max_iterations"]

    def test_bad_iteration_cap_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=0)

    # nan passed the old `< 1` check, and solve then stopped after 0
    # iterations with status max_iterations
    @pytest.mark.parametrize("cap", [math.nan, 2.5])
    def test_non_integer_iteration_cap_rejected(self, cap):
        with pytest.raises(ValueError, match="an integer of at least 1"):
            SolverConfig(max_iterations=cap)

    def test_row_gap(self):
        row = bnb.IterationRow(k=1, v=np.array([1.0]), alpha=2.0, beta=0.5)
        assert row.gap == pytest.approx(1.5)


class TestInitialize:
    def test_example1_initial_lower_bound(self):
        state = bnb.initialize(catalog.load_example(1))
        assert state.beta == pytest.approx(1.25, abs=1e-3)

    def test_example4_initial_lower_bound(self):
        state = bnb.initialize(catalog.load_example(4))
        assert state.beta == pytest.approx(-1.8, abs=1e-3)

    def test_starts_with_top_vertex_only(self):
        state = bnb.initialize(catalog.load_example(1))
        assert len(state.V) == 1
        assert np.allclose(state.V[0].z, state.box.M)

    def test_bounds_ordered(self):
        state = bnb.initialize(catalog.load_example(1))
        assert state.beta <= state.alpha + 1e-9

    def test_empty_region_detected(self):
        state = bnb.initialize(load_problem(INFEASIBLE_TEXT))
        assert state.status is not None
        assert state.status is SolverStatus.INFEASIBLE

    @pytest.mark.parametrize("number,epsilon", [(1, 1e-5), (2, 1e-4)])
    def test_phi_solved_once_per_vertex(self, number, epsilon, monkeypatch):
        # a vertex keeps its phi, so no z is solved twice, M included
        queries = Counter()
        get = bnb.PhiCache.get

        def counted(cache, z, u0=None):
            queries[tuple(np.asarray(z, dtype=float).tolist())] += 1
            return get(cache, z, u0)

        monkeypatch.setattr(bnb.PhiCache, "get", counted)
        report = bnb.solve(catalog.load_example(number),
                           SolverConfig(epsilon=epsilon))
        assert max(queries.values()) == 1
        assert queries[tuple(report.box.M.tolist())] == 1


class TestOneRecord:
    @pytest.mark.parametrize("number,cap", [(3, 500), (1, 2)])
    def test_solve_returns_the_record_initialize_built(self, number, cap,
                                                       monkeypatch):
        built = []
        initialize = bnb.initialize

        def recorded(problem):
            state = initialize(problem)
            # wall_time is NaN and status None until the loop ends
            assert math.isnan(state.wall_time) and state.status is None
            assert state.iterations == 0 and state.log == []
            built.append(state)
            return state

        monkeypatch.setattr(bnb, "initialize", recorded)
        report = bnb.solve(catalog.load_example(number),
                           SolverConfig(max_iterations=cap))
        assert len(built) == 1 and report is built[0]
        assert report.iterations == len(report.log) >= 1
        assert report.status is not None
        assert math.isfinite(report.wall_time) and report.wall_time > 0.0

    def test_iterate_advances_the_record_it_is_given(self):
        problem = catalog.load_example(1)
        state = bnb.initialize(problem)
        assert bnb.iterate(state, problem, SolverConfig()) is state
        assert state.iterations == len(state.log) == 1

    @pytest.mark.parametrize("name", ["report1", "report3"])
    def test_alpha_is_the_incumbents_h(self, name, request):
        report = request.getfixturevalue(name)
        assert report.incumbent is not None
        assert report.alpha == report.incumbent.h

    def test_alpha_and_iterations_are_not_stored(self):
        names = {f.name for f in dataclasses.fields(bnb.SolverReport)}
        assert "alpha" not in names and "iterations" not in names


class TestSolveExamples:
    def test_example1_optimal(self, report1):
        assert report1.status is SolverStatus.OPTIMAL
        assert report1.incumbent is not None

    def test_example3_value(self, report3):
        assert report3.status is SolverStatus.OPTIMAL
        assert report3.alpha == pytest.approx(1.1, abs=1e-2)

    def test_example6_value_and_y(self, report6):
        assert report6.status is SolverStatus.OPTIMAL
        assert report6.alpha <= 0.02
        assert report6.incumbent.y == pytest.approx([1.0 / 7.0, 0.0], abs=1e-2)

    def test_infeasible_problem(self):
        report = bnb.solve(load_problem(INFEASIBLE_TEXT))
        assert report.status is SolverStatus.INFEASIBLE
        assert report.incumbent is None

    def test_iteration_cap(self):
        cfg = SolverConfig(epsilon=1e-12, max_iterations=2)
        report = bnb.solve(catalog.load_example(1), cfg)
        assert report.status is SolverStatus.MAX_ITERATIONS
        assert report.iterations == 2


class TestRayIncumbents:
    """A ray point is an incumbent candidate exactly when its ray flow
    converged: such a flow minimizes max_j (f_j - v_j) / d_j over X, so
    its end point is weakly efficient.  A face probe's MP point is one
    exactly when its MP flow converged, and so ends feasible for MP(z)."""

    def test_no_incumbent_from_unconverged_probe_flows(self, monkeypatch):
        # example 2's probes at epsilon 1e-4 otherwise set the incumbent
        # (1, 1.8249243) and alpha 0.3232387
        problem = catalog.load_example(2)
        flow = nd.solve_flow

        def unconverged_mp(objective, *args, **kwargs):
            res = flow(objective, *args, **kwargs)
            if objective is problem.upper:
                res = dataclasses.replace(res,
                                          status=nd.FlowStatus.UNCONVERGED)
            return res

        monkeypatch.setattr(nd, "solve_flow", unconverged_mp)
        state = bnb.initialize(problem)
        assert state.incumbent is None
        assert state.alpha == math.inf

    def test_no_incumbent_from_unconverged_ray_flows(self, monkeypatch):
        # example 4's face probes set no incumbent, and with every ray
        # flow converged it ends optimal at iteration 2
        flow = nd.solve_flow

        def unconverged_rays(objective, *args, **kwargs):
            res = flow(objective, *args, **kwargs)
            if isinstance(objective, RayObjective):
                res = dataclasses.replace(res,
                                          status=nd.FlowStatus.UNCONVERGED)
            return res

        monkeypatch.setattr(nd, "solve_flow", unconverged_rays)
        report = bnb.solve(catalog.load_example(4),
                           SolverConfig(max_iterations=3))
        assert report.status is SolverStatus.MAX_ITERATIONS
        assert report.incumbent is None
        assert report.alpha == math.inf

    def test_tri3_alpha_within_epsilon_of_h_star(self):
        # tri3's weakly efficient set is the triangle of its three anchors,
        # and h* = 1.375 at (0.25, 0.25, 0); every converged ray point is
        # lifted, so alpha is within epsilon long before beta is
        epsilon, h_star = 1e-2, 1.375
        report = bnb.solve(load_problem(TRI3),
                           SolverConfig(epsilon=epsilon, max_iterations=10))
        assert h_star <= report.alpha <= h_star + epsilon * (1.0 + h_star)


class TestRejectsInvalid:
    """``solve`` refuses what ``validate`` marks as an error, and solves a
    valid X it once refused; each of these problems was reported optimal
    with a wrong h before."""

    def test_unbounded_region(self):
        with pytest.raises(ValueError, match="X has no constraints"):
            bnb.solve(load_problem(UNBOUNDED_TEXT))

    def test_region_wider_than_the_flow_horizon(self):
        # flows used to stop at arc length 200: this X was refused, and
        # before the box flows had to converge it was reported with h 563.44
        report = bnb.solve(load_problem(WIDE_TEXT))
        assert report.status is SolverStatus.OPTIMAL
        assert abs(report.incumbent.h - 500.0) <= 1e-2 * (1.0 + 500.0)

    def test_scalar_lower_level(self):
        with pytest.raises(ValueError, match=r"vectorial \(p >= 2\)"):
            bnb.solve(load_problem(SCALAR_TEXT))

    def test_a_minimum_above_the_vertex_bound(self):
        with pytest.raises(OutcomeError,
                           match=r"^f_1: its minimum over X, 0\.588235, "
                                 r"exceeds M_1 = 0\.212766"):
            bnb.solve(load_problem(POLE_BOX_TEXT))


class TestInvariants:
    @pytest.fixture(params=[("report1", 1, 1e-5), ("report3", 3, 1e-2),
                            ("report6", 6, 1e-2)],
                    ids=["ex1", "ex3", "ex6"])
    def case(self, request):
        name, number, eps = request.param
        return request.getfixturevalue(name), number, eps

    @pytest.fixture
    def report(self, case):
        return case[0]

    def test_alpha_nonincreasing(self, report):
        alphas = [row.alpha for row in report.log]
        assert all(b <= a + 1e-9 for a, b in zip(alphas, alphas[1:]))

    def test_beta_nondecreasing(self, report):
        betas = [row.beta for row in report.log]
        assert all(b >= a - 1e-9 for a, b in zip(betas, betas[1:]))

    def test_gap_nonnegative(self, report):
        assert all(row.gap >= -1e-9 for row in report.log)

    def test_termination_certificate(self, case):
        report, _, eps = case
        assert report.alpha - report.beta <= eps * (1.0 + abs(report.beta)) + 1e-12

    def test_vertices_stay_in_box(self, report):
        for row in report.log:
            if np.isnan(row.v).all():
                # the round that empties the vertex set selects no vertex
                continue
            assert np.all(row.v >= report.box.m - 1e-9)
            assert np.all(row.v <= report.box.M + 1e-9)

    def test_incumbent_matches_alpha(self, report):
        assert report.incumbent.h == pytest.approx(report.alpha, abs=1e-12)

    def test_log_is_consecutive(self, report):
        # every round records a row, the one that empties the vertex set too
        ks = [row.k for row in report.log]
        assert ks == list(range(1, len(ks) + 1))
        assert len(ks) == report.iterations


class TestRayStart:
    """A child's ray starts at the end point of its parent's converged ray
    flow when that point's ray objective value is strictly lower than at
    the child's MP minimizer, else at the minimizer; a child of a ray flow
    that did not converge carries no parent point."""

    def test_each_ray_starts_at_the_lower_of_its_two_points(self,
                                                            monkeypatch):
        # example 2 at epsilon 1e-4: 20 rays, 19 of them from children
        problem = catalog.load_example(2)
        flow, solve_ray = nd.solve_flow, bnb.solve_ray
        calls = []

        def spied_flow(objective, rows, x0):
            if isinstance(objective, RayObjective):
                calls[-1].append(np.array(x0, dtype=float))
            return flow(objective, rows, x0)

        def spied_ray(problem, v, d_hat, x0, x_parent=None):
            calls.append([RayObjective(problem, v, d_hat), x0, x_parent])
            return solve_ray(problem, v, d_hat, x0, x_parent)

        monkeypatch.setattr(nd, "solve_flow", spied_flow)
        monkeypatch.setattr(bnb, "solve_ray", spied_ray)
        report = bnb.solve(problem, SolverConfig(epsilon=1e-4))
        assert len(calls) == report.iterations == 20
        assert calls[0][2] is None
        warm = cold = 0
        for objective, x0, x_parent, start in calls[1:]:
            assert x_parent is not None
            lower = objective.value(x_parent) < objective.value(x0)
            expect = x_parent if lower else x0
            assert start.tobytes() == np.asarray(expect).tobytes()
            warm, cold = warm + lower, cold + (not lower)
        # both starts occur
        assert warm and cold

    @pytest.mark.parametrize("number", [1, 2, 5])
    def test_children_carry_their_parents_ray_end_point(self, number,
                                                        monkeypatch):
        problem = catalog.load_example(number)
        solve_ray = bnb.solve_ray
        rays = []

        def spied_ray(*args):
            rays.append(solve_ray(*args))
            return rays[-1]

        monkeypatch.setattr(bnb, "solve_ray", spied_ray)
        state = bnb.initialize(problem)
        bnb.iterate(state, problem, SolverConfig(epsilon=1e-5))
        (ray,) = rays
        assert ray.flow.status is nd.FlowStatus.CONVERGED
        assert state.V
        for vertex in state.V:
            assert vertex.x_parent.tobytes() == ray.flow.x_final.tobytes()

    def test_a_child_of_an_unconverged_ray_gets_no_parent_point(
            self, monkeypatch):
        flow = nd.solve_flow

        def unconverged_rays(objective, *args, **kwargs):
            res = flow(objective, *args, **kwargs)
            if isinstance(objective, RayObjective):
                res = dataclasses.replace(res,
                                          status=nd.FlowStatus.UNCONVERGED)
            return res

        monkeypatch.setattr(nd, "solve_flow", unconverged_rays)
        problem = catalog.load_example(2)
        state = bnb.initialize(problem)
        bnb.iterate(state, problem, SolverConfig(epsilon=1e-4))
        assert state.V
        assert all(vertex.x_parent is None for vertex in state.V)


class TestOnePrunePerCut:
    @pytest.mark.parametrize("number, epsilon", [
        (1, 1e-5), (2, 1e-2), (3, 1e-2), (4, 1e-2), (5, 1e-2), (6, 1e-2),
        (2, 1e-4)], ids=["ex1", "ex2", "ex3", "ex4", "ex5", "ex6", "ex2-deep"])
    def test_evaluated_vertices_need_no_prune(self, number, epsilon,
                                              monkeypatch):
        # V is pruned right after each cut; evaluating phi drops only
        # infeasible and lower-face vertices, and dropping vertices makes no
        # other one dominated, so a prune after it drops nothing
        evaluate = bnb._evaluate_pending
        checked = []

        def checked_evaluate(state, problem):
            evaluate(state, problem)
            V = list(state.V)
            prune(V)
            assert V == state.V
            checked.append(len(V))

        monkeypatch.setattr(bnb, "_evaluate_pending", checked_evaluate)
        report = bnb.solve(catalog.load_example(number),
                           SolverConfig(epsilon=epsilon))
        assert len(checked) == report.iterations + 1


class TestEvaluatePending:
    def test_an_infeasible_vertex_is_dropped_and_the_rest_keep_order(self):
        # MP(z) is infeasible where z_1 > 0.5; every feasible MP ends at
        # (0.5, 0.5), off the box's lower faces
        problem = load_problem("vars x 2\nupper x1 + x2\nlower x1\n"
                               "lower x2\nbound x1 0 1\nbound x2 0 1\n")
        box = OutcomeBox(m=np.full(2, -1.0), M=np.ones(2),
                         simplex_vertices=[], m_argmin=[],
                         x_feasible=np.zeros(2))
        feasible = MpSolution(flow=nd.FlowResult(
            np.full(2, 0.5), 1.0, 0.0, nd.FlowStatus.CONVERGED, 1, 0.0))
        solved = []

        class Cache:
            def get(self, z):
                solved.append(tuple(z))
                return MpSolution(flow=None) if z[0] > 0.5 else feasible

        V = [Vertex(np.array(z)) for z in
             [(0.2, 0.9), (0.7, 0.4), (0.4, 0.6), (0.9, 0.1), (0.1, 1.0)]]
        # an evaluated vertex is not solved again, whatever its z
        V[4].mp = feasible
        state = bnb.SolverReport(box=box, V=list(V), cache=Cache(),
                                 beta=math.inf, incumbent=None)
        bnb._evaluate_pending(state, problem)
        assert solved == [(0.2, 0.9), (0.7, 0.4), (0.4, 0.6), (0.9, 0.1)]
        assert state.V == [V[0], V[2], V[4]]


    @pytest.mark.parametrize("number", [1, 2, 4])
    def test_a_vertex_on_a_lower_face_is_dropped(self, number):
        # cut keeps a child on a lower face z_i = m_i; its MP(z) is
        # infeasible or ends with f_i at m_i, and either way it goes here
        problem = catalog.load_example(number)
        state = bnb.initialize(problem)
        bnb.iterate(state, problem, SolverConfig())
        bnb._evaluate_pending(state, problem)
        kept = list(state.V)
        assert kept and all(v.mp is not None for v in kept)
        faces = []
        for i in range(problem.p):
            z = state.box.M.copy()
            z[i] = state.box.m[i]
            faces.append(Vertex(z))
        # each face vertex after the kept vertex of its place, if any
        state.V = [v for j in range(max(len(kept), len(faces)))
                   for v in kept[j:j + 1] + faces[j:j + 1]]
        bnb._evaluate_pending(state, problem)
        assert all(v.mp is not None for v in faces)
        assert state.V == kept


class TestIncumbentFeasibility:
    @pytest.fixture(params=[("report1", 1), ("report3", 3), ("report6", 6)],
                    ids=["ex1", "ex3", "ex6"])
    def case(self, request):
        name, number = request.param
        return request.getfixturevalue(name), number

    def test_point_lies_in_joint_region(self, case):
        report, number = case
        problem = catalog.load_example(number)
        x, y = report.incumbent.x, report.incumbent.y
        u = np.concatenate([x, y])
        assert max(problem.x_region().evaluate(x)[0]) <= 1e-6
        for g in problem.coupling:
            assert g.value(u) <= 1e-6
        assert np.all(y >= -1e-9)
        assert problem.upper.value(u) == pytest.approx(report.incumbent.h,
                                                       abs=1e-9)


class TestDeterminism:
    def test_repeat_run_identical(self, report3):
        again = bnb.solve(catalog.load_example(3), SolverConfig(epsilon=1e-2))
        assert again.status is report3.status
        assert again.iterations == report3.iterations
        assert again.alpha == report3.alpha
        assert again.beta == report3.beta


class TestFindFeasibleY:
    def test_no_y_membership_accepts(self):
        problem = catalog.load_example(3)
        y = bnb.find_feasible_y(problem, np.zeros(3))
        assert y is not None and len(y) == 0

    def test_no_y_rows_checked_within_the_feasibility_tolerance(self):
        problem = load_problem(NO_Y_COUPLED_TEXT)
        y = bnb.find_feasible_y(problem, np.array([0.0, 0.5]))
        assert y is not None and len(y) == 0
        # the coupling row x1 + x2 - 1 at 5e-7 above zero: past the flows'
        # FEASIBILITY_TOL
        assert bnb.find_feasible_y(problem,
                                   np.array([0.0, 1.0 + 5e-7])) is None

    def test_coupled_lift_succeeds(self):
        problem = catalog.load_example(6)
        x = np.array([0.130662, 0.156198, 1.558087])
        y = bnb.find_feasible_y(problem, x)
        assert y is not None
        u = np.concatenate([x, y])
        assert all(g.value(u) <= 1e-6 for g in problem.coupling)
        assert np.all(y >= -1e-9)

    def test_empty_y_slice_returns_none(self):
        problem = load_problem(EMPTY_Y_TEXT)
        y = bnb.find_feasible_y(problem, np.array([0.5]))
        assert y is None
