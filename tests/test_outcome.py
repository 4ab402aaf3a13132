import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from svbilevel import bnb, catalog, outcome
from svbilevel import expr as ex
from svbilevel import neurodynamic as nd
from svbilevel.expr import BinOp, CompiledExpr, Const, Max
from svbilevel.neurodynamic import (
    FlowStatus, find_feasible, solve_flow,
)
from svbilevel.outcome import (
    PhiCache, RayObjective, compute_box, solve_mp, solve_ray,
)
from svbilevel.problem import (
    find_interior_start, load_problem, stacked_mp_constraints,
)

from test_expr import COORDS, SMOOTH_EXPRESSIONS, _band_generators, _bits

SIMPLEX = """\
vars x 2
upper x1
lower x1
lower x2
constraint_x x1 + x2 - 1
constraint_x -x1 - x2 + 1
bound x1 0 inf
bound x2 0 inf
"""

UNIT_BOX = """\
vars x 2
upper x1
lower x1 + x2
lower x1 - x2
bound x1 0 1
bound x2 0 1
"""


@pytest.fixture(scope="module")
def ex1():
    return catalog.load_example(1)


@pytest.fixture(scope="module")
def ex1_box(ex1):
    return compute_box(ex1)


def start(problem, box):
    """``PhiCache``'s start: the box's feasible point of X, y = 1."""
    return np.concatenate([box.x_feasible, np.ones(problem.m)])


class TestComputeBox:
    def test_example1(self, ex1_box):
        np.testing.assert_allclose(ex1_box.m, [-3.2875, -1.2], atol=2e-3)
        np.testing.assert_allclose(ex1_box.simplex_vertices[0],
                                   [0.25, 0.166667], atol=2e-3)
        # each other vertex sums to U, the max of x1 + x2 over X
        assert sum(ex1_box.simplex_vertices[1]) == pytest.approx(2.683,
                                                                 abs=2e-3)
        np.testing.assert_allclose(ex1_box.M, [6.6994, 4.8916], atol=2e-2)

    def test_example3(self):
        box = compute_box(catalog.load_example(3))
        np.testing.assert_allclose(box.m, [1.0, 0.5, 0.785714, 0.785714],
                                   atol=2e-3)
        np.testing.assert_allclose(box.M, [1.5, 1.0, 1.0, 1.25], atol=2e-2)

    def test_linear_objectives_on_unit_box(self):
        box = compute_box(load_problem(UNIT_BOX))
        np.testing.assert_allclose(box.m, [0.0, -1.0], atol=1e-3)
        assert sum(box.simplex_vertices[1]) == pytest.approx(2.0, abs=1e-3)
        np.testing.assert_allclose(box.M, [2.0, 2.0], atol=1e-2)

    def test_box_contains_sampled_outcomes(self, ex1, ex1_box):
        rng = np.random.default_rng(11)
        region = ex1.x_region()
        count = 0
        while count < 1000:
            x = rng.uniform(0.0, 2.6, 2)
            if max(region.evaluate(x)[0]) > 0:
                continue
            z = np.array([f.value(x) for f in ex1.lower])
            assert np.all(z >= ex1_box.m - 0.02)
            assert np.all(z <= ex1_box.M + 0.02)
            count += 1

    # X is unbounded where the min f_i flows do not go, so only the named
    # enclosure flow stops short
    @pytest.mark.parametrize("text, flow", [
        ("vars x 1\nupper x1\nlower x1^2\nlower (x1 + 1)^2\n"
         "constraint_x x1\n", "min x_1 over X"),
        ("vars x 2\nupper x1\nlower x1^2 + x2^2\nlower (x1 - 1)^2 + x2^2\n"
         "bound x1 0 inf\nbound x2 0 inf\n", "max <e, x> over X"),
    ], ids=["min-x", "max-sum"])
    def test_enclosure_flows_must_converge(self, text, flow):
        with pytest.raises(outcome.OutcomeError,
                           match=rf"^{re.escape(flow)}: flow ended Diverged "
                                 r"after \d+ steps; X may be unbounded$"):
            compute_box(load_problem(text))


class TestSolveRay:
    def test_simplex_analytic(self):
        prob = load_problem(SIMPLEX)
        sol = solve_ray(prob, v=[1.0, 1.0], d_hat=[1.0, 1.0],
                        x0=find_interior_start(prob))
        # w = v + t d_hat at t = -0.5
        np.testing.assert_allclose(sol.w, [0.5, 0.5], atol=1e-3)

    def test_ray_identity_and_consistency(self, ex1, ex1_box):
        v, d_hat = ex1_box.M, np.ones(2)
        sol = solve_ray(ex1, v=v, d_hat=d_hat, x0=ex1_box.x_feasible)
        # w = v + t d_hat at t, the ray objective at x; rounding is
        # monotone, so t is the max over the objectives of
        # (f_j(x) - v_j) / d_j exactly
        x = sol.flow.x_final
        t = RayObjective(ex1, v, d_hat).value(x)
        assert sol.w.tobytes() == (v + t * d_hat).tobytes()
        assert t == max((f.value(x) - v[j]) / d_hat[j]
                        for j, f in enumerate(ex1.lower))

    @pytest.mark.parametrize("number", range(1, 7))
    def test_every_flow_reports_its_objective_at_its_end(self, number,
                                                         monkeypatch):
        # solve_ray takes t from the flow's objective_value, so a flow must
        # report value(x_final) to the bit, however it ended
        ends = []
        flow = nd.solve_flow

        def recorded(objective, *args, **kwargs):
            res = flow(objective, *args, **kwargs)
            ends.append((objective, res))
            return res

        monkeypatch.setattr(nd, "solve_flow", recorded)
        bnb.solve(catalog.load_example(number),
                  bnb.SolverConfig(epsilon=1e-5 if number == 1 else 1e-2))
        ends = [(obj, res) for obj, res in ends
                if res.status is not FlowStatus.DIVERGED]
        assert ends
        for obj, res in ends:
            assert (float(res.objective_value).hex()
                    == float(obj.value(res.x_final)).hex())

    def test_w_weakly_nondominated_on_grid(self, ex1, ex1_box):
        sol = solve_ray(ex1, v=ex1_box.M, d_hat=[1.0, 1.0],
                        x0=ex1_box.x_feasible)
        region = ex1.x_region()
        axes = np.linspace(0.0, 2.6, 400)
        r = 0.02
        for a in axes:
            for b in axes:
                x = np.array([a, b])
                if max(region.evaluate(x)[0]) > 0:
                    continue
                z = np.array([f.value(x) for f in ex1.lower])
                assert not np.all(z < sol.w - r)

    def test_point_already_on_frontier(self, ex1, ex1_box):
        first = solve_ray(ex1, v=ex1_box.M, d_hat=[1.0, 1.0],
                          x0=ex1_box.x_feasible)
        again = solve_ray(ex1, v=first.w, d_hat=[1.0, 1.0],
                          x0=ex1_box.x_feasible)
        # t = 0: w stays where it started
        np.testing.assert_allclose(again.w, first.w, atol=1e-3)

    def test_nonpositive_direction_rejected(self, ex1, ex1_box):
        with pytest.raises(ValueError):
            solve_ray(ex1, v=ex1_box.M, d_hat=[1.0, 0.0],
                      x0=ex1_box.x_feasible)

    @pytest.mark.parametrize("d_hat", [[math.nan, 1.0], [1.0, math.inf]])
    def test_nonfinite_direction_rejected(self, ex1, ex1_box, d_hat):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            solve_ray(ex1, v=ex1_box.M, d_hat=d_hat, x0=ex1_box.x_feasible)

    def test_flattened_objective_generators(self, ex1):
        # the second lower objective is itself a max of two affine pieces,
        # so the ray objective has three branches in total
        obj = RayObjective(ex1, v=np.zeros(2), d_hat=np.ones(2))
        assert len(obj.terms) == 3
        assert len(obj.branch_pairs(np.array([1.0, 1.0]))) == 3


def _reference_ray(lower, n, v, d_hat):
    """The ray objective as an expression, compiled: the max over every
    branch of every f_j of (branch - v_j) / d_j."""
    children = []
    for j, f in enumerate(lower):
        branches = f.ast.children if isinstance(f.ast, Max) else (f.ast,)
        for b in branches:
            shifted = BinOp("-", b, Const(float(v[j])))
            children.append(BinOp("/", shifted, Const(float(d_hat[j]))))
    return CompiledExpr(Max(tuple(children)), n)


def _ray_outcome(fn, x):
    """Bit patterns, up to the sign of zero, of a value, of (value,
    [generator, ...]) or of [(value, gradient), ...], or the type of the
    error raised."""
    try:
        out = fn(x)
    except ex.EvaluationError as err:
        return type(err).__name__
    if isinstance(out, list):
        return [(_bits(v), [_bits(c) for c in g]) for v, g in out]
    if isinstance(out, tuple):
        return _bits(out[0]), [[_bits(c) for c in g] for g in out[1]]
    return _bits(out)


RAY_EXAMPLES = {i: catalog.load_example(i) for i in (1, 2, 3, 6)}
SHIFTS = st.sampled_from([0.0, 1.0, -0.5]) | st.floats(-5, 5)
SCALES = st.sampled_from([1.0, 8.5e-4, 1e-6]) | st.floats(1e-4, 10)
BANDS = st.sampled_from([1e-9, 1e-4, 1e-2, 0.5])


class TestRayObjective:
    def _check(self, data, lower, n):
        v = data.draw(st.lists(SHIFTS, min_size=len(lower), max_size=len(lower)))
        d = data.draw(st.lists(SCALES, min_size=len(lower), max_size=len(lower)))
        x = np.array(data.draw(st.lists(COORDS, min_size=n, max_size=n)))
        obj = RayObjective(SimpleNamespace(lower=lower), v, d)
        ref = _reference_ray(lower, n, v, d)
        with np.errstate(all="ignore"):
            assert _ray_outcome(obj.value, x) == _ray_outcome(ref.value, x)
            # one arithmetic: wherever the branch pairs are finite, the
            # value is their top, bit for bit
            try:
                pairs = obj.branch_pairs(x)
            except ex.EvaluationError:
                pairs = None
            if pairs:
                assert obj.value(x).hex() == max(r for r, _ in pairs).hex()
            # the flow reads the branch pairs: each is the reference's
            assert _ray_outcome(obj.branch_pairs, x) \
                == _ray_outcome(ref.branch_pairs, x)
            # one object at two bands: the band over the pairs is the same
            for tol in data.draw(st.lists(BANDS, min_size=2, max_size=2)):
                assert _ray_outcome(lambda u: _band_generators(
                    obj.branch_pairs(u), tol), x) \
                    == _ray_outcome(lambda u: ref.value_generators(u, tol), x)

    def test_value_where_a_power_overflows(self):
        # (1e100^2)^2 overflows: the first branch is -inf and the second
        # one sets the value
        v2 = ["x1", "x2"]
        lower = [CompiledExpr(ex.parse_expression("-((x1^2)^2)", v2), 2),
                 CompiledExpr(ex.parse_expression("x2", v2), 2)]
        v, d = [0.5, 0.25], [1.0, 0.5]
        x = np.array([1e100, 0.5])
        obj = RayObjective(SimpleNamespace(lower=lower), v, d)
        with np.errstate(all="ignore"):
            assert obj.value(x) == _reference_ray(lower, 2, v, d).value(x) == 0.5

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_repeats_the_compiled_expression_on_the_examples(self, data):
        problem = RAY_EXAMPLES[data.draw(st.sampled_from(sorted(RAY_EXAMPLES)))]
        self._check(data, problem.lower, problem.n)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_repeats_the_compiled_expression_on_random_trees(self, data):
        # lower objectives from the max-free expression strategy, as they
        # are or under a root max
        asts = []
        for _ in range(data.draw(st.integers(2, 3))):
            kids = data.draw(st.lists(SMOOTH_EXPRESSIONS, min_size=1, max_size=3))
            asts.append(Max(tuple(kids)) if len(kids) > 1 else kids[0])
        try:
            lower = [CompiledExpr(a, 3) for a in asts]
        except ex.EvaluationError:
            assume(False)
        self._check(data, lower, 3)


class TestSolveMp:
    def test_example1_phi_at_M(self, ex1, ex1_box):
        sol = solve_mp(ex1, ex1_box.M, start(ex1, ex1_box))
        assert sol.feasible
        assert sol.phi == pytest.approx(1.25, abs=1e-3)
        np.testing.assert_allclose(sol.flow.x_final[:ex1.n], [1.0, 0.5],
                                   atol=5e-3)

    def test_example3_phi_at_M(self):
        prob = catalog.load_example(3)
        box = compute_box(prob)
        sol = solve_mp(prob, box.M, start(prob, box))
        assert sol.feasible
        assert sol.phi == pytest.approx(1.1, abs=5e-3)

    def test_infeasible_below_m(self, ex1, ex1_box):
        sol = solve_mp(ex1, ex1_box.m - 1.0, start(ex1, ex1_box))
        assert not sol.feasible
        assert math.isinf(sol.phi)

    def test_phi_monotone_on_chain(self, ex1, ex1_box):
        lo, hi = ex1_box.m, ex1_box.M
        zs = [lo + t * (hi - lo) for t in (0.35, 0.55, 0.75, 1.0)]
        phis = []
        for z in zs:
            sol = solve_mp(ex1, z, start(ex1, ex1_box))
            if sol.feasible:
                phis.append(sol.phi)
        assert len(phis) >= 2
        for a, b in zip(phis, phis[1:]):
            assert a >= b - 1e-4

    def test_solution_satisfies_constraints(self, ex1, ex1_box):
        sol = solve_mp(ex1, ex1_box.M, start(ex1, ex1_box))
        x = sol.flow.x_final[:ex1.n]
        for j, f in enumerate(ex1.lower):
            assert f.value(x) <= ex1_box.M[j] + 1e-6
        assert max(ex1.x_region().evaluate(x)[0]) <= 1e-6


class TestFalseInfeasibleVertices:
    """Three vertices of example 1's run at epsilon 1e-5, where
    ``find_feasible`` from the default start (1, 1) stalls: its
    summed-gradient step on the violated row f_1 - z_1 is blocked by the
    tight row f_2 - z_2 [2] at a point that is not stationary for S (the
    least-norm subgradient of S there is 0.7 to 0.9, the summed gradient
    about 2).  Each MP(z) has a point meeting every row with a margin of
    at least 0.01."""

    # (z, a point of MP(z) found on a grid, the least margin of its rows)
    VERTICES = [
        ((-3.13548539, -0.63868676), (0.305, 1.205), 0.01),
        ((-3.05336287, -0.75839657), (0.5, 1.31), 0.0156),
        ((-3.10326878, -0.73691376), (0.455, 1.295), 0.0106),
    ]

    @pytest.mark.parametrize("z,x,margin", VERTICES)
    def test_the_vertex_is_feasible(self, ex1, z, x, margin):
        rows = stacked_mp_constraints(ex1, z)
        assert max(rows.evaluate(np.array(x))[0]) <= -margin

    def test_the_first_vertex_lies_below_the_certified_beta(self, ex1):
        # the run certifies beta = 1.79250 with phi of this vertex at inf
        z, x, _ = self.VERTICES[0]
        rows = stacked_mp_constraints(ex1, z)
        res = solve_flow(ex1.upper, rows, np.array(x))
        assert res.status is FlowStatus.CONVERGED
        assert res.objective_value == pytest.approx(1.7323, abs=1e-4)

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="find_feasible's summed-gradient descent stalls against the "
               "tight row f_2 - z_2 [2] at a non-stationary point of S and "
               "reports these feasible MP(z) infeasible; example 1's "
               "OPTIMAL rests on the three verdicts")
    @pytest.mark.parametrize("z,x,margin", VERTICES)
    def test_find_feasible_finds_a_point(self, ex1, z, x, margin):
        rows = stacked_mp_constraints(ex1, z)
        u = find_feasible(rows, np.array([1.0, 1.0]))
        assert u is not None
        assert max(rows.evaluate(u)[0]) <= 1e-7


class TestInteriorStart:
    def test_box_point_replaces_the_interior_search(self, ex1, monkeypatch):
        box = compute_box(ex1)
        fresh = find_interior_start(ex1)
        assert box.x_feasible.tobytes() == fresh.tobytes()

        def refuse(*args):
            raise AssertionError("interior start searched again")
        monkeypatch.setattr(outcome, "find_interior_start", refuse)
        cache = PhiCache(ex1, box)
        expected = np.concatenate([box.x_feasible, np.ones(ex1.m)])
        assert cache.start.tobytes() == expected.tobytes()
        assert cache.get(box.M).feasible
        ray = solve_ray(ex1, box.M, [1.0, 1.0], box.x_feasible)
        assert np.isfinite(ray.w).all()


class TestPhiCache:
    def test_every_query_is_a_solve(self, ex1, ex1_box):
        cache = PhiCache(ex1, ex1_box)
        a = cache.get(ex1_box.M)
        b = cache.get(ex1_box.M.copy())
        assert a is not b
        assert a.phi == b.phi
        assert cache.misses == 2

    def test_distinct_keys(self, ex1, ex1_box):
        cache = PhiCache(ex1, ex1_box)
        cache.get(ex1_box.M)
        cache.get(ex1_box.M - 1e-3)
        assert cache.misses == 2
