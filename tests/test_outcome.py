import math

import numpy as np
import pytest

from svbilevel import catalog
from svbilevel.neurodynamic import FlowConfig
from svbilevel.outcome import (
    PhiCache, compute_box, ray_objective, solve_mp, solve_ray,
)
from svbilevel.problem import load_problem

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


class TestComputeBox:
    def test_example1(self, ex1_box):
        np.testing.assert_allclose(ex1_box.m, [-3.2875, -1.2], atol=2e-3)
        np.testing.assert_allclose(ex1_box.simplex_vertices[0],
                                   [0.25, 0.166667], atol=2e-3)
        assert ex1_box.U == pytest.approx(2.683, abs=2e-3)
        np.testing.assert_allclose(ex1_box.M, [6.6994, 4.8916], atol=2e-2)

    def test_example3(self):
        box = compute_box(catalog.load_example(3))
        np.testing.assert_allclose(box.m, [1.0, 0.5, 0.785714, 0.785714],
                                   atol=2e-3)
        np.testing.assert_allclose(box.M, [1.5, 1.0, 1.0, 1.25], atol=2e-2)

    def test_linear_objectives_on_unit_box(self):
        box = compute_box(load_problem(UNIT_BOX))
        np.testing.assert_allclose(box.m, [0.0, -1.0], atol=1e-3)
        assert box.U == pytest.approx(2.0, abs=1e-3)
        np.testing.assert_allclose(box.M, [2.0, 2.0], atol=1e-2)

    def test_box_contains_sampled_outcomes(self, ex1, ex1_box):
        rng = np.random.default_rng(11)
        region = ex1.x_region()
        count = 0
        while count < 1000:
            x = rng.uniform(0.0, 2.6, 2)
            if max(c.value(x) for c in region) > 0:
                continue
            z = np.array([f.value(x) for f in ex1.lower])
            assert np.all(z >= ex1_box.m - 0.02)
            assert np.all(z <= ex1_box.M + 0.02)
            count += 1


class TestSolveRay:
    def test_simplex_analytic(self):
        prob = load_problem(SIMPLEX)
        sol = solve_ray(prob, None, v=[1.0, 1.0], d_hat=[1.0, 1.0])
        assert sol.t == pytest.approx(-0.5, abs=1e-3)
        np.testing.assert_allclose(sol.w, [0.5, 0.5], atol=1e-3)

    def test_ray_identity_and_consistency(self, ex1, ex1_box):
        sol = solve_ray(ex1, ex1_box, v=ex1_box.M, d_hat=[1.0, 1.0])
        np.testing.assert_allclose(sol.w, sol.v + sol.t * sol.d_hat, atol=1e-12)
        t_at_x = max((f.value(sol.x) - sol.v[j]) / sol.d_hat[j]
                     for j, f in enumerate(ex1.lower))
        assert sol.t == pytest.approx(t_at_x, abs=1e-6)

    def test_w_weakly_nondominated_on_grid(self, ex1, ex1_box):
        sol = solve_ray(ex1, ex1_box, v=ex1_box.M, d_hat=[1.0, 1.0])
        region = ex1.x_region()
        axes = np.linspace(0.0, 2.6, 400)
        r = 0.02
        for a in axes:
            for b in axes:
                x = np.array([a, b])
                if max(c.value(x) for c in region) > 0:
                    continue
                z = np.array([f.value(x) for f in ex1.lower])
                assert not np.all(z < sol.w - r)

    def test_point_already_on_frontier(self, ex1, ex1_box):
        first = solve_ray(ex1, ex1_box, v=ex1_box.M, d_hat=[1.0, 1.0])
        again = solve_ray(ex1, ex1_box, v=first.w, d_hat=[1.0, 1.0])
        assert again.t == pytest.approx(0.0, abs=1e-3)

    def test_nonpositive_direction_rejected(self, ex1, ex1_box):
        with pytest.raises(ValueError):
            solve_ray(ex1, ex1_box, v=ex1_box.M, d_hat=[1.0, 0.0])

    def test_flattened_objective_generators(self, ex1):
        # the second lower objective is itself a max of two affine pieces,
        # so the ray objective exposes three generators in total
        obj = ray_objective(ex1, v=np.zeros(2), d_hat=np.ones(2))
        assert len(obj.ast.children) == 3


class TestSolveMp:
    def test_example1_phi_at_M(self, ex1, ex1_box):
        sol = solve_mp(ex1, ex1_box.M)
        assert sol.feasible
        assert sol.phi == pytest.approx(1.25, abs=1e-3)
        np.testing.assert_allclose(sol.x, [1.0, 0.5], atol=5e-3)

    def test_example3_phi_at_M(self):
        prob = catalog.load_example(3)
        box = compute_box(prob)
        sol = solve_mp(prob, box.M)
        assert sol.feasible
        assert sol.phi == pytest.approx(1.1, abs=5e-3)

    def test_infeasible_below_m(self, ex1, ex1_box):
        sol = solve_mp(ex1, ex1_box.m - 1.0)
        assert not sol.feasible
        assert math.isinf(sol.phi)

    def test_phi_monotone_on_chain(self, ex1, ex1_box):
        lo, hi = ex1_box.m, ex1_box.M
        zs = [lo + t * (hi - lo) for t in (0.35, 0.55, 0.75, 1.0)]
        phis = []
        for z in zs:
            sol = solve_mp(ex1, z)
            if sol.feasible:
                phis.append(sol.phi)
        assert len(phis) >= 2
        for a, b in zip(phis, phis[1:]):
            assert a >= b - 1e-4

    def test_solution_satisfies_constraints(self, ex1, ex1_box):
        sol = solve_mp(ex1, ex1_box.M)
        for j, f in enumerate(ex1.lower):
            assert f.value(sol.x) <= ex1_box.M[j] + 1e-6
        for c in ex1.x_region():
            assert c.value(sol.x) <= 1e-6


class TestPhiCache:
    def test_repeat_query_hits_cache(self, ex1, ex1_box):
        cache = PhiCache(ex1)
        a = cache.get(ex1_box.M)
        b = cache.get(ex1_box.M.copy())
        assert a is b
        assert cache.misses == 1

    def test_counts_hits_and_misses(self, ex1, ex1_box):
        cache = PhiCache(ex1)
        cache.get(ex1_box.M)
        assert (cache.hits, cache.misses) == (0, 1)
        cache.get(ex1_box.M.copy())
        assert (cache.hits, cache.misses) == (1, 1)

    def test_distinct_keys(self, ex1, ex1_box):
        cache = PhiCache(ex1)
        cache.get(ex1_box.M)
        cache.get(ex1_box.M - 1e-3)
        assert len(cache) == 2
