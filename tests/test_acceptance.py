"""End-to-end acceptance runs: one test per headline criterion.

Reference values that are inconsistent with the stated problem data (see
the project decisions ledger) are asserted as written and marked as
strictly expected failures rather than weakened.
"""

import numpy as np
import pytest

from svbilevel import bnb, catalog
from svbilevel import neurodynamic as nd
from svbilevel.copolyblock import Vertex, cut
from svbilevel.expr import CompiledExpr, parse_expression
from svbilevel.outcome import solve_ray
from svbilevel.problem import AffineRow, load_problem

LINEAR_TOY = """\
vars x 2
upper -x1 - 2*x2
lower x1
lower x2
constraint_x x1 + x2 - 1
bound x1 0 inf
bound x2 0 inf
"""


def _run(number, epsilon):
    return bnb.solve(catalog.load_example(number),
                     bnb.SolverConfig(epsilon=epsilon))


@pytest.fixture(scope="module")
def report1():
    return _run(1, 1e-5)


@pytest.fixture(scope="module")
def report2():
    return _run(2, 1e-2)


@pytest.fixture(scope="module")
def report3():
    return _run(3, 1e-2)


@pytest.fixture(scope="module")
def report4():
    return _run(4, 1e-2)


@pytest.fixture(scope="module")
def report5():
    return _run(5, 1e-2)


@pytest.fixture(scope="module")
def report6():
    return _run(6, 1e-2)


@pytest.fixture(scope="module")
def all_reports(report1, report2, report3, report4, report5, report6):
    return [report1, report2, report3, report4, report5, report6]


def certified(report, epsilon):
    return report.alpha - report.beta <= epsilon * (1.0 + abs(report.beta))


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="the published target (1.25 at (1.0, 0.5)) is not weakly "
           "efficient for the stated problem data; the exact optimum is "
           "h* = 1.7920206 at (0.2637795, 1.2362205), derived in "
           "tests/test_exact_optima.py")
def test_example1_reproduction(report1):
    assert report1.status is bnb.SolverStatus.OPTIMAL
    assert report1.wall_time < 120.0
    assert report1.incumbent.h == pytest.approx(1.25, abs=5e-3)
    err = np.max(np.abs(report1.incumbent.x - np.array([1.0, 0.5])))
    assert err <= 1e-2


def test_example2_value_and_gap(report2):
    assert report2.status is bnb.SolverStatus.OPTIMAL
    assert report2.wall_time < 60.0
    assert 0.28 <= report2.incumbent.h <= 0.33
    assert certified(report2, 1e-2)


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="the published target value 0.607448 is impossible for the "
           "stated problem data: h >= 1.1 on the entire feasible set, and "
           "h at the published solution point evaluates to 1.170790; the "
           "exact optimum is h* = 1.1 at x = 0, derived in "
           "tests/test_exact_optima.py")
def test_example3_value_and_gap(report3):
    assert report3.status is bnb.SolverStatus.OPTIMAL
    assert report3.wall_time < 120.0
    assert 0.60 <= report3.incumbent.h <= 0.62
    assert certified(report3, 1e-2)


def test_example4_value(report4):
    assert report4.status is bnb.SolverStatus.OPTIMAL
    assert report4.wall_time < 60.0
    assert report4.incumbent.h == pytest.approx(-1.8, abs=0.02)


def test_example5_value(report5):
    assert report5.status is bnb.SolverStatus.OPTIMAL
    assert report5.wall_time < 300.0
    assert report5.incumbent.h == pytest.approx(0.5, abs=1e-2)


def test_example6_value_gap_and_y(report6):
    assert report6.status is bnb.SolverStatus.OPTIMAL
    assert report6.wall_time < 180.0
    assert report6.incumbent.h <= 0.02
    assert certified(report6, 1e-2)
    err = np.max(np.abs(report6.incumbent.y - np.array([0.142857, 0.0])))
    assert err <= 1e-2


def test_example6_matches_its_closed_forms(report6):
    # h at x = (0, 0, 12/7), y = (1/7, 0)
    h = 70.0 / 7497.0
    assert abs(report6.incumbent.h - h) <= 1e-9 * (1.0 + h)
    # phi(M), the least h over G: x2 = y2 = 0, y1 = 1/7, x3 = 12/7 and x1
    # minimizing (x1^2 + a) / (x1 + b), at x1 = sqrt(b^2 + a) - b
    a, b = 10.0 / 49.0, 153.0 / 7.0
    phi_m = 2.0 * a / (np.sqrt(b * b + a) + b)
    assert phi_m - 1e-12 <= report6.beta <= phi_m + 1e-7


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="the published boxes are not reproducible from the stated "
           "problem data: the first example's printed box does not contain "
           "the outcome set (f_1 = -3.2275 < -2.52 at (0.3, 1.25), a point "
           "of X) and the third example's printed m_3 = 1.65 exceeds the "
           "bound f_3 <= 1, since f_3 - 1 = -3 x2 / (x1 + 5 x2 + 5 x3 + 10) "
           "<= 0 on X; the exact optima are in tests/test_exact_optima.py")
def test_box_reproduction(report1, report3):
    published1 = np.array([-2.52, 0.49, 3.29, 1.20])
    computed1 = np.concatenate([report1.box.m, report1.box.M])
    assert np.max(np.abs(computed1 - published1)) <= 0.02

    published3 = np.array([1.00, 0.50, 1.65, 0.79, 1.17, 1.00, 3.00, 1.00])
    computed3 = np.concatenate([report3.box.m, report3.box.M])
    assert np.max(np.abs(computed3 - published3)) <= 0.02


class TestProperties:
    def test_bound_monotonicity_on_every_fixture(self, all_reports):
        for report in all_reports:
            alphas = [row.alpha for row in report.log]
            betas = [row.beta for row in report.log]
            assert all(b <= a + 1e-9 for a, b in zip(alphas, alphas[1:]))
            assert all(b >= a - 1e-9 for a, b in zip(betas, betas[1:]))

    def test_cut_children_shape(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = int(rng.integers(2, 6))
            m = rng.uniform(-1.0, 0.0, p)
            M = rng.uniform(1.0, 2.0, p)
            parent = Vertex(rng.uniform(0.5, 1.0, p) * (M - m) + m)
            V = [parent]
            z = parent.z.copy()
            w = rng.uniform(m, z)
            cut(V, parent, w)
            assert len(V) == p
            for child in V:
                assert np.all(child.z <= z + 1e-12)
                assert np.sum(~np.isclose(child.z, z)) == 1

    @pytest.mark.parametrize("number", [1, 2, 4])
    def test_ray_result_undominated_on_grid(self, number, request):
        report = request.getfixturevalue(f"report{number}")
        problem = catalog.load_example(number)
        box = report.box
        ray = solve_ray(problem, box.M, np.ones(problem.p), box.x_feasible)
        w = ray.w

        lo = np.zeros(2)
        hi = np.full(2, 4.0)
        for b in problem.bounds:
            i = int(b.name[1:]) - 1
            if np.isfinite(b.lo):
                lo[i] = b.lo
            if np.isfinite(b.hi):
                hi[i] = b.hi
        region = problem.x_region()
        axes = [np.arange(lo[i], hi[i] + 1e-12, 0.02) for i in range(2)]
        for a in axes[0]:
            for c in axes[1]:
                x = np.array([a, c])
                if max(region.evaluate(x)[0]) > 1e-9:
                    continue
                z = np.array([f.value(x) for f in problem.lower])
                assert not np.all(z <= w - 0.02), (x, z, w)

    def test_forward_gradients_match_finite_differences(self):
        for number in range(1, 7):
            problem = catalog.load_example(number)
            lo = np.zeros(problem.n + problem.m)
            hi = np.full(problem.n + problem.m, 2.0)
            for b in problem.bounds:
                i = int(b.name[1:]) - 1
                if b.name.startswith("y"):
                    i += problem.n
                if np.isfinite(b.lo):
                    lo[i] = b.lo
                    hi[i] = b.lo + 2.0
                if np.isfinite(b.hi):
                    hi[i] = min(hi[i], b.hi)
            exprs = ([(problem.upper, problem.n + problem.m)]
                     + [(f, problem.n) for f in problem.lower]
                     + [(s, problem.n) for s in problem.lower_constraints]
                     + [(g, problem.n + problem.m) for g in problem.coupling])
            rng = np.random.default_rng(100 + number)
            for expr, dim in exprs:
                for _ in range(100):
                    u = rng.uniform(lo[:dim], hi[:dim])
                    # each branch of a root max against its own value
                    for (_, grad), value in zip(expr.branch_pairs(u),
                                                expr.branch_values):
                        fd = np.zeros(dim)
                        for i in range(dim):
                            h = 1e-6 * max(1.0, abs(u[i]))
                            up, dn = u.copy(), u.copy()
                            up[i] += h
                            dn[i] -= h
                            fd[i] = (value(up.tolist())
                                     - value(dn.tolist())) / (2.0 * h)
                        assert np.allclose(grad, fd, rtol=1e-4, atol=1e-6)

    def test_linear_toy_matches_brute_force(self):
        problem = load_problem(LINEAR_TOY)
        report = bnb.solve(problem, bnb.SolverConfig(epsilon=1e-2))
        assert report.status is bnb.SolverStatus.OPTIMAL

        # enumerate the feasible grid, its outcome points, the weakly
        # nondominated subset, and the induced value function
        step = 0.01
        pts = []
        for a in np.arange(0.0, 1.0 + 1e-12, step):
            for c in np.arange(0.0, 1.0 - a + 1e-12, step):
                pts.append((a, c))
        pts = np.array(pts)
        Z = pts.copy()  # f = (x1, x2)
        H = -pts[:, 0] - 2.0 * pts[:, 1]

        best = np.inf
        for z in Z:
            dominated = np.any(np.all(Z <= z - step + 1e-12, axis=1))
            if dominated:
                continue
            mask = np.all(Z <= z + 1e-12, axis=1)
            phi = H[mask].min()
            best = min(best, phi)
        assert report.incumbent.h == pytest.approx(best, abs=0.02)


def test_neurodynamic_unit_quadratic():
    obj = CompiledExpr(parse_expression("x1^2 + x2^2", ["x1", "x2"]), 2)
    # x1 + x2 >= 1
    rows = nd.RowSet.of([AffineRow([-1.0, -1.0], 1.0)], 2)
    rng = np.random.default_rng(12345)
    for _ in range(20):
        x0 = rng.uniform(-5.0, 5.0, 2)
        res = nd.solve_flow(obj, rows, x0)
        assert res.status is nd.FlowStatus.CONVERGED
        assert res.x_final == pytest.approx([0.5, 0.5], abs=1e-3)
