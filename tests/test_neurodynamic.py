import itertools
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from svbilevel import bnb, catalog
from svbilevel import neurodynamic as nd
from svbilevel.expr import BinOp, CompiledExpr, Const, Pow, Var, \
    parse_expression
from svbilevel.neurodynamic import (
    LAM_CAP, FlowStatus, RowSet,
    _active_set_weights, _min_norm_combo, _norm,
    find_feasible, solve_flow,
)
from svbilevel.outcome import compute_box, solve_mp
from svbilevel.problem import (
    AffineRow, find_interior_start, load_problem, stacked_mp_constraints,
)

from test_flow_budget import ball_text

V2 = ["x1", "x2"]


def oracle(src, variables=V2):
    return CompiledExpr(parse_expression(src, variables), len(variables))


# the unit box and one row that is NaN wherever |x1 - 0.5| is above about
# 0.42: (x1 - 0.5)^2 * 1e308 * 10 overflows there, and inf - inf is NaN
NAN_ROW_TEXT = """\
vars x 2
upper x1 + x2
lower x1
lower x2
constraint_x (x1 - 0.5)^2*1e308*10 - (x1 - 0.5)^2*1e308*10 + x2 - 0.6
bound x1 0 1
bound x2 0 1
"""


def example1_region():
    """Feasible set of the first computational example: Ax <= b, x >= 0 and
    one convex quadratic."""
    rows = [
        "x1 - 2*x2 - 1",
        "-x1 + x2 - 1",
        "2*x1 + x2 - 4",
        "2*x1 + 5*x2 - 10",
        "-x1 - x2 + 1.5",
        "-x1",
        "-x2",
        "0.5*(x1 - 1)^2 + 1.4*(x2 - 0.5)^2 - 1.1",
    ]
    return [oracle(r) for r in rows]


def rows_of(*exprs, width=2):
    """The RowSet of the expression rows ``exprs`` over ``width`` columns."""
    return RowSet.of(exprs, width)


def _bits(vals: list) -> list:
    """The hex of each float of a list of row values."""
    return [v.hex() for v in vals]


def penalty(x, constraints):
    """S(x) = sum_i max{0, s_i(x)}, from the row values of x."""
    return RowSet.of(constraints, len(x)).evaluate(x)[1]


class TestPenalty:
    def test_interior_point_is_zero(self):
        assert penalty(np.array([1.0, 1.0]), example1_region()) == 0.0

    def test_far_exterior_point(self):
        # violated rows: 2x1+x2-4 = 26, 2x1+5x2-10 = 60, quadratic = 165.75
        assert penalty(np.array([10.0, 10.0]), example1_region()) == \
            pytest.approx(251.75, abs=1e-9)

    def test_empty_list(self):
        assert penalty(np.array([3.0]), []) == 0.0

    @pytest.mark.parametrize("positive", [0, 3, 7, 8, 12])
    def test_a_nan_value_counts_as_violated(self, positive):
        # a NaN row is not met: S is inf however many values are positive,
        # wherever the NaN sits
        vals = [0.5] * positive + [-1.0, 0.0]
        for k in range(len(vals) + 1):
            assert nd._positive_sum(vals[:k] + [math.nan] + vals[k:]) \
                == math.inf

    def test_a_nan_value_is_above_its_band(self):
        assert nd._escaped([math.nan], [1.0])
        assert nd._escaped([0.0, math.nan], [1.0, 1.0])
        assert not nd._escaped([1.0, -5.0], [1.0, 1.0])
        assert nd._escaped([1.0, 1.5], [1.0, 1.0])

    # the positive values added one by one in index order: not numpy's
    # pairwise order, nor the built-in sum(), compensated from Python 3.12
    @given(st.lists(st.sampled_from([0.0, -0.0, 5e-324, 2.5e-320, 1e-310,
                                     1e-300, 1e300, 1.7e300, 8e307, 1e16,
                                     1.0, -1.0, -1e300, np.inf])
                    | st.floats(allow_nan=False), max_size=24)
           | st.lists(st.floats(0.0, 1e300, exclude_min=True), min_size=8,
                      max_size=24))
    @example([1e16, 1.0, 1.0])
    @example([1e16] + [1.0] * 9)
    @settings(max_examples=400, deadline=None)
    def test_equals_the_index_order_sum_bit_for_bit(self, entries):
        v = np.array(entries, dtype=float)
        # ``evaluate`` takes S from the list its values are made from: the
        # first half of v as affine rows 0*u + v_i, the rest as nonlinear
        # rows u^2 - (-v_i), each v_i at u = 0
        k = len(v) // 2
        square = CompiledExpr(Pow(Var(0, "x1"), 2), 1)
        rows = RowSet(np.zeros((k, 1)), v[:k],
                      [(square, -e) for e in v[k:].tolist()])
        with np.errstate(all="ignore"):
            expected = _index_order_sum(v.tolist()).hex()
            # every v_i as an affine row 0*u + v_i
            affine = RowSet(np.zeros((len(v), 1)), v)
            assert affine.evaluate(np.zeros(1))[1].hex() == expected
            vals, s = rows.evaluate(np.zeros(1))
            assert vals == v.tolist()
            assert all(type(f) is float for f in vals)
            assert s.hex() == expected


def _index_order_sum(vals: list) -> float:
    """The positive values of ``vals`` added one by one in index order."""
    s = 0.0
    for v in vals:
        if v > 0.0:
            s += v
    return s


def brute_force_min_norm(M, nobj):
    """Least ||M^T z|| over mu in the simplex (the first nobj >= 1 rows) and
    lam >= 0.  Some optimum has a support with independent columns, where
    it is the unique least-squares solution with the simplex equality; so
    enumerate every support, solve there, and keep the feasible best."""
    d = len(M)
    best = np.inf
    for size in range(1, d + 1):
        for support in itertools.combinations(range(d), size):
            idx = np.array(support)
            mu, lam = idx[idx < nobj], idx[idx >= nobj]
            if not len(mu):
                continue
            z = np.zeros(d)
            rest = mu[1:]
            # eliminate the equality through the first simplex weight
            r0 = M[mu[0]]
            cols = np.vstack([M[rest] - M[mu[0]], M[lam]])
            if len(cols):
                coef = np.linalg.lstsq(cols.T, -r0, rcond=None)[0]
                z[rest] = coef[:len(rest)]
                z[lam] = coef[len(rest):]
            z[mu[0]] = 1.0 - z[rest].sum()
            if np.all(z >= -1e-12):
                best = min(best, float(np.linalg.norm(M.T @ z)))
    return best


@st.composite
def selection_qps(draw):
    """Objective generators (at least one), gain and active rows, with small
    integer entries so duplicated and parallel rows (and exact ties) occur
    often."""
    n = draw(st.sampled_from([2, 3, 5]))
    nobj = draw(st.integers(1, 3))
    k = draw(st.integers(0, 5))
    vec = st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=float))
    rows = []
    for _ in range(nobj + k):
        kind = draw(st.sampled_from(["new", "copy", "parallel"])) if rows else "new"
        if kind == "new":
            rows.append(draw(vec))
        else:
            base = rows[draw(st.integers(0, len(rows) - 1))]
            factor = 1.0 if kind == "copy" else draw(
                st.sampled_from([-2.0, -0.5, 0.5, 3.0]))
            rows.append(factor * base)
    c_gain = draw(st.sampled_from([1.0, 0.5, 1e-3]))
    return rows[:nobj], c_gain, rows[nobj:]


def stacked(obj_gens, c_gain, act_gens):
    M = np.array([c_gain * g for g in obj_gens] + list(act_gens))
    return M, max(float(np.linalg.norm(row)) for row in M)


@st.composite
def generic_qps(draw):
    """(M, nobj): a selection QP with Gaussian entries drawn from a seed,
    rows scaled over four decades, nobj in {1, 2}, and at most n + 1 rows,
    so that the optimal weights are unique."""
    n = draw(st.sampled_from([2, 3, 5]))
    nobj = draw(st.integers(1, 2))
    d = draw(st.integers(nobj, n + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = rng.standard_normal((d, n)) * 10.0 ** rng.uniform(-2, 2, (d, 1))
    return M, nobj


def least_squares_calls(fn, *args):
    """(result of fn(*args), number of ``_free_least_squares`` calls)."""
    calls = []
    real = nd._free_least_squares

    def counted(*a):
        calls.append(a)
        return real(*a)
    nd._free_least_squares = counted
    try:
        return fn(*args), len(calls)
    finally:
        nd._free_least_squares = real


def support(z):
    return (z > 0.0) & (z < LAM_CAP)


def stops(M, nobj, z):
    """The active-set loop's own stopping test at z: no coordinate outside
    the free and capped ones has a reduced gradient below -tol."""
    scale = float(np.linalg.norm(M, axis=1).max())
    free = support(z)
    grad = nd._least_reduced_gradient(M, nobj, z, free,
                                      free | (z >= LAM_CAP))[1]
    return grad >= -1e-12 * scale * scale


class TestMinNormSelection:
    @settings(max_examples=300, deadline=None)
    @given(selection_qps())
    def test_velocity_norm_matches_brute_force(self, qp):
        obj_gens, c_gain, act_gens = qp
        M, scale = stacked(*qp)
        vel, mu = _min_norm_combo(obj_gens, c_gain, act_gens)
        expect = brute_force_min_norm(M, len(obj_gens))
        assert abs(float(np.linalg.norm(vel)) - expect) <= 1e-10 * scale
        # the generator weights of the selection lie in the unit simplex
        assert len(mu) == len(obj_gens) and all(w >= 0.0 for w in mu)
        assert abs(sum(mu) - 1.0) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(selection_qps())
    def test_weights_satisfy_kkt_sign_conditions(self, qp):
        obj_gens, c_gain, act_gens = qp
        M, scale = stacked(*qp)
        nobj = len(obj_gens)
        z = _active_set_weights(M, nobj)
        mu, lam = z[:nobj], z[nobj:]
        tol = 1e-9 * scale * scale
        assert np.all(mu >= 0.0) and np.all(lam >= 0.0)
        assert np.all(lam <= LAM_CAP)
        assert abs(mu.sum() - 1.0) <= 1e-12
        grad = M @ (M.T @ z)
        # every simplex weight in use sits at the least gradient
        nu = grad[:nobj].min()
        assert np.all(grad[:nobj][mu > 0.0] <= nu + tol)
        # no row weight can fall (where positive) or rise (anywhere) and
        # lower the norm
        assert np.all(grad[nobj:] >= -tol)
        assert np.all(np.abs(grad[nobj:][lam > 0.0]) <= tol)

    def test_duplicated_generators_reach_zero_velocity(self):
        # max(x1, x2)-type kink against a row: 0 = 0.5*(1,0) + 0.5*(0,1)
        # + 0.5*(-1,-1), with the first generator duplicated
        vel, _ = _min_norm_combo([np.array([1.0, 0.0]), np.array([1.0, 0.0]),
                                  np.array([0.0, 1.0])], 1.0,
                                 [np.array([-1.0, -1.0])])
        assert np.linalg.norm(vel) <= 1e-14

    def test_row_weight_stops_at_cap(self):
        # the kink of the generators (1, 1) and (1, -1) balances at (1, 0);
        # cancelling that needs lam = 1e9 on the tiny row, and it stops at
        # the cap
        M = np.array([[1.0, 1.0], [1.0, -1.0], [-1e-9, 0.0]])
        z = _active_set_weights(M, 2)
        np.testing.assert_allclose(z[:2], [0.5, 0.5], atol=1e-15)
        assert z[2] == LAM_CAP

    def test_small_gain_keeps_the_exact_weights(self):
        # mu = (2/3, 1/3) cancels c (0, 1) against c (0, -2) at every gain
        c_gain = 1e-6
        M = c_gain * np.array([[0.0, 1.0], [0.0, -2.0]])
        z = _active_set_weights(M, 2)
        assert np.linalg.norm(M.T @ z) <= 1e-12 * 2.0 * c_gain
        np.testing.assert_allclose(z, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(generic_qps())
    def test_result_passes_the_stopping_test(self, qp):
        assert stops(*qp, _active_set_weights(*qp))

    def test_three_least_squares_reach_three_rows(self):
        # g = (1, 1, 1, 1) against the rows -e1, -e2, -e3 and e4: the
        # least-norm velocity is (0, 0, 0, -1), with the weights (1, 1, 1)
        # on the first three rows, each freed by one least squares
        M = np.vstack([np.ones(4), -np.eye(4)[:3], np.eye(4)[3]])
        z, calls = least_squares_calls(_active_set_weights, M, 1)
        assert calls == 3
        np.testing.assert_allclose(z, [1.0, 1.0, 1.0, 1.0, 0.0], atol=1e-15)


class _UnequalOne(float):
    """1.0 that compares unequal to every value: as a gain it takes the
    products 1.0 * g that ``_min_norm_combo`` skips at a gain of 1."""

    def __eq__(self, other):
        return False

    def __ne__(self, other):
        return True

    __hash__ = float.__hash__


def _selection_outcome(obj_gens, c_gain, act_gens):
    """The bits of ``_min_norm_combo``'s velocity and weights, or the
    error it raised."""
    try:
        with np.errstate(all="ignore"):
            vel, mu = _min_norm_combo(obj_gens, c_gain, act_gens)
    except np.linalg.LinAlgError as err:
        return type(err).__name__
    return vel.tobytes(), np.asarray(mu, dtype=float).tobytes()


_SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -2.0, 0.5, 3.0, 1e-300, 1e200,
                            np.inf, -np.inf])


class TestFixedOutcomeTrims:
    """Arithmetic the selection skips because its outcome is fixed: the
    same bits as doing it."""

    @settings(max_examples=300, deadline=None)
    @given(selection_qps(), st.data())
    def test_gain_one_takes_the_product_bits(self, qp, data):
        # 1.0 * g is g for every entry, -0.0 and inf included, so the
        # selection at gain 1 is the one the explicit products give
        obj_gens, _, act_gens = qp
        n = len(obj_gens[0])
        vec = st.lists(_SPECIAL, min_size=n, max_size=n).map(np.array)
        obj_gens = [data.draw(vec) if data.draw(st.booleans()) else g
                    for g in obj_gens]
        assert _selection_outcome(obj_gens, 1.0, act_gens) \
            == _selection_outcome(obj_gens, _UnequalOne(1.0), act_gens)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(
        _SPECIAL | st.floats(),
        st.lists(_SPECIAL | st.floats(), min_size=2, max_size=2)),
        min_size=1, max_size=5),
        st.sampled_from([1e-9, 1e-4, 0.5, 2.0, np.inf]))
    def test_band_members_keep_the_norm_formula(self, raw, band):
        # a branch within the band itself skips its norm; with NaN and inf
        # values and gradient norms the members are the formula's
        pairs = [(v, np.array(g)) for v, g in raw]
        with np.errstate(all="ignore"):
            top, members = nd.band_members(pairs, band)
            expect = [j for j, (v, g) in enumerate(pairs)
                      if top - v <= band * max(1.0, _norm(g))]
        assert top.hex() == max(v for v, _ in pairs).hex()
        assert members == expect


class TestTwoGeneratorSelection:
    """The closed form for two objective generators and no row against the
    active-set solve of the same stacked QP."""

    @staticmethod
    def assert_matches_active_set(G1, G2, c_gain):
        G1, G2 = (np.asarray(v, dtype=float) for v in (G1, G2))
        M, scale = stacked([G1, G2], c_gain, [])
        vel, mu = _min_norm_combo([G1, G2], c_gain, [])
        ref = -(M.T @ _active_set_weights(M, 2))
        assert np.linalg.norm(vel - ref) <= 1e-12 * scale
        # vel is the combination the weights give
        np.testing.assert_allclose(
            vel, -(c_gain * (mu[0] * G1 + mu[1] * G2)), atol=1e-15 * scale)
        return vel, mu

    def test_identical_generators(self):
        vel, _ = self.assert_matches_active_set([1.0, 2.0], [1.0, 2.0], 0.7)
        np.testing.assert_array_equal(vel, -(0.7 * np.array([1.0, 2.0])))

    @pytest.mark.parametrize("G2", [[-2.0, 0.0], [3.0, 0.0], [-0.5, 0.0]])
    def test_parallel_generators(self, G2):
        self.assert_matches_active_set([1.0, 0.0], G2, 0.3)

    @pytest.mark.parametrize("c_gain", [1.0, 0.5, 1e-3, 1e-8])
    def test_gain_scales_the_generators(self, c_gain):
        self.assert_matches_active_set([1.0, -2.0], [-3.0, 0.5], c_gain)

    def test_interior_kink(self):
        vel, mu = self.assert_matches_active_set([1.0, 0.0], [0.0, 1.0], 1.0)
        np.testing.assert_allclose(vel, [-0.5, -0.5], atol=1e-15)
        assert mu == (0.5, 0.5)

    def test_optimum_at_either_end(self):
        # b = (0.1, 0) is the nearer end: mu = 0; swapped, mu = 1
        short, long = [0.1, 0.0], [2.0, 1.0]
        for pair, weights in (((long, short), (0.0, 1.0)),
                              ((short, long), (1.0, 0.0))):
            vel, mu = self.assert_matches_active_set(*pair, 1.0)
            np.testing.assert_allclose(vel, [-0.1, 0.0], atol=1e-15)
            # the long generator carries no weight: no kink to land on
            assert mu == weights

    @pytest.mark.parametrize("c_gain", [1.0, 1e-3, 1e-6])
    def test_small_gain_keeps_the_exact_kink(self, c_gain):
        # mu = 2/3 cancels (0, 1) against (0, -2) at every gain; the
        # active-set KKT system loses accuracy as c_gain^2 shrinks, the
        # closed form does not
        vel, mu = _min_norm_combo([np.array([0.0, 1.0]),
                                   np.array([0.0, -2.0])],
                                  c_gain, [])
        assert np.linalg.norm(vel) <= 1e-15 * c_gain
        np.testing.assert_allclose(mu, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-15)


class TestOneGeneratorTwoRowSelection:
    """The closed form for one objective generator and two rows against the
    active-set solve of the same stacked QP."""

    @staticmethod
    def assert_matches_active_set(generator, c_gain, a1, a2):
        G, a1, a2 = (np.asarray(v, dtype=float) for v in (generator, a1, a2))
        M, scale = stacked([G], c_gain, [a1, a2])
        vel, mu = _min_norm_combo([G], c_gain, [a1, a2])
        ref = -(M.T @ _active_set_weights(M, 1))
        assert np.linalg.norm(vel - ref) <= 1e-12 * scale
        assert list(mu) == [1.0]
        return vel

    def test_optimum_uses_both_rows(self):
        # lam = (1, 1) cancels the first two components
        vel = self.assert_matches_active_set([1.0, 1.0, 1.0], 1.0,
                                             [-1.0, 0.0, 0.0],
                                             [0.0, -1.0, 0.0])
        np.testing.assert_array_equal(vel, [0.0, 0.0, -1.0])

    @pytest.mark.parametrize("rows", [
        ([-1.0, 0.0], [0.3, 1.0]), ([0.3, 1.0], [-1.0, 0.0])])
    def test_optimum_uses_one_row(self, rows):
        vel = self.assert_matches_active_set([1.0, 0.5], 1.0, *rows)
        np.testing.assert_array_equal(vel, [0.0, -0.5])

    def test_optimum_uses_no_row(self):
        vel = self.assert_matches_active_set([2.0, 1.0], 0.5, [1.0, 0.0],
                                             [0.0, 1.0])
        np.testing.assert_array_equal(vel, [-1.0, -0.5])

    @pytest.mark.parametrize("factor", [2.0, 0.5, 3.0, -1.0, -3.0, -0.5])
    def test_parallel_and_antiparallel_rows(self, factor):
        a1 = np.array([1.0, -2.0, 0.5])
        vel = self.assert_matches_active_set([-0.4, 1.0, 2.0], 0.7, a1,
                                             factor * a1)
        if factor < 0.0:
            # the two rows span the line of a1: the velocity is orthogonal
            assert abs(float(vel @ a1)) <= 1e-15 * np.linalg.norm(vel)

    @pytest.mark.parametrize("generator,rows", [
        # one row needs lam = 100 on its own, ...
        ([1.0, 0.0, 0.0], ([-1e-2, 0.0, 0.0], [0.0, 1.0, 0.0])),
        # ... or with the other at lam = 1
        ([1.0, 1.0, 0.0], ([-1e-2, 0.0, 0.0], [0.0, -1.0, 0.0]))])
    def test_row_weight_at_the_cap(self, generator, rows, monkeypatch):
        # a cap of 10: with one generator the active-set solve's KKT
        # system holds the squared ratio of the row's norm to the
        # generator's, so a weight of LAM_CAP (1e8) needs a ratio of 1e-16,
        # below the least squares' cutoff
        monkeypatch.setattr(nd, "LAM_CAP", 10.0)
        g = np.array(generator)
        a1, a2 = (np.array(a) for a in rows)
        # the closed form hands the capped case to the active-set solve
        assert nd._two_row_velocity(g, a1, a2) is None
        vel, _ = _min_norm_combo([g], 1.0, [a1, a2])
        np.testing.assert_allclose(vel, [-(1.0 - 10.0 * 1e-2), 0.0, 0.0],
                                   rtol=1e-15, atol=1e-15)

    @pytest.mark.xfail(strict=True, reason=(
        "the one-generator KKT system holds the Gram block 2 M_f M_f^T, so "
        "a row at 1e-9 of the generator's norm enters squared and falls "
        "below the least squares' cutoff: weight 4e-9, not LAM_CAP"))
    @pytest.mark.parametrize("generator,rows", [
        ([1.0, 0.0, 0.0], ([-1e-9, 0.0, 0.0], [0.0, 1.0, 0.0])),
        ([1.0, 1.0, 0.0], ([-1e-9, 0.0, 0.0], [0.0, -1.0, 0.0]))])
    def test_row_weight_at_the_real_cap(self, generator, rows):
        # a curved row with a tiny gradient cancels a smooth objective up
        # to LAM_CAP (1e8) times its gradient
        g = np.array(generator)
        vel, _ = _min_norm_combo([g], 1.0, [np.array(a) for a in rows])
        np.testing.assert_allclose(vel, [-(1.0 - LAM_CAP * 1e-9), 0.0, 0.0],
                                   rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize("c_gain", [1.0, 1e-2, 1e-4, 1e-6, 1e-8])
    def test_gain_scales_the_generator(self, c_gain):
        self.assert_matches_active_set([1.0, 2.0, 3.0], c_gain,
                                       [-1.0, 0.0, 0.1], [0.2, -1.0, 0.0])

    @pytest.mark.parametrize("c_gain", [1.0, 1e-2, 1e-4, 1e-6, 1e-8])
    def test_exact_velocity(self, c_gain):
        # lam_1 = c cancels the first component; the second row would raise
        # the norm
        vel, _ = _min_norm_combo([np.array([1.0, 0.5])], c_gain,
                                 [np.array([-1.0, 0.0]), np.array([0.3, 1.0])])
        assert np.linalg.norm(vel - [0.0, -c_gain / 2.0]) <= 1e-15 * c_gain

    def test_row_whose_gram_underflows_gives_no_gain(self):
        # a2 . a2 underflows to 0 while a2 . g = -3.2e-163 does not; the
        # face of a2 once divided q_2^2 = 0 by p_22 = 0
        g = np.array([-0.5, -0.5])
        vel = nd._two_row_velocity(g, np.zeros(2),
                                   np.array([0.0, 6.366297293169206e-163]))
        assert np.isfinite(vel).all()
        np.testing.assert_array_equal(vel, -g)


class TestSolveFlow:
    def test_no_convergence_at_a_nan_row(self):
        # the curved row is 0 * inf, NaN, wherever |x1 - 0.5| is above about
        # 0.42, and x2 - 0.6 elsewhere; min x1 from the middle reaches that
        # boundary, where a flow that counted a NaN row as met converged
        rows = load_problem(NAN_ROW_TEXT).x_region()
        res = solve_flow(oracle("x1"), rows, np.array([0.5, 0.5]))
        vals = rows.evaluate(res.x_final)[0]
        assert res.status is FlowStatus.UNCONVERGED
        assert all(map(math.isfinite, vals))

    def test_qp_known_optimum(self):
        obj = oracle("x1^2 + x2^2")
        cons = rows_of(oracle("-x1 - x2 + 1"))
        res = solve_flow(obj, cons, np.array([1.0, 0.0]))
        assert res.status is FlowStatus.CONVERGED
        np.testing.assert_allclose(res.x_final, [0.5, 0.5], atol=1e-3)
        assert res.objective_value == pytest.approx(0.5, abs=1e-3)

    def test_qp_twenty_random_starts(self):
        obj = oracle("x1^2 + x2^2")
        cons = rows_of(oracle("-x1 - x2 + 1"))
        rng = np.random.default_rng(3)
        for _ in range(20):
            x0 = rng.uniform(0.0, 3.0, 2)
            x0[0] = max(x0[0], 1.0 - x0[1])  # keep starts feasible
            res = solve_flow(obj, cons, x0)
            assert res.status is FlowStatus.CONVERGED
            np.testing.assert_allclose(res.x_final, [0.5, 0.5], atol=1e-3)

    def test_min_f1_over_example1(self):
        # componentwise minimum of the first lower objective over X
        obj = oracle("x1^2 + x2^2 + 0.4*x1 - 4*x2")
        res = solve_flow(obj, rows_of(*example1_region()),
                         np.array([1.0, 1.0]))
        assert res.status is FlowStatus.CONVERGED
        assert res.objective_value == pytest.approx(-3.2875, abs=2e-3)
        np.testing.assert_allclose(res.x_final, [0.27244, 1.27244], atol=2e-3)

    def test_nonsmooth_max_objective(self):
        # min max(x1, x2) s.t. x1 + x2 >= 1: optimum at the kink (0.5, 0.5)
        obj = oracle("max(x1, x2)")
        cons = rows_of(oracle("-x1 - x2 + 1"))
        res = solve_flow(obj, cons, np.array([2.0, 0.3]))
        assert res.status is FlowStatus.CONVERGED
        assert res.objective_value == pytest.approx(0.5, abs=1e-3)

    def test_constant_objective_converges_immediately(self):
        obj = oracle("0*x1")
        res = solve_flow(obj, rows_of(*example1_region()),
                         np.array([1.0, 1.0]))
        assert res.status is FlowStatus.CONVERGED
        np.testing.assert_array_equal(res.x_final, [1.0, 1.0])
        assert res.steps <= 8  # only band-tightening re-tests, no motion

    def test_converged_invariant(self):
        obj = oracle("x1 + x2^2")
        res = solve_flow(obj, rows_of(*example1_region()),
                         np.array([1.0, 1.0]))
        assert res.status is FlowStatus.CONVERGED
        assert res.penalty_residual <= nd.FEASIBILITY_TOL
        # the tolerance scales with the objective's gradient at the start,
        # (1, 2) at (1, 1)
        tol = nd.STATIONARITY_TOL * math.sqrt(5.0)
        assert res.final_velocity_norm <= tol

    @pytest.mark.parametrize("pairs", [
        [(math.nan, [1.0, 0.0])], [(math.inf, [1.0, 0.0])],
        [(1.0, [math.nan, 0.0])], [(1.0, [-math.inf, 0.0])],
        [(1.0, [1.0, 0.0]), (0.5, [0.0, math.nan])]],
        ids=["nan-value", "inf-value", "nan-gradient", "inf-gradient",
             "second-branch"])
    def test_an_objective_that_is_not_finite_at_the_start_raises(self, pairs):
        # the tolerance is max(1, the largest gradient norm), and
        # max(1.0, nan) is 1.0: only a direct test sees the NaN
        class Fixed:
            def branch_pairs(self, x):
                return [(v, np.array(g)) for v, g in pairs]

        with pytest.raises(nd.FlowError, match=r"^the objective is not "
                           r"finite at the start \(1\.0, 1\.0\)$"):
            solve_flow(Fixed(), rows_of(*example1_region()),
                       np.array([1.0, 1.0]))

    def test_divergence_detected(self):
        obj = oracle("x1 + x2", V2)  # unbounded below, no constraints
        res = solve_flow(obj, rows_of(), np.array([0.0, 0.0]))
        # each clean step is twice the last: after 30 the arc length
        # DT (2^30 - 1) is past DIVERGENCE_RADIUS
        assert res.status is FlowStatus.DIVERGED and res.steps == 30

    def test_trace_recording(self):
        obj = oracle("x1^2 + x2^2")
        with nd.recording() as trace:
            solve_flow(obj, rows_of(oracle("-x1 - x2 + 1")),
                       np.array([1.0, 0.0]))
        assert trace
        flow_id, t, x, r, s, speed = trace[0]
        assert flow_id == 1 and t == 0.0 and len(x) == 2

    def test_objective_descent_inside_feasible_region(self):
        obj = oracle("x1^2 + x2^2 + 0.4*x1 - 4*x2")
        with nd.recording() as trace:
            solve_flow(obj, rows_of(*example1_region()), np.array([1.0, 1.0]))
        inside = [row for row in trace if row[4] <= 1e-7]
        rs = [row[3] for row in inside]
        for a, b in zip(rs, rs[1:]):
            assert b <= a + 1e-9

    def test_slides_along_a_curved_row_without_crawling(self):
        # min |x - e1|^2 over the ball of radius 0.25 from a boundary point:
        # the flow slides along the sphere to (0.25, 0, 0) and must take
        # full steps there, not steps of one ulp of the row value
        v3 = ["x1", "x2", "x3"]
        obj = oracle("(x1 - 1)^2 + x2^2 + x3^2", v3)
        ball = oracle("x1^2 + x2^2 + x3^2 - 0.0625", v3)
        res = solve_flow(obj, rows_of(ball, width=3), np.full(3, 0.14391))
        assert res.status is FlowStatus.CONVERGED
        assert res.steps < 1000
        assert res.penalty_residual <= 1e-9

    def test_lands_on_a_curved_kink_without_crawling(self):
        # the branches are equal on a circle, and the optimum 4/9 lies on it
        # at (1/3, 0); a flow sliding along the circle must land on it after
        # each tangent step, not crawl at the rounding noise of the branches
        obj = oracle("max((x1 - 1)^2 + x2^2, 0.25*((x1 + 1)^2 + x2^2))")
        res = solve_flow(obj, rows_of(), np.array([1.0, 2.0]))
        assert res.status is FlowStatus.CONVERGED
        assert res.steps < 60
        assert abs(res.objective_value - 4.0 / 9.0) <= 1e-9

    def test_lands_on_a_three_branch_kink(self, monkeypatch):
        # squared distances to the corners of an equilateral triangle in the
        # plane x3 = 0: the three branches are equal on the x3 axis, where
        # the flow slides down to the optimum 1 at the origin
        v3 = ["x1", "x2", "x3"]
        s3 = 0.8660254037844386
        obj = oracle(f"max((x1 - 1)^2 + x2^2 + x3^2, "
                     f"(x1 + 0.5)^2 + (x2 - {s3})^2 + x3^2, "
                     f"(x1 + 0.5)^2 + (x2 + {s3})^2 + x3^2)", v3)
        sizes = []
        kink_step = nd._kink_step

        def recorded(objective, kink, x):
            sizes.append(len(kink))
            return kink_step(objective, kink, x)

        monkeypatch.setattr(nd, "_kink_step", recorded)
        res = solve_flow(obj, rows_of(width=3), np.array([0.1, 0.05, 1.5]))
        assert res.status is FlowStatus.CONVERGED
        assert 3 in sizes
        assert abs(res.objective_value - 1.0) <= 1e-9

    def test_leaves_a_kink_the_selection_does_not_balance(self):
        # the branches are equal on the line x1 = -0.125, but the optimum 0
        # lies at the origin, inside the second branch; at the kink the
        # least-norm selection puts all weight on that branch, so the flow
        # must leave the kink instead of being pulled back onto it
        obj = oracle("max((x1 - 2)^2 + x2^2 - 4.5, x1^2 + x2^2)")
        for x0 in ([-0.125 - 1e-5, 0.0], [-0.125, 0.3]):
            res = solve_flow(obj, rows_of(), np.array(x0))
            assert res.status is FlowStatus.CONVERGED
            assert res.objective_value <= 1e-9

    def test_identical_branch_gradients_have_no_kink(self):
        # the branches differ by a constant: no point has them equal, so
        # the kink step leaves x alone and the flow is the one-branch flow
        one = oracle("(x1 - 1)^2 + (x2 - 0.5)^2")
        two = oracle("max((x1 - 1)^2 + (x2 - 0.5)^2, "
                     "(x1 - 1)^2 + (x2 - 0.5)^2 - 1e-6)")
        x = np.array([0.3, 0.2])
        assert nd._kink_step(two, [0, 1], x) is x
        x0 = np.array([-1.0, 2.0])
        ref = solve_flow(one, rows_of(), x0)
        res = solve_flow(two, rows_of(), x0)
        assert res.status is FlowStatus.CONVERGED and res.steps == ref.steps
        assert res.x_final.tobytes() == ref.x_final.tobytes()
        assert res.objective_value == ref.objective_value

    def test_stops_on_a_small_velocity_only_when_feasible(self):
        # from just outside x2 <= 1 the band's gain is about 5e-8: the
        # velocity is small, but the point is infeasible, so the flow goes
        # on to the minimizer at the corner
        res = solve_flow(oracle("x1"), rows_of(oracle("x2 - 1"),
                                               oracle("-x1 - 1")),
                         np.array([0.0, 1.0 + 0.9999999e-4]))
        assert res.status is FlowStatus.CONVERGED and res.steps == 8
        np.testing.assert_allclose(res.x_final, [-1.0, 1.0], atol=1e-12)

    @staticmethod
    def _flat_row_flow(x2):
        # min x1 over 1e-6 x2 <= 0, x1 >= -5 and x2 >= -5: the first row's
        # gradient norm is 1e-6, so its band is ZERO_BAND, not 1e-10
        rows = rows_of(oracle("1e-6*x2"), oracle("-x1 - 5"), oracle("-x2 - 5"))
        return solve_flow(oracle("x1"), rows, np.array([1.0, x2]))

    def test_trial_within_the_selection_band_is_no_escape(self):
        # the flat row reads 5e-10 <= ZERO_BAND at the start, within the
        # band the selection takes it at; a trial there once counted as an
        # escape past CERT_BAND * 1e-6, so no step was ever accepted
        res = self._flat_row_flow(5e-4)
        assert res.status is FlowStatus.CONVERGED
        assert res.objective_value == -5.0

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="near the top of a row's band the gain c goes to 0, and the "
               "stationarity test reads the velocity the gain scaled down: "
               "from (1, 1e-3 (1 - 1e-7)) |v| is 5e-8 and the flow is "
               "certified Converged at its start after 1 step; from (1, "
               "1e-3), at the band's top, |v| is 0")
    def test_gain_at_the_top_of_the_band_is_not_stationarity(self):
        res = self._flat_row_flow(1e-3 * (1.0 - 1e-7))
        assert res.objective_value == -5.0

    def test_failed_trial_loop_ends_the_flow(self):
        # value() reads 1 above branch_pairs(): every trial fails, so the
        # first step's 31 trial points are the flow's only ones, and the
        # flow ends there unconverged
        class Overstated:
            calls = 0

            def branch_pairs(self, x):
                return [(float(x @ x), 2.0 * x)]

            def value(self, x):
                self.calls += 1
                return float(x @ x) + 1.0

        obj = Overstated()
        res = solve_flow(obj, rows_of(), np.array([1.0, 2.0]))
        assert res.status is FlowStatus.UNCONVERGED and res.steps == 1
        assert obj.calls == 31

    def test_certification_keeps_the_band_of_the_steps(self):
        # r = x1 with value() 1 above branch_pairs(): every trial fails.  The
        # row -x1 <= 0 reads -5e-4 at the start, outside the band 1e-4 the
        # steps select at, so the velocity is -e1 there.  The minimizer is
        # x1 = 0: the flow ends where it started, and that point is not
        # certified, though at 10x the band the row would cancel the
        # gradient
        class Overstated:
            def branch_pairs(self, x):
                return [(float(x[0]), np.array([1.0, 0.0]))]

            def value(self, x):
                return float(x[0]) + 1.0

        res = solve_flow(Overstated(), rows_of(oracle("-x1")),
                         np.array([5e-4, 0.0]))
        assert res.status is FlowStatus.UNCONVERGED and res.steps == 1
        assert res.final_velocity_norm == 1.0
        np.testing.assert_array_equal(res.x_final, [5e-4, 0.0])

    def test_a_start_above_its_band_is_polished_once(self):
        # the flat row reads 1e-8 at the start, above its band ZERO_BAND:
        # the start polish pulls it back, and the flow slides from there
        res = self._flat_row_flow(1e-2)
        assert res.status is FlowStatus.CONVERGED
        assert res.objective_value == -5.0

    def test_a_start_the_polish_cannot_mend_ends_unconverged(self):
        # x1 <= -1 and x1 >= 1 read 1 each at x1 = 0, and no step lowers
        # their sum: the rows cancel the velocity at the first selection,
        # and the flow ends where it starts, after 1 step
        rows = rows_of(oracle("x1 + 1", ["x1"]), oracle("-x1 + 1", ["x1"]),
                       width=1)
        res = solve_flow(oracle("x1", ["x1"]), rows, np.array([0.0]))
        assert res.status is FlowStatus.UNCONVERGED and res.steps == 1
        np.testing.assert_array_equal(res.x_final, [0.0])
        assert res.penalty_residual == 2.0

    def test_a_two_point_cycle_ends(self):
        # ball(2)'s MP(z) from (0.5, 0.5): the flow reaches (0.5022657,
        # +-4.8e-9) and then alternates across x2 = 0, each accepted step
        # 9.5e-9 long, r moving between two floats one ulp apart, within
        # the Armijo test's rounding slack.  Those steps set no new least
        # r, so they count as stalls.  At the 100th the flow moves to the
        # midpoint of its last two points, near x2 = 0, the cycle's
        # stationary point, and converges there at its 127th selection;
        # without the midpoint it ended Unconverged after 126
        sol = solve_mp(load_problem(ball_text(2)),
                       np.array([26.0, 5.132481794127312e-06]),
                       np.array([0.5, 0.5]))
        assert sol.flow.status is FlowStatus.CONVERGED
        assert sol.flow.steps == 127
        assert abs(sol.flow.x_final[1]) <= 1e-10

    def test_a_second_run_of_stalls_ends_the_flow(self):
        # r is 0 everywhere, and its gradient e1 never 0: Armijo accepts
        # only a trial of 9.3e-12, which sets no new least r, so every step
        # after the first stalls.  The 100th stall moves the flow to the
        # midpoint of its last two points, once; the next 100 end it
        class Flat:
            def branch_pairs(self, x):
                return [(0.0, np.array([1.0, 0.0]))]

            def value(self, x):
                return 0.0

        with nd.recording() as rows:
            res = solve_flow(Flat(), rows_of(), np.array([1.0, 2.0]))
        assert res.status is FlowStatus.UNCONVERGED and res.steps == 203
        xs = [np.array(row[2]) for row in rows]
        assert len(xs) == 203
        # selection 103 is at the midpoint of the points 101 and 102
        assert xs[102].tobytes() == (0.5 * (xs[100] + xs[101])).tobytes()
        assert xs[102][0] > xs[101][0]

    def test_certification_refuses_a_row_above_its_band(self, monkeypatch):
        # the start polish, replaced here by the identity, leaves the flat
        # row 1e-6 x2 <= 0 at 5e-8: above its band ZERO_BAND, though S is
        # within FEASIBILITY_TOL, and the row's gain of 0 makes the
        # velocity 0 at the first selection
        def kept(rows, norms, x, vals, s, origin=None):
            return x, vals, s

        monkeypatch.setattr(nd, "_polish_feasibility", kept)
        res = solve_flow(oracle("x1"), rows_of(oracle("1e-6*x2")),
                         np.array([0.0, 0.05]))
        assert res.final_velocity_norm == 0.0
        assert res.penalty_residual <= nd.FEASIBILITY_TOL
        assert res.status is FlowStatus.UNCONVERGED and res.steps == 1

    def test_a_cap_on_the_stationary_point_still_certifies_it(self):
        # this flow converges at its 9th selection; a cap of 8 Euler steps
        # still selects at the point the 8th step reached, and certifies it
        obj = oracle("(x1 - 3)^2 + (x2 - 1)^2")
        rows = rows_of(oracle("x1^2 + x2^2 - 4"))
        ref = solve_flow(obj, rows, np.array([0.0, 0.0]))
        assert ref.status is FlowStatus.CONVERGED and ref.steps == 9
        with mock.patch.object(nd, "MAX_STEPS", 8):
            res = solve_flow(obj, rows, np.array([0.0, 0.0]))
        assert res.status is FlowStatus.CONVERGED and res.steps == 9
        assert res.x_final.tobytes() == ref.x_final.tobytes()
        with mock.patch.object(nd, "MAX_STEPS", 7):
            res = solve_flow(obj, rows, np.array([0.0, 0.0]))
        assert res.status is FlowStatus.UNCONVERGED and res.steps == 8

    def test_shared_rows_carry_no_state_between_flows(self):
        # each flow takes the row's band from its gradient norm at its own
        # start and keeps its bands to itself, so a second flow on the
        # same RowSet repeats the first bit for bit
        obj = oracle("(x1 - 3)^2 + (x2 - 1)^2")
        rows = RowSet.of([oracle("1e-6*(x1^2 - 4)")], 2)
        runs = [solve_flow(obj, rows, np.array([1.0, 0.0]))
                for _ in range(2)]
        assert runs[0].status is FlowStatus.CONVERGED
        assert runs[1].steps == runs[0].steps
        assert runs[1].x_final.tobytes() == runs[0].x_final.tobytes()


def _system(kind, rng):
    """(a, b): a seeded least-squares system of the given kind, rows scaled
    over six decades.  "transposed" is a transposed view, the layout of the
    selection QP's cols.T; "kkt" is the selection QP's KKT system for one
    simplex weight and three rows, symmetric with a zero corner, unscaled."""
    m, n = {"square": (4, 4), "tall": (6, 3), "wide": (2, 5),
            "rank-deficient": (5, 4), "one-row": (1, 3), "transposed": (5, 3),
            "kkt": (5, 5)}[kind]
    if kind == "kkt":
        mf = rng.standard_normal((m - 1, 3))
        a = np.zeros((m, m))
        a[:-1, :-1] = 2.0 * mf.dot(mf.T)
        a[0, -1] = a[-1, 0] = 1.0
        b = np.append(rng.standard_normal(m - 1), 1.0)
        return a, b
    if kind == "rank-deficient":
        a = rng.standard_normal((m, 2)) @ rng.standard_normal((2, n))
    elif kind == "transposed":
        a = rng.standard_normal((n, m)).T
    else:
        a = rng.standard_normal((m, n))
    a *= 10.0 ** rng.uniform(-3, 3, (m, 1))
    return a, rng.standard_normal(m)


_KINDS = ["square", "tall", "wide", "rank-deficient", "one-row",
          "transposed", "kkt"]


class TestLeastSquares:
    """The least squares of the selection QP, the row polish and the kink
    step: ``_lstsq``, which calls the LAPACK gufunc of ``np.linalg.lstsq``
    with numpy's default cutoff and returns that function's bits without
    its wrapper; a replaced ``np.linalg.lstsq`` is called in its place."""

    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize("seed", range(4))
    def test_helper_bit_identical_to_numpy(self, kind, seed):
        a, b = _system(kind, np.random.default_rng(seed))
        x = nd._lstsq(a, b)
        assert x.shape == (a.shape[1],)
        assert x.tobytes() == np.linalg.lstsq(a, b, rcond=None)[0].tobytes()

    def test_a_nan_matrix_raises(self):
        # numpy's wrapper raises LinAlgError, a ValueError, when the SVD
        # fails; the gufunc on its own returns NaN and flags the invalid
        # value, which the errstate here silences
        a, b = _system("square", np.random.default_rng(0))
        a[1, 2] = np.nan
        assert issubclass(np.linalg.LinAlgError, ValueError)
        with np.errstate(invalid="ignore"), \
                pytest.raises(np.linalg.LinAlgError):
            nd._lstsq(a, b)

    @pytest.mark.parametrize("nf", [2, 3, 5])
    def test_zero_sum_basis_is_made_once(self, nf):
        q = nd._zero_sum_basis(nf)
        fresh = np.linalg.qr(np.ones((nf, 1)), mode="complete")[0][:, 1:]
        assert nd._zero_sum_basis(nf) is q
        assert q.tobytes() == fresh.tobytes()
        assert not q.flags.writeable

    def test_a_patched_numpy_lstsq_sees_the_solves(self, monkeypatch):
        # the benchmark's tracer counts least squares by patching
        # np.linalg.lstsq, so each solve must look it up at its call;
        # examples 4 and 6 both reach the KKT, zero-sum and multi-row
        # solves, and example 6's polish solves for up to 12 rows
        real = np.linalg.lstsq
        for number in (4, 6):
            calls = []

            def counted(*args, **kwargs):
                # the function that called ``_lstsq``
                calls.append(sys._getframe(2).f_code.co_name)
                return real(*args, **kwargs)
            monkeypatch.setattr(np.linalg, "lstsq", counted)
            report = bnb.solve(catalog.load_example(number),
                               bnb.SolverConfig(epsilon=1e-2))
            assert report.status is bnb.SolverStatus.OPTIMAL
            assert {"_free_least_squares", "_polish_feasibility"} <= \
                set(calls)


def _no_lstsq(*args, **kwargs):
    raise AssertionError("np.linalg.lstsq called")


class TestRowPolish:
    """``_polish_feasibility`` pulls one violated row back in closed form."""

    @pytest.mark.parametrize("seed", range(10))
    def test_one_row_step_is_the_least_squares_step(self, seed):
        # the affine row g.x + v <= 0 reads v at the origin, where one
        # step meets it to rounding, so the polish returns 0 - step exactly
        rng = np.random.default_rng(seed)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            g = rng.uniform(-10.0, 10.0, n) * 10.0 ** rng.uniform(-3, 3)
            v = 10.0 ** rng.uniform(-3, 3)
            rows = RowSet(g[None, :], np.array([v]))
            vals = rows.evaluate(np.zeros(n))[0]
            x0 = np.zeros(n)
            x, _, _ = nd._polish_feasibility(rows, rows.norm_estimates(x0),
                                             x0, vals, v)
            ref = np.linalg.lstsq(g[None, :], np.array([v]), rcond=None)[0]
            assert _norm(-x - ref) <= 1e-15 * _norm(ref)

    def test_flat_row_leaves_the_point_alone(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "lstsq", _no_lstsq)
        rows = RowSet(np.array([[1e-13, 0.0]]), np.array([1.0]))
        x0 = np.array([0.5, -2.0])
        vals = rows.evaluate(x0)[0]
        x, out, s = nd._polish_feasibility(rows, rows.norm_estimates(x0), x0,
                                           vals, 1.0)
        assert x is x0 and out is vals and s == 1.0

    def test_lands_on_the_unit_disc(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "lstsq", _no_lstsq)
        rows = RowSet.of([oracle("x1^2 + x2^2 - 1")], 2)
        x0 = np.array([1.5, 1.0])
        x, out, s = nd._polish_feasibility(rows, rows.norm_estimates(x0), x0,
                                           *rows.evaluate(x0))
        assert s <= nd.ZERO_BAND
        assert _bits(out) == _bits(rows.evaluate(x)[0])
        assert s == rows.evaluate(x)[1]

    def test_slides_along_a_curved_row_without_least_squares(self,
                                                            monkeypatch):
        # min x1 + x2 on the unit disc from (1, 0): every selection and
        # every pull-back along the circle involves one row
        monkeypatch.setattr(np.linalg, "lstsq", _no_lstsq)
        res = solve_flow(oracle("x1 + x2"), rows_of(oracle("x1^2 + x2^2 - 1")),
                         np.array([1.0, 0.0]))
        assert res.status is FlowStatus.CONVERGED
        np.testing.assert_allclose(res.x_final, [-0.5 ** 0.5] * 2,
                                   atol=1e-6)

    @pytest.mark.parametrize("level, origin",
                             [(0.0, -1e-3), (0.0, 0.0), (2e-10, 2e-10),
                              (0.5e-9, 0.5e-9), (0.7e-9, 0.7e-9),
                              (1e-9, 1e-3)])
    def test_curved_row_lands_at_its_origin_level(self, level, origin):
        # from 1e-7 outside the unit circle one step lands within about
        # (5e-8)^2 of its target, far below ZERO_BAND
        rows = RowSet.of([oracle("x1^2 + x2^2 - 1")], 2)
        x0 = np.array([(1.0 + 1e-7) ** 0.5, 0.0])
        x, out, _ = nd._polish_feasibility(
            rows, rows.norm_estimates(x0), x0, *rows.evaluate(x0), [origin])
        assert abs(out[0] - level) <= 1e-14
        assert x[0] < x0[0]

    @pytest.mark.parametrize("origin", [-1e-3, 0.0, 2e-10, 0.7e-9, 1e-3])
    def test_affine_row_lands_at_zero(self, origin):
        rows = RowSet.of([oracle("x1 + x2 - 1")], 2)
        x0 = np.array([0.5 + 1e-7, 0.5])
        _, out, s = nd._polish_feasibility(
            rows, rows.norm_estimates(x0), x0, *rows.evaluate(x0), [origin])
        assert rows.na == 1
        assert abs(out[0]) <= 1e-15 and s <= 1e-15

    def test_sliding_flow_keeps_its_level_on_a_small_ball(self):
        # the last MP flow of ``ball3``, alone: at the top of the band
        # every pull to 0 cost r about 3e-8, more than a tangent step
        # gains, and the flow crawled 247 steps at dt about 1e-9
        V3 = ["x1", "x2", "x3"]
        z = 0.00022698146066599256
        rows = RowSet.of([(oracle("(x1 - 0.5)^2 + x2^2 + x3^2", V3), "ball",
                           z)], 3)
        res = solve_flow(oracle("(x1 - 1)^2 + x2^2 + x3^2 + 0.25", V3),
                         rows, np.array([0.5, 0.010529758699913348,
                                         0.010529758699913348]))
        assert res.status is FlowStatus.CONVERGED
        assert res.steps <= 40
        assert abs(res.objective_value
                   - (0.25 + (z ** 0.5 - 0.5) ** 2)) <= 1e-7


def _ball(c, r2):
    """The expression row |u - c|^2 - r2 <= 0 over len(c) columns."""
    body = Const(-r2)
    for i, ci in enumerate(c):
        square = Pow(BinOp("-", Var(i, f"x{i + 1}"), Const(float(ci))), 2)
        body = BinOp("+", square, body)
    return CompiledExpr(body, len(c))


_coord = st.floats(-3.0, 3.0)


@st.composite
def row_sets(draw):
    """(RowSet, point): affine and quadratic rows in 2 or 3 variables."""
    n = draw(st.integers(2, 3))
    vec = st.lists(_coord, min_size=n, max_size=n)
    na = draw(st.integers(0, 3))
    nq = draw(st.integers(0 if na else 1, 3))
    A = np.array([draw(vec) for _ in range(na)]).reshape(na, n)
    b = np.array([draw(_coord) for _ in range(na)])
    balls = [(_ball(draw(vec), draw(st.floats(0.1, 4.0))), draw(_coord))
             for _ in range(nq)]
    return RowSet(A, b, balls), np.array(draw(vec))


class TestCarriedPenalty:
    """The S a flow carries is the S of the row values it carries."""

    @given(row_sets())
    @settings(max_examples=60, deadline=None)
    def test_polish_returns_the_s_of_its_values(self, case):
        rows, x0 = case
        x, out, s = nd._polish_feasibility(rows, rows.norm_estimates(x0), x0,
                                           *rows.evaluate(x0))
        assert _bits(out) == _bits(rows.evaluate(x)[0])
        assert s == rows.evaluate(x)[1]

    @given(row_sets())
    @settings(max_examples=40, deadline=None)
    def test_flow_reports_the_s_of_its_final_point(self, case):
        rows, x0 = case
        objective = _ball(np.ones(rows.n), 0.0)
        # generated row sets drive flows toward the step cap
        with mock.patch.object(nd, "MAX_STEPS", 200):
            res = solve_flow(objective, rows, x0)
        assert res.penalty_residual == rows.evaluate(res.x_final)[1]
        # a converged flow ends feasible: incumbents rest on this
        assert (res.status is not nd.FlowStatus.CONVERGED
                or res.penalty_residual <= nd.FEASIBILITY_TOL)


def _assert_rows_match_oracles(rows: RowSet, u: np.ndarray):
    """The row values at u are Python floats: the affine block's are
    A u + b's, hex for hex.  Each nonlinear row's value and gradient at u,
    hex for hex, are its expression's on w = (head, u): value(w[:n_vars])
    - shift, and value_grad's gradient padded with zeros to the width of
    w, less the head.  S is the positive values added in index order."""
    vals, s = rows.evaluate(u)
    assert all(type(v) is float for v in vals) and len(vals) == rows.size
    assert _bits(vals[:rows.na]) == _bits((rows.A.dot(u) + rows.b).tolist())
    assert s.hex() == _index_order_sum(vals).hex()
    w = np.concatenate([rows.head, u])
    h = len(rows.head)
    for j, (c, shift) in enumerate(rows.nonlinear):
        cols = w[:c.n_vars]
        i = rows.na + j
        assert float(vals[i]).hex() == float(c.value(cols) - shift).hex()
        g = c.value_grad(cols)[1]
        g = np.concatenate([g, np.zeros(len(w) - len(cols))])[h:]
        assert rows.row_grad(i, u).tobytes() == g.tobytes()


class TestRowSetOf:
    def test_rows_keep_their_order_labels_and_shifts(self):
        rows = RowSet.of([(oracle("x1^2 - 1"), "disc", 0.5),
                          (oracle("x2 - 1", ["x1", "x2", "y1"]), "cap", 2.0),
                          oracle("-x1")], 3)
        assert rows.labels == ("cap", "", "disc")
        np.testing.assert_array_equal(rows.A, [[0.0, 1.0, 0.0],
                                               [-1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(rows.b, [-3.0, 0.0])
        # the nonlinear row reads the first two columns; its gradient is
        # padded to the set's width
        u = np.array([2.0, 0.0, 7.0])
        assert rows.evaluate(u)[0][2] == 2.5
        np.testing.assert_array_equal(rows.row_grad(2, u), [4.0, 0.0, 0.0])

    def test_norm_estimates_start_at_the_point(self):
        # a nonlinear row's band starts at its gradient's norm at the
        # point, 2e-8 here, so a row that is nearly flat there has the
        # band ZERO_BAND and is not taken for an active one; a norm seeded
        # at 1 would give it CERT_BAND
        rows = RowSet.of([oracle("x1 + x2"),
                          oracle("(x1 - 0.5)^2 + x2^2 - 0.0625")], 2)
        u = np.array([0.5 + 1e-8, 0.0])
        bands = rows.norm_estimates(u)
        assert bands == [nd.CERT_BAND * math.sqrt(2.0), nd.ZERO_BAND]
        assert nd._band(1.0) == nd.CERT_BAND

    def test_each_flow_gets_bands_of_its_own(self):
        # a flow moves a curved row's band with row_grad and may write its
        # list; the next flow's bands are a new list, taken at its own
        # start, with the affine bands the set computed once
        rows = RowSet.of([oracle("x1 + x2"), oracle("x1^2 + x2^2 - 1")], 2)
        u1, u2 = np.array([1.0, 0.0]), np.array([0.25, 0.5])
        first = rows.norm_estimates(u1)
        rows.row_grad(1, np.array([3.0, 4.0]), first)
        assert first[1] == nd._band(10.0)
        first[0] = -1.0
        second = rows.norm_estimates(u2)
        assert second is not first
        assert second == [nd._band(math.sqrt(2.0)),
                          nd._band(_norm(rows.row_grad(1, u2)))]
        # a set made by shifted shares the rows, not the lists
        shifted = rows.shifted([1.0, 0.5])
        third = shifted.norm_estimates(u2)
        assert third == second and third is not second
        assert shifted.norm_estimates(u2) is not third

    @given(row_sets(), st.lists(_coord, min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_bands_follow_the_gradient_norms(self, case, coords):
        # each band is _band of its row's gradient norm at the start, and
        # row_grad moves a nonlinear row's band to its norm at the new
        # point, leaving the others as they were
        rows, x0 = case
        bands = rows.norm_estimates(x0)
        assert len(bands) == rows.size
        for i in range(rows.size):
            band = nd._band(max(_norm(rows.row_grad(i, x0)), 1e-12))
            if i < rows.na:
                assert bands[i] == pytest.approx(band, rel=1e-15)
            else:
                assert bands[i] == band
        x1 = np.array(coords[:rows.n])
        for i in range(rows.na, rows.size):
            before = list(bands)
            g = rows.row_grad(i, x1, bands)
            assert bands[i] == nd._band(max(_norm(g), 1e-12))
            assert bands[:i] + bands[i + 1:] == before[:i] + before[i + 1:]

    @pytest.mark.parametrize("shifts", [
        [0.0] * 6, [0.25, -1.5, 3.0, 1e-17, -0.0, 2.0 / 3.0],
        [1e300, 5e-324, -7.0, 0.1, 0.2, -1e-300]])
    def test_shifted_is_of_with_the_shifts(self, shifts):
        # affine and nonlinear rows interleave; each row of the list is
        # shifted by its own entry, wherever of put it
        exprs = [(oracle("x1 - 2*x2 + 0.3"), "a1"),
                 (oracle("x1^2 + x2^2 - 1"), "n1"),
                 (oracle("-x1"), "a2"),
                 (oracle("(x1 - 0.5)^2 - x2"), "n2"),
                 (AffineRow([0.5, -1.0, 2.0], 0.7), "a3"),
                 (oracle("x1*x2 - y1", ["x1", "x2", "y1"]), "n3")]
        template = RowSet.of([(c, label, 0.0) for c, label in exprs], 3)
        assert template.order == [0, 2, 4, 1, 3, 5]
        rows = template.shifted(shifts)
        ref = RowSet.of([(c, label, s) for (c, label), s
                         in zip(exprs, shifts)], 3)
        assert rows.A is template.A
        assert rows.labels == ref.labels == ("a1", "a2", "a3",
                                             "n1", "n2", "n3")
        assert rows.A.tobytes() == ref.A.tobytes()
        assert rows.b.tobytes() == ref.b.tobytes()
        assert [c for c, _ in rows.nonlinear] == [c for c, _ in ref.nonlinear]
        assert [shift.hex() for _, shift in rows.nonlinear] == \
            [shift.hex() for _, shift in ref.nonlinear]
        assert all(type(shift) is float for _, shift in rows.nonlinear)
        assert rows._bands_of_affine_rows() is \
            template._bands_of_affine_rows()
        rng = np.random.default_rng(39)
        for u in rng.uniform(-2.0, 2.0, (10, 3)):
            vals, s = rows.evaluate(u)
            vals_ref, s_ref = ref.evaluate(u)
            assert _bits(vals) == _bits(vals_ref) and s.hex() == s_ref.hex()
            assert _bits(rows.norm_estimates(u)) == \
                _bits(ref.norm_estimates(u))

    def test_a_root_max_row_is_rejected(self):
        # a max row is one row per branch (``problem._rows``), and a RowSet
        # would read only its first branch
        with pytest.raises(TypeError, match="'m' is a root max"):
            RowSet.of([(oracle("max(x1^2 - 1, x2^2 - 1)"), "m", 0.0)], 2)


class TestRowsFromOneList:
    """A RowSet evaluates its nonlinear rows from one list of floats: the
    same bits as calling each row's oracle on its own columns."""

    @staticmethod
    def _points(width, count=25):
        rng = np.random.default_rng(5)
        return [rng.uniform(-0.5, 2.0, width) for _ in range(count)]

    @pytest.mark.parametrize("number", [1, 4, 6])
    def test_mp_stack_at_m(self, number):
        # example 1: the curved s-row and the f_1 row beside f_2's max
        # branch rows; example 4: the disc coupling row; example 6: the
        # y columns, and f-rows over the first k columns of u = (x, y)
        problem = catalog.load_example(number)
        rows = stacked_mp_constraints(problem, compute_box(problem).M)
        assert rows.nonlinear
        for u in self._points(problem.n + problem.m):
            _assert_rows_match_oracles(rows, u)

    @pytest.mark.parametrize("number", [4, 6])
    def test_lift_rows(self, number):
        # rows over y behind a fixed head x: example 6's g-rows are affine,
        # example 4's disc row is not
        problem = catalog.load_example(number)
        rng = np.random.default_rng(6)
        for _ in range(10):
            rows = problem.lift_rows(rng.uniform(0.0, 2.0, problem.n))
            assert len(rows.head) == problem.n
            assert bool(rows.nonlinear) == (number == 4)
            for y in self._points(problem.m, 5):
                _assert_rows_match_oracles(rows, y)

    def test_a_head_fixed_in_two_parts(self):
        # the g-row is curved in x1, x2 and y1; its head fixed as x1, then
        # x2, gives the rows the head (x1, x2) fixed at once gives
        problem = load_problem("vars x 2\nvars y 2\nupper x1 + y1\n"
                               "lower x1\nlower x2\n"
                               "constraint_xy x1^2 + x2*y1 + y2^2 - 4\n")
        for x in self._points(problem.n, 5):
            once = problem.lift_rows(x)
            twice = problem.lift_rows(x[:1]).fix_head(x[1:])
            assert twice.nonlinear and twice.head == once.head
            for y in self._points(problem.m, 5):
                assert _bits(twice.evaluate(y)[0]) == \
                    _bits(once.evaluate(y)[0])
                for i in range(once.size):
                    assert twice.row_grad(i, y).tobytes() == \
                        once.row_grad(i, y).tobytes()
                _assert_rows_match_oracles(twice, y)

    @given(row_sets(), st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_ball_rows(self, case, h):
        rows, x = case
        # a ball over the first two columns, then a head of h of them fixed
        ball = _ball(x[:2] + 0.5, 1.0)
        rows = RowSet(rows.A, rows.b, rows.nonlinear + ((ball, 0.25),))
        if h:
            rows = rows.fix_head(x[:h])
        _assert_rows_match_oracles(rows, x[h:] - 0.25)


def _record_values(monkeypatch, rows: RowSet, seen: list):
    """Make each nonlinear row of ``rows`` record in ``seen`` the point, at
    the row's own columns, where a RowSet takes its value: the row's
    generated function, wrapped, counting its value calls and not its
    gradient calls."""
    for c, _ in rows.nonlinear:
        fn = c.branch_values[0]

        def counted(ws, gradient=False, c=c, fn=fn):
            if not gradient:
                seen.append((id(c), np.array(ws[:c.n_vars]).tobytes()))
            return fn(ws, gradient)
        monkeypatch.setattr(c, "branch_values", [counted])


class TestEvaluateOnce:
    """Within one ``solve_flow`` or ``find_feasible`` call no row's value is
    taken twice at the same point, but for the one repeat that
    ``test_curved_row`` pins."""

    @staticmethod
    def _repeats(seen):
        return len(seen) - len(set(seen))

    def _check(self, objective, rows, u_start, seen):
        u = find_feasible(rows, u_start)
        assert u is not None and seen
        assert self._repeats(seen) == 0
        seen.clear()
        res = solve_flow(objective, rows, u)
        assert res.steps > 1 and seen
        return res

    def test_curved_row(self, monkeypatch):
        v3 = ["x1", "x2", "x3"]
        obj = oracle("(x1 - 1)^2 + x2^2 + x3^2", v3)
        rows = rows_of(oracle("x1^2 + x2^2 + x3^2 - 0.0625", v3), width=3)
        seen = []
        _record_values(monkeypatch, rows, seen)
        with nd.recording() as trace:
            res = self._check(obj, rows, np.full(3, 0.5), seen)
        # one known repeat: the polish pulls a curved row back to its level
        # at the trial's origin, and from step 25's point a halved trial,
        # pulled back, lands on step 24's point bit for bit, where Armijo
        # rejects it
        assert res.steps == 26
        assert self._repeats(seen) == 1
        (point,) = {p for p in seen if seen.count(p) > 1}
        assert point[1] == np.array(trace[23][2]).tobytes()

    def test_example4_mp_stack(self, monkeypatch):
        problem = catalog.load_example(4)
        box = compute_box(problem)
        rows = stacked_mp_constraints(problem, box.M)
        u0 = np.concatenate([find_interior_start(problem), np.ones(problem.m)])
        seen = []
        _record_values(monkeypatch, rows, seen)
        self._check(problem.upper, rows, u0, seen)
        assert self._repeats(seen) == 0


class TestRecording:
    """``neurodynamic.recording`` collects the rows that ``cli --trace``
    writes: one per selection of every flow run inside it."""

    @staticmethod
    def _flow(start):
        obj = oracle("x1^2 + x2^2 + 0.4*x1 - 4*x2")
        return solve_flow(obj, rows_of(*example1_region()), np.array(start))

    def test_every_flow_of_a_solve_is_numbered_and_ends_at_its_result(
            self, monkeypatch):
        results = []
        flow = nd.solve_flow

        def collected(*args):
            results.append(flow(*args))
            return results[-1]

        monkeypatch.setattr(nd, "solve_flow", collected)
        with nd.recording() as rows:
            bnb.solve(catalog.load_example(4))
        assert results
        by_flow = {}
        for row in rows:
            by_flow.setdefault(row[0], []).append(row)
        # numbered 1..N in the order they ran, one number per call
        assert [row[0] for row in rows] == sorted(row[0] for row in rows)
        assert list(by_flow) == list(range(1, len(results) + 1))
        for res, flow_rows in zip(results, by_flow.values()):
            # every flow of example 4 converges, at its last selection
            assert res.status is FlowStatus.CONVERGED
            assert len(flow_rows) == res.steps
            _, _, x, r, s, speed = flow_rows[-1]
            assert x == tuple(res.x_final.tolist())
            assert (r, s, speed) == (res.objective_value,
                                     res.penalty_residual,
                                     res.final_velocity_norm)

    def test_a_flow_outside_a_recording_appends_nothing(self):
        with nd.recording() as rows:
            pass
        self._flow([1.0, 1.0])
        assert rows == []

    def test_an_inner_recording_leaves_the_outer_one_untouched(self):
        with nd.recording() as outer:
            self._flow([1.0, 1.0])
            before = list(outer)
            with nd.recording() as inner:
                self._flow([1.0, 1.0])
            assert outer == before
            assert [row[1:] for row in inner] == [row[1:] for row in before]
            assert {row[0] for row in inner} == {1}
            with pytest.raises(RuntimeError):
                with nd.recording() as failed:
                    self._flow([1.0, 1.0])
                    raise RuntimeError
            assert failed and outer == before
            # the outer recording is current again, and numbers on
            self._flow([1.0, 1.0])
        assert outer[:len(before)] == before
        assert {row[0] for row in outer[len(before):]} == {2}


class TestNorm:
    @given(st.lists(st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 1e-310,
                                     1e-200, -1e-200, 1e200, -1e200,
                                     np.inf, -np.inf, 1.0, -3.0])
                    | st.floats(allow_nan=False), max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_equals_numpy_norm_bit_for_bit(self, coords):
        v = np.array(coords, dtype=float)
        with np.errstate(all="ignore"):
            assert _norm(v).hex() == float(np.linalg.norm(v)).hex()


class TestFindFeasible:
    def test_already_feasible_unchanged(self):
        x = find_feasible(rows_of(*example1_region()), np.array([1.0, 1.0]))
        np.testing.assert_array_equal(x, [1.0, 1.0])

    def test_from_far_outside(self):
        region = example1_region()
        x = find_feasible(rows_of(*region), np.array([5.0, 5.0]))
        assert x is not None
        for c in region:
            assert c.value(x) <= 1e-6

    def test_empty_system_is_infeasible(self):
        cons = rows_of(oracle("x1 + 1", ["x1"]), oracle("-x1 + 1", ["x1"]),
                       width=1)
        assert find_feasible(cons, np.array([0.0])) is None

    @pytest.mark.parametrize("rows, message", [
        # affine rows come first, so the curved row is row 1
        ([(oracle("x1^2*1e308*10 - 1"), "curved", 0.0),
          (oracle("x1 - 1"), "flat", 0.0)], "row 1 'curved' is inf"),
        ([oracle("x1 - 1"), oracle("x1^2*1e308*10 - x1^2*1e308*10")],
         "row 1 is nan"),
        # each row is finite, their S is not: the largest is named
        ([oracle("x1^2*1e308*6"), oracle("x1^2*1e308*7")],
         "row 1 is 1.75e+308")], ids=["inf", "nan", "S-overflows"])
    def test_a_start_that_is_not_finite_raises(self, rows, message):
        # S ignores a NaN row, and an infinite S cannot descend: the
        # descent ended "X is empty", or stopped at an invalid value
        with pytest.raises(nd.FlowError) as err:
            find_feasible(RowSet.of(rows, 2), np.array([0.5, 0.5]))
        assert str(err.value) == f"{message} at the start (0.5, 0.5)"

    def test_penalty_monotone_along_descent(self):
        region = example1_region()
        x = np.array([8.0, -3.0])
        prev = penalty(x, region)
        # re-run the descent manually step by step through find_feasible's
        # contract: the returned point has no higher penalty than the start
        out = find_feasible(rows_of(*region), x)
        assert out is not None
        assert penalty(out, region) <= prev
