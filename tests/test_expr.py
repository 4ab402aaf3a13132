import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from svbilevel import expr as ex
from svbilevel.expr import (
    BinOp, Const, Max, Neg, ParseError, Pow, Var,
    evaluate, parse_expression, to_source,
    value_and_gradient, CompiledExpr,
)
from svbilevel.neurodynamic import band_members

V2 = ["x1", "x2"]

FIXTURE_EXPRESSIONS = [
    "x1 + x2^2",
    "x1^2 + x2^2 + 0.4*x1 - 4*x2",
    "max(-0.5*x1 - 0.25*x2 - 0.2, -2*x1 + 4.6*x2 - 5.8)",
    "0.5*(x1 - 1)^2 + 1.4*(x2 - 0.5)^2 - 1.1",
    "(2*x1 + 3*x2) / (4*x1 + 5*x2 + 10)",
    "(3*x1 + x2)^2 / (3*x1 + x2 - 1)^3",
    "min(x1, x2 - 1)",
    "-(x1 - x2) * (x1 + x2) / 2",
]


COORDS = st.sampled_from([0.0, 1.0, -1.0, 0.5]) | st.floats(-3, 3)

EXPRESSIONS = st.recursive(
    st.builds(lambda i: Var(i, f"x{i + 1}"), st.integers(0, 2))
    | st.builds(Const, st.sampled_from([0.0, 1.0, -2.5, 0.3, 1e-3])),
    lambda kids: st.builds(Neg, kids)
    | st.builds(BinOp, st.sampled_from("+-*/"), kids, kids)
    | st.builds(Pow, kids, st.sampled_from([-2, -1, 0, 1, 2, 3, 9]))
    | st.builds(lambda a, b: Max((a, b)), kids, kids),
    max_leaves=12)


def _reference_value(e, x):
    """The value path's arithmetic on numpy scalars: squares through ``**``,
    the denominator evaluated and checked before the numerator, no
    finiteness checks."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return x[e.index]
    if isinstance(e, Neg):
        return -_reference_value(e.child, x)
    if isinstance(e, Max):
        return max(_reference_value(c, x) for c in e.children)
    if isinstance(e, Pow):
        b = _reference_value(e.base, x)
        return b ** 2 if e.exponent == 2 else ex._ipow(b, e.exponent, e)
    if e.op == "/":
        b = _reference_value(e.right, x)
        if b == 0.0:
            raise ex.EvaluationError(f"division by zero at node {to_source(e)}")
        return _reference_value(e.left, x) / b
    a, b = _reference_value(e.left, x), _reference_value(e.right, x)
    return a + b if e.op == "+" else a - b if e.op == "-" else a * b


def _bits(v):
    return (float(v) + 0.0).hex()


def _outcome(fn, x):
    """Bit pattern, up to the sign of zero, of a value or (value, gradient),
    or the error raised."""
    try:
        out = fn(x)
    except (ex.EvaluationError, ArithmeticError) as err:
        return type(err).__name__, str(err)
    if isinstance(out, tuple):
        return _bits(out[0]), [_bits(g) for g in out[1]]
    return _bits(out)


def _reference_generators(ast, x, tol):
    """``value_generators`` of a root max by the tree walk: each branch
    through ``value_and_gradient``, then the gradient-scaled band."""
    pairs = [value_and_gradient(c, x, tol) for c in ast.children]
    top = max(v for v, _ in pairs)
    return top, [g for v, g in pairs
                 if top - v <= tol * max(1.0, float(np.linalg.norm(g)))]


def _band_generators(pairs, tol):
    """(top, [gradient, ...]) of the branch pairs within the flow's band,
    ``band_members``, of the top: the generators a flow takes."""
    top, members = band_members(pairs, tol)
    return top, [pairs[j][1] for j in members]


def _pairs_outcome(fn, x):
    """Bit patterns, up to the sign of zero, of [(value, gradient), ...],
    or the error raised."""
    try:
        pairs = fn(x)
    except (ex.EvaluationError, ArithmeticError) as err:
        return type(err).__name__, str(err)
    return [(_bits(v), [_bits(c) for c in g]) for v, g in pairs]


def _generators_outcome(fn, x):
    """Bit patterns, up to the sign of zero, of (value, [generator, ...]),
    or the error raised."""
    try:
        top, gens = fn(x)
    except (ex.EvaluationError, ArithmeticError) as err:
        return type(err).__name__, str(err)
    return _bits(top), [[_bits(c) for c in g] for g in gens]


class TestParse:
    def test_simple_sum_of_square(self):
        ast = parse_expression("x1 + x2^2", V2)
        assert ast == BinOp("+", Var(0, "x1"), Pow(Var(1, "x2"), 2))

    def test_paper_max_of_two_affine(self):
        ast = parse_expression(
            "max(-0.5*x1 - 0.25*x2 - 0.2, -2*x1 + 4.6*x2 - 5.8)", V2)
        assert isinstance(ast, Max)
        assert len(ast.children) == 2
        assert all(ex.is_affine(c) for c in ast.children)

    def test_trailing_operator_is_syntax_error(self):
        with pytest.raises(ParseError):
            parse_expression("x1 + ", V2)

    def test_undeclared_variable(self):
        with pytest.raises(ParseError, match="undeclared"):
            parse_expression("x1 + z9", V2)

    def test_non_integer_exponent(self):
        with pytest.raises(ParseError, match="exponent"):
            parse_expression("x1^2.5", V2)

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_expression("   ", V2)

    def test_min_desugars_to_neg_max(self):
        ast = parse_expression("min(x1, x2)", V2)
        assert ast == Neg(Max((Neg(Var(0, "x1")), Neg(Var(1, "x2")))))

    def test_max_requires_two_args(self):
        with pytest.raises(ParseError):
            parse_expression("max(x1)", V2)

    @pytest.mark.parametrize("src", FIXTURE_EXPRESSIONS)
    def test_round_trip(self, src):
        ast = parse_expression(src, V2)
        assert parse_expression(to_source(ast), V2) == ast


class TestEvaluate:
    def test_arithmetic_identity(self):
        ast = parse_expression("x1 + x2^2", V2)
        assert evaluate(ast, [1.0, 2.0]) == 5.0

    def test_paper_upper_objective_value(self):
        # h of the first computational example at its reported terminal point
        ast = parse_expression("x1 + x2^2", V2)
        assert evaluate(ast, [0.997561, 0.502439]) == pytest.approx(1.250006, abs=1e-6)

    def test_max_symmetry(self):
        ast = parse_expression("max(x1, -x1)", ["x1"])
        assert evaluate(ast, [0.0]) == 0.0

    def test_max_returns_extremal_child(self):
        ast = parse_expression("max(x1, x2, x1*x2)", V2)
        for x in np.random.default_rng(0).uniform(-2, 2, size=(50, 2)):
            assert evaluate(ast, x) == max(x[0], x[1], x[0] * x[1])

    def test_division_by_zero(self):
        ast = parse_expression("x1 / x2", V2)
        with pytest.raises(ex.EvaluationError):
            evaluate(ast, [1.0, 0.0])


class TestGradient:
    def test_smooth_single_generator(self):
        comp = CompiledExpr(parse_expression("x1 + x2^2", V2), 2)
        x = np.array([1.0, 0.5])
        _, gens = comp.value_generators(x)
        assert len(gens) == 1
        np.testing.assert_allclose(gens[0], [1.0, 1.0])
        np.testing.assert_allclose(value_and_gradient(comp.ast, x)[1],
                                   [1.0, 1.0])

    def test_unique_active_affine_branch(self):
        comp = CompiledExpr(parse_expression(
            "max(-0.5*x1 - 0.25*x2 - 0.2, -2*x1 + 4.6*x2 - 5.8)", V2), 2)
        # at (1, 0.5): branch values -0.825 vs -5.5, branch 1 uniquely active
        x = np.array([1.0, 0.5])
        value, gens = comp.value_generators(x)
        assert value == pytest.approx(-0.825)
        assert len(gens) == 1
        np.testing.assert_allclose(gens[0], [-0.5, -0.25])
        np.testing.assert_allclose(value_and_gradient(comp.ast, x)[1],
                                   [-0.5, -0.25])

    def test_tie_gives_midpoint_selection(self):
        comp = CompiledExpr(parse_expression("max(x1, x2)", V2), 2)
        x = np.array([1.0, 1.0])
        _, gens = comp.value_generators(x)
        assert len(gens) == 2
        np.testing.assert_allclose(value_and_gradient(comp.ast, x)[1],
                                   [0.5, 0.5])

    @pytest.mark.parametrize("src", [s for s in FIXTURE_EXPRESSIONS if "max" not in s and "min" not in s])
    def test_matches_finite_differences(self, src):
        ast = parse_expression(src, V2)
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(100):
            x = rng.uniform(-3, 3, 2)
            try:
                _, g = value_and_gradient(ast, x)
            except ex.EvaluationError:
                continue
            fd = np.zeros(2)
            h = 1e-6
            ok = True
            for i in range(2):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                try:
                    fd[i] = (evaluate(ast, xp) - evaluate(ast, xm)) / (2 * h)
                except ex.EvaluationError:
                    ok = False
            if not ok:
                continue
            scale = max(1.0, np.linalg.norm(fd))
            assert np.linalg.norm(g - fd) / scale <= 1e-4
            checked += 1
        assert checked >= 50

    def test_selection_is_convex_combination(self):
        # the gradient at a max is the uniform average of the generators
        comp = CompiledExpr(
            parse_expression("max(x1, x2, x1 + x2 - 1)", V2), 2)
        for x in [np.array([1.0, 1.0]), np.array([0.3, 0.3]), np.array([2.0, 0.1])]:
            _, gens = comp.value_generators(x)
            k = len(gens)
            lam = np.full(k, 1.0 / k)
            combo = sum(l * g for l, g in zip(lam, gens))
            np.testing.assert_allclose(value_and_gradient(comp.ast, x)[1],
                                       combo, atol=1e-12)


class TestCompiled:
    @pytest.mark.parametrize("src", FIXTURE_EXPRESSIONS)
    def test_compiled_matches_interpreter(self, src):
        ast = parse_expression(src, V2)
        comp = CompiledExpr(ast, 2)
        rng = np.random.default_rng(7)
        for _ in range(30):
            x = rng.uniform(0.5, 3, 2)
            assert comp.value(x) == pytest.approx(evaluate(ast, x), rel=1e-12)
            v, g = comp.value_grad(x)
            vi, gi = value_and_gradient(ast, x)
            assert v == pytest.approx(vi, rel=1e-12)
            np.testing.assert_allclose(g, gi, atol=1e-10)

    @given(EXPRESSIONS, st.lists(COORDS, min_size=3, max_size=3))
    # x1^-2 is finite there, its derivative -2 x1^-3 is not
    @example(Pow(Var(0, "x1"), -2), [4.209392871405407e-105, 0.0, 0.0])
    @settings(max_examples=300, deadline=None)
    def test_generated_code_repeats_the_interpreters(self, ast, coords):
        x = np.array(coords)
        try:
            comp = CompiledExpr(ast, 3)
        except (ex.EvaluationError, ArithmeticError):
            assume(False)
        with np.errstate(all="ignore"):
            assert _outcome(comp.value, x) == _outcome(
                lambda u: _reference_value(ast, u), x)
        if comp.affine is None:
            assert _outcome(comp.value_grad, x) == _outcome(
                lambda u: value_and_gradient(ast, u), x)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_generated_branches_repeat_the_tree_walk(self, data):
        # branches drawn from the tree strategy above: smooth ones run
        # through generated code, ones with a nested max through the walk
        ast = Max(tuple(data.draw(st.lists(EXPRESSIONS, min_size=2, max_size=4))))
        x = np.array(data.draw(st.lists(COORDS, min_size=3, max_size=3)))
        tols = data.draw(st.lists(st.sampled_from([1e-9, 1e-4, 0.5, 2.0]),
                                  min_size=2, max_size=2))
        comp = CompiledExpr(ast, 3)
        # one object at two bands: each call follows its own band
        for tol in tols:
            with np.errstate(all="ignore"):
                assert _generators_outcome(
                    lambda u: comp.value_generators(u, tol), x) == \
                    _generators_outcome(
                        lambda u: _reference_generators(ast, u, tol), x)
                # the branch pairs the flow reads are the tree walk's, and
                # the band over them is the same band
                assert _pairs_outcome(
                    lambda u: comp.branch_pairs(u, tol), x) == \
                    _pairs_outcome(
                        lambda u: [value_and_gradient(c, u, tol)
                                   for c in ast.children], x)
                assert _generators_outcome(
                    lambda u: _band_generators(comp.branch_pairs(u, tol),
                                               tol), x) == \
                    _generators_outcome(
                        lambda u: _reference_generators(ast, u, tol), x)

    def test_branch_band_scales_with_the_branch_gradient(self):
        # band 1e-4 is a distance in x: at x = (0, 0.05) the steep branch
        # 1000*x1 lies 5e-5 from its kink with x2, the flat branch x1 0.05
        x = np.array([0.0, 0.05])
        steep = CompiledExpr(parse_expression("max(1000*x1, x2)", V2), 2)
        flat = CompiledExpr(parse_expression("max(x1, x2)", V2), 2)
        v, gens = steep.value_generators(x, 1e-4)
        assert v == 0.05 and len(gens) == 2
        v, gens = flat.value_generators(x, 1e-4)
        assert v == 0.05 and len(gens) == 1
        np.testing.assert_array_equal(gens[0], [0.0, 1.0])

    def test_affine_detection(self):
        assert CompiledExpr(parse_expression("2*x1 - 3*x2 + 1", V2), 2).affine is not None
        assert CompiledExpr(parse_expression("x1*x2", V2), 2).affine is None
        a, b = CompiledExpr(parse_expression("2*x1 - 3*x2 + 1", V2), 2).affine
        np.testing.assert_allclose(a, [2.0, -3.0])
        assert b == 1.0


@given(st.lists(st.floats(-5, 5), min_size=2, max_size=2),
       st.lists(st.floats(-5, 5), min_size=2, max_size=2))
@settings(max_examples=50, deadline=None)
def test_max_evaluates_exact_max(x, coeffs):
    ast = parse_expression("max(x1 + x2, x1*x2, -x1)", V2)
    v = evaluate(ast, x)
    assert v == max(x[0] + x[1], x[0] * x[1], -x[0])
