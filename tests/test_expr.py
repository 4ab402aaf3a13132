import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from svbilevel import bnb, catalog
from svbilevel import expr as ex
from svbilevel.expr import (
    BinOp, Const, Max, Neg, ParseError, Pow, Var,
    parse_expression, to_source, CompiledExpr,
)
from svbilevel.neurodynamic import CERT_BAND, RowSet, band_members
from svbilevel.problem import validate

V2 = ["x1", "x2"]

FIXTURE_EXPRESSIONS = [
    "x1 + x2^2",
    "x1^2 + x2^2 + 0.4*x1 - 4*x2",
    "max(-0.5*x1 - 0.25*x2 - 0.2, -2*x1 + 4.6*x2 - 5.8)",
    "0.5*(x1 - 1)^2 + 1.4*(x2 - 0.5)^2 - 1.1",
    "(2*x1 + 3*x2) / (4*x1 + 5*x2 + 10)",
    "(3*x1 + x2)^2 / (3*x1 + x2 - 1)^3",
    "-(x1 - x2) * (x1 + x2) / 2",
    "x1 * (-2)^2",
    "(-1.5)^3 * x2",
    "(x1^2)^3",
    "x1^-2",
]

COORDS = st.sampled_from([0.0, 1.0, -1.0, 0.5]) | st.floats(-3, 3)

LEAVES = (st.builds(lambda i: Var(i, f"x{i + 1}"), st.integers(0, 2))
          | st.builds(Const, st.sampled_from([0.0, 1.0, -2.5, 0.3, 1e-3])))
EXPONENTS = st.sampled_from([-2, -1, 0, 1, 2, 3, 9])


def _smooth_nodes(kids):
    return (st.builds(Neg, kids)
            | st.builds(BinOp, st.sampled_from("+-*/"), kids, kids)
            | st.builds(Pow, kids, EXPONENTS))


# max-free trees, and a max of them at the root: what a CompiledExpr takes
SMOOTH_EXPRESSIONS = st.recursive(LEAVES, _smooth_nodes, max_leaves=12)
EXPRESSIONS = SMOOTH_EXPRESSIONS | st.builds(
    lambda kids: Max(tuple(kids)),
    st.lists(SMOOTH_EXPRESSIONS, min_size=2, max_size=3))


# ---------------------------------------------------------------------------
# The reference: the forward-mode tree walk for value and gradient, and the
# structural affinity test
# ---------------------------------------------------------------------------

def _check_finite(v, node):
    if not np.isfinite(v):
        raise ex.EvaluationError(f"non-finite value at node {to_source(node)}")
    return v


def value_and_gradient(e, point):
    """Forward-mode evaluation of a max-free expression: (value,
    gradient)."""
    n = len(point)

    def rec(node):
        if isinstance(node, Const):
            return node.value, np.zeros(n)
        if isinstance(node, Var):
            g = np.zeros(n)
            g[node.index] = 1.0
            return float(point[node.index]), g
        if isinstance(node, Neg):
            v, g = rec(node.child)
            return -v, -g
        if isinstance(node, BinOp):
            av, ag = rec(node.left)
            bv, bg = rec(node.right)
            if node.op == "+":
                return av + bv, ag + bg
            if node.op == "-":
                return av - bv, ag - bg
            if node.op == "*":
                return av * bv, ag * bv + bg * av
            if bv == 0.0:
                raise ex.EvaluationError(
                    f"division by zero at node {to_source(node)}")
            v = av / bv
            return _check_finite(v, node), (ag - v * bg) / bv
        if isinstance(node, Pow):
            bv, bg = rec(node.base)
            k = node.exponent
            v = ex._ipow(bv, k, node)
            if k == 0:
                return 1.0, np.zeros(n)
            dv = k * ex._ipow(bv, k - 1, node)
            _check_finite(v, node)
            return v, _check_finite(dv, node) * bg
        raise TypeError(f"not a max-free expression node: {node!r}")

    return rec(e)


def _free_variables(e):
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Const):
        return set()
    kids = ((e.child,) if isinstance(e, Neg) else (e.left, e.right)
            if isinstance(e, BinOp) else (e.base,) if isinstance(e, Pow)
            else e.children)
    return set().union(*(_free_variables(c) for c in kids))


def _is_constant(e):
    return not _free_variables(e)


def is_affine(e):
    if isinstance(e, (Const, Var)):
        return True
    if isinstance(e, Neg):
        return is_affine(e.child)
    if isinstance(e, BinOp):
        if e.op in "+-":
            return is_affine(e.left) and is_affine(e.right)
        if e.op == "*":
            return (_is_constant(e.left) and is_affine(e.right)) or (
                _is_constant(e.right) and is_affine(e.left))
        return is_affine(e.left) and _is_constant(e.right)
    if isinstance(e, Pow):
        return e.exponent in (0, 1) and is_affine(e.base) or _is_constant(e)
    return False


def reference_affine_parts(e, n_vars):
    """(coefficients, constant) of an affine expression, else None."""
    if not is_affine(e):
        return None
    const, coeffs = value_and_gradient(e, np.zeros(n_vars))
    return coeffs, const


def _reference_value(e, x):
    """The value of the forward-mode walk ``value_and_gradient`` without
    its finiteness checks: left operand first, a zero denominator caught
    after both operands, every power through ``_ipow``."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return x[e.index]
    if isinstance(e, Neg):
        return -_reference_value(e.child, x)
    if isinstance(e, Max):
        return max(_reference_value(c, x) for c in e.children)
    if isinstance(e, Pow):
        return ex._ipow(_reference_value(e.base, x), e.exponent, e)
    a, b = _reference_value(e.left, x), _reference_value(e.right, x)
    if e.op == "/":
        if b == 0.0:
            raise ex.EvaluationError(f"division by zero at node {to_source(e)}")
        return a / b
    return a + b if e.op == "+" else a - b if e.op == "-" else a * b


def _bits(v):
    return (float(v) + 0.0).hex()


def _outcome(fn, x):
    """Bit pattern, up to the sign of zero, of a value or (value, gradient),
    or the error raised."""
    try:
        out = fn(x)
    except ex.EvaluationError as err:
        return type(err).__name__, str(err)
    if isinstance(out, tuple):
        return _bits(out[0]), [_bits(g) for g in out[1]]
    return _bits(out)


def _reference_generators(ast, x, tol):
    """``value_generators`` of a root max by the tree walk: each branch
    through ``value_and_gradient``, then the gradient-scaled band."""
    pairs = [value_and_gradient(c, x) for c in ast.children]
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
    except ex.EvaluationError as err:
        return type(err).__name__, str(err)
    return [(_bits(v), [_bits(c) for c in g]) for v, g in pairs]


def _generators_outcome(fn, x):
    """Bit patterns, up to the sign of zero, of (value, [generator, ...]),
    or the error raised."""
    try:
        top, gens = fn(x)
    except ex.EvaluationError as err:
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
        assert all(ex.affine_parts(c, 2) is not None for c in ast.children)

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

    def test_exponent_at_the_limit(self):
        assert parse_expression("x1^1000", V2) == Pow(Var(0, "x1"), 1000)
        assert parse_expression("x1^-1000", V2) == Pow(Var(0, "x1"), -1000)

    # a power is multiplied out at each evaluation: 2^100000000000000 hung
    # the loader, and 5,000 digits raised int()'s own ValueError
    @pytest.mark.parametrize("exponent", ["1001", "-1001", "9" * 5000],
                             ids=["1001", "-1001", "5000-digits"])
    def test_exponent_above_the_limit(self, exponent):
        with pytest.raises(ParseError, match=r"^exponent magnitude above "
                                             r"1000 \(at position 3\)$"):
            parse_expression(f"x1^{exponent}", V2)

    @pytest.mark.parametrize("src, pos", [
        ("min(x1, x2)", 0), ("x1 + min(x1, x2)", 5), ("max(x1, min(x2, 1))", 8)])
    def test_min_is_rejected_where_it_is_written(self, src, pos):
        with pytest.raises(ParseError, match=rf"^min is not supported: a min "
                           rf"of pseudoconvex functions is not pseudoconvex "
                           rf"\(at position {pos}\)$"):
            parse_expression(src, V2)

    def test_errors_name_the_position_after_whitespace(self):
        with pytest.raises(ParseError, match=r"'\$' \(at position 7\)"):
            parse_expression("x1 +   $", V2)
        with pytest.raises(ParseError, match=r"'z9' \(at position 6\)"):
            parse_expression("x1 +  z9", V2)

    def test_max_records_its_position(self):
        # equality ignores the position
        ast = parse_expression("x1 +  max(x1, x2)", V2)
        assert ast.right.pos == 6
        assert ast == parse_expression("x1 + max(x1, x2)", V2)
        assert parse_expression(" max(x1, x2)", V2).pos == 1

    def test_max_requires_two_args(self):
        with pytest.raises(ParseError):
            parse_expression("max(x1)", V2)

    @pytest.mark.parametrize("src", FIXTURE_EXPRESSIONS)
    def test_round_trip(self, src):
        ast = parse_expression(src, V2)
        assert parse_expression(to_source(ast), V2) == ast

    @given(EXPRESSIONS)
    @settings(max_examples=300, deadline=None)
    def test_every_printed_expression_parses(self, e):
        parse_expression(to_source(e), ["x1", "x2", "x3"])


def _value(src, x, variables=V2):
    return CompiledExpr(parse_expression(src, variables), len(variables)).value(x)


class TestEvaluate:
    def test_arithmetic_identity(self):
        assert _value("x1 + x2^2", [1.0, 2.0]) == 5.0

    def test_paper_upper_objective_value(self):
        # h of the first computational example at its reported terminal point
        assert _value("x1 + x2^2", [0.997561, 0.502439]) == \
            pytest.approx(1.250006, abs=1e-6)

    def test_max_symmetry(self):
        assert _value("max(x1, -x1)", [0.0], ["x1"]) == 0.0

    def test_max_returns_extremal_child(self):
        comp = CompiledExpr(parse_expression("max(x1, x2, x1*x2)", V2), 2)
        for x in np.random.default_rng(0).uniform(-2, 2, size=(50, 2)):
            assert comp.value(x) == max(x[0], x[1], x[0] * x[1])

    def test_division_by_zero(self):
        with pytest.raises(ex.EvaluationError):
            _value("x1 / x2", [1.0, 0.0])


class TestGradient:
    def test_smooth_single_generator(self):
        comp = CompiledExpr(parse_expression("x1 + x2^2", V2), 2)
        x = np.array([1.0, 0.5])
        _, gens = comp.value_generators(x, CERT_BAND)
        assert len(gens) == 1
        np.testing.assert_allclose(gens[0], [1.0, 1.0])
        np.testing.assert_allclose(comp.value_grad(x)[1], [1.0, 1.0])

    def test_unique_active_affine_branch(self):
        comp = CompiledExpr(parse_expression(
            "max(-0.5*x1 - 0.25*x2 - 0.2, -2*x1 + 4.6*x2 - 5.8)", V2), 2)
        # at (1, 0.5): branch values -0.825 vs -5.5, branch 1 uniquely active
        x = np.array([1.0, 0.5])
        value, gens = comp.value_generators(x, CERT_BAND)
        assert value == pytest.approx(-0.825)
        assert len(gens) == 1
        np.testing.assert_allclose(gens[0], [-0.5, -0.25])

    def test_tie_gives_both_generators(self):
        comp = CompiledExpr(parse_expression("max(x1, x2)", V2), 2)
        x = np.array([1.0, 1.0])
        _, gens = comp.value_generators(x, CERT_BAND)
        np.testing.assert_array_equal(gens, [[1.0, 0.0], [0.0, 1.0]])

    def test_value_grad_of_a_root_max_raises(self):
        # the flow picks among the branches itself; value_grad has no rule
        comp = CompiledExpr(parse_expression("max(x1, x2)", V2), 2)
        with pytest.raises(TypeError, match="branch_pairs"):
            comp.value_grad(np.array([1.0, 2.0]))

    @pytest.mark.parametrize("src", [s for s in FIXTURE_EXPRESSIONS if "max" not in s])
    def test_matches_finite_differences(self, src):
        comp = CompiledExpr(parse_expression(src, V2), 2)
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(100):
            x = rng.uniform(-3, 3, 2)
            try:
                _, g = comp.value_grad(x)
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
                    fd[i] = (comp.value(xp) - comp.value(xm)) / (2 * h)
                except ex.EvaluationError:
                    ok = False
            if not ok:
                continue
            scale = max(1.0, np.linalg.norm(fd))
            assert np.linalg.norm(g - fd) / scale <= 1e-4
            checked += 1
        assert checked >= 50


class TestCompiled:
    @pytest.mark.parametrize("src", FIXTURE_EXPRESSIONS)
    def test_compiled_matches_interpreter(self, src):
        ast = parse_expression(src, V2)
        comp = CompiledExpr(ast, 2)
        rng = np.random.default_rng(7)
        for _ in range(30):
            x = rng.uniform(0.5, 3, 2)
            assert comp.value(x) == pytest.approx(_reference_value(ast, x),
                                                  rel=1e-12)
            # each branch of a root max, else the expression itself
            for (v, g), branch in zip(comp.branch_pairs(x), comp.branches):
                vi, gi = value_and_gradient(branch, x)
                assert v == pytest.approx(vi, rel=1e-12)
                np.testing.assert_allclose(g, gi, atol=1e-10)

    @given(EXPRESSIONS, st.lists(COORDS, min_size=3, max_size=3))
    # x1^-2 is finite there, its derivative -2 x1^-3 is not
    @example(Pow(Var(0, "x1"), -2), [4.209392871405407e-105, 0.0, 0.0])
    # both operands fail: the left one is reported
    @example(BinOp("/", Pow(Var(0, "x1"), -2), Var(0, "x1")), [0.0, 0.0, 0.0])
    @settings(max_examples=300, deadline=None)
    def test_generated_code_repeats_the_interpreters(self, ast, coords):
        x = np.array(coords)
        try:
            comp = CompiledExpr(ast, 3)
        except ex.EvaluationError:
            assume(False)
        with np.errstate(all="ignore"):
            assert _outcome(comp.value, x) == _outcome(
                lambda u: _reference_value(ast, u), x)
            if isinstance(ast, Max):
                with pytest.raises(TypeError):
                    comp.value_grad(x)
            else:
                assert _outcome(comp.value_grad, x) == _outcome(
                    lambda u: value_and_gradient(ast, u), x)

    @given(EXPRESSIONS, st.lists(COORDS, min_size=3, max_size=3))
    # b ** 2 and b * b round apart there
    @example(Pow(Var(0, "x1"), 2), [2.817595433862767, 0.0, 0.0])
    @settings(max_examples=300, deadline=None)
    def test_value_and_gradient_code_share_one_arithmetic(self, ast, coords):
        # wherever the branch pairs return, value and their top (without a
        # max, value_grad's value) are the same bits; only EvaluationError
        # is raised
        try:
            comp = CompiledExpr(ast, 3)
        except ex.EvaluationError:
            assume(False)
        x = np.array(coords)
        try:
            pairs = comp.branch_pairs(x)
        except ex.EvaluationError:
            return
        top = max(r for r, _ in pairs)
        assert comp.value(x).hex() == top.hex()
        if not isinstance(ast, Max):
            assert comp.value_grad(x)[0].hex() == top.hex()

    @pytest.mark.parametrize("k, x, value", [
        (9, 1e40, math.inf), (12, 1e30, math.inf),
        # the positive power underflows to a signed zero
        (-9, 1e-40, math.inf), (-9, -1e-40, -math.inf)])
    def test_a_power_out_of_range_is_infinite_or_an_evaluation_error(
            self, k, x, value):
        # value code has no finiteness checks; gradient code names the node
        comp = CompiledExpr(Pow(Var(0, "x1"), k), 1)
        assert comp.value([x]) == value
        with pytest.raises(ex.EvaluationError,
                           match=rf"non-finite value at node x1\^{k}$"):
            comp.value_grad([x])

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_generated_branches_repeat_the_tree_walk(self, data):
        # max-free branches drawn from the tree strategy above, each run
        # through its generated code
        ast = Max(tuple(data.draw(
            st.lists(SMOOTH_EXPRESSIONS, min_size=2, max_size=4))))
        x = np.array(data.draw(st.lists(COORDS, min_size=3, max_size=3)))
        tols = data.draw(st.lists(st.sampled_from([1e-9, 1e-4, 0.5, 2.0]),
                                  min_size=2, max_size=2))
        comp = CompiledExpr(ast, 3)
        with np.errstate(all="ignore"):
            # the branch pairs the flow reads are the tree walk's
            assert _pairs_outcome(comp.branch_pairs, x) == _pairs_outcome(
                lambda u: [value_and_gradient(c, u) for c in ast.children], x)
        # one object at two bands: each call follows its own band
        for tol in tols:
            with np.errstate(all="ignore"):
                assert _generators_outcome(
                    lambda u: comp.value_generators(u, tol), x) == \
                    _generators_outcome(
                        lambda u: _reference_generators(ast, u, tol), x)
                # the band over the branch pairs is the same band
                assert _generators_outcome(
                    lambda u: _band_generators(comp.branch_pairs(u),
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

    @pytest.mark.parametrize("src", ["x1 + x2^2", "2*x1 - 3*x2 + 1"])
    def test_one_generated_function_per_mode(self, src, monkeypatch):
        # a single branch is the expression itself: its branch functions
        # are the ones value and value_grad use
        made = []
        generate = ex._generate
        monkeypatch.setattr(ex, "_generate", lambda e, n, gradient: (
            made.append(gradient) or generate(e, n, gradient)))
        comp = CompiledExpr(parse_expression(src, V2), 2)
        x = np.array([0.5, 2.0])
        comp.value(x)
        comp.value_grad(x)
        assert comp.branch_values[0](x.tolist()) == comp.value(x)
        assert comp.branch_gradients[0](x.tolist())[0] == comp.value(x)
        assert made == [False, True]

    def test_affine_detection(self):
        assert CompiledExpr(parse_expression("2*x1 - 3*x2 + 1", V2), 2).affine is not None
        assert CompiledExpr(parse_expression("x1*x2", V2), 2).affine is None
        a, b = CompiledExpr(parse_expression("2*x1 - 3*x2 + 1", V2), 2).affine
        np.testing.assert_allclose(a, [2.0, -3.0])
        assert b == 1.0


@given(st.lists(st.floats(-5, 5), min_size=2, max_size=2))
@settings(max_examples=50, deadline=None)
def test_max_evaluates_exact_max(x):
    v = _value("max(x1 + x2, x1*x2, -x1)", x)
    assert v == max(x[0] + x[1], x[0] * x[1], -x[0])


CONSTANTS = st.recursive(
    st.builds(Const, st.sampled_from([0.0, 1.0, -2.5, 0.3, 1e-3])),
    _smooth_nodes, max_leaves=4)

# max-free trees rich in constant factors, divisors and powers, so that
# about half of them are affine
LINEAR = st.recursive(
    LEAVES,
    lambda kids: _smooth_nodes(kids)
    | st.builds(BinOp, st.just("*"), CONSTANTS, kids)
    | st.builds(BinOp, st.just("/"), kids, CONSTANTS)
    | st.builds(Pow, CONSTANTS, EXPONENTS),
    max_leaves=12)


def _affine_outcome(fn):
    """None, the exact bits of (constant, coefficients), or "raises"."""
    try:
        out = fn()
    except ex.EvaluationError:
        return "raises"
    if out is None:
        return None
    coeffs, const = out
    return float(const).hex(), [float(c).hex() for c in coeffs]


class TestAffineParts:
    @given(LINEAR)
    @example(BinOp("+", BinOp("*", Var(0, "x1"), Var(1, "x2")),
                   BinOp("/", Const(1.0), Const(0.0))))
    @example(BinOp("*", BinOp("-", Var(0, "x1"), Var(0, "x1")), Var(1, "x2")))
    @settings(max_examples=500, deadline=None)
    def test_linear_form_repeats_the_reference(self, ast):
        # classification, and (coefficients, constant) bit for bit; an
        # evaluation that fails raises only in an affine expression
        with np.errstate(all="ignore"):
            assert _affine_outcome(lambda: ex.affine_parts(ast, 3)) == \
                _affine_outcome(lambda: reference_affine_parts(ast, 3))

    def test_root_max_is_not_affine(self):
        assert ex.affine_parts(parse_expression("max(x1, x2)", V2), 2) is None


class TestRootMaxOnly:
    @pytest.mark.parametrize("src, pos", [
        ("-max(x1, x2)", 1), ("x1*max(x1, x2)", 3),
        ("max(x1, x2)^2", 0), ("1/max(x1, x2)", 2), ("max(x1, x2) + 1", 0),
        ("max(x1, max(x2, 1))", 8)])
    def test_max_below_the_root_is_rejected(self, src, pos):
        ast = parse_expression(src, V2)
        with pytest.raises(ParseError, match=rf"root.*\(at position {pos}\)"):
            CompiledExpr(ast, 2)

    def test_root_max_of_smooth_branches_is_accepted(self):
        comp = CompiledExpr(parse_expression("max(x1^2, x2 / (x1 + 2))", V2), 2)
        assert comp.value([1.0, 3.0]) == 1.0


class TestLazyGeneration:
    """Code is generated on first evaluation, never on load: a problem
    loads and validates with no generated function, and a solve makes
    only the functions its flows call."""

    @staticmethod
    def _refuse(e, n, gradient):
        raise AssertionError(f"generated {to_source(e)} on load")

    @pytest.mark.parametrize("number", range(1, 7))
    def test_load_generates_nothing(self, number, monkeypatch):
        monkeypatch.setattr(ex, "_generate", self._refuse)
        problem = catalog.load_example(number)
        assert validate(problem) == []

    @pytest.mark.parametrize("number, epsilon, most", [
        (1, 1e-5, 10), (2, 1e-2, 6), (3, 1e-2, 10), (4, 1e-2, 8),
        (6, 1e-2, 10)])
    def test_solve_generates_what_it_evaluates(self, number, epsilon, most,
                                               monkeypatch):
        problem = catalog.load_example(number)
        made = []
        generate = ex._generate
        monkeypatch.setattr(ex, "_generate", lambda e, n, gradient: (
            made.append(gradient) or generate(e, n, gradient)))
        report = bnb.solve(problem, bnb.SolverConfig(epsilon=epsilon))
        assert report.status is bnb.SolverStatus.OPTIMAL
        assert 0 < len(made) <= most

    def test_rows_make_each_function_on_first_use(self, monkeypatch):
        made = []
        generate = ex._generate
        monkeypatch.setattr(ex, "_generate", lambda e, n, gradient: (
            made.append(gradient) or generate(e, n, gradient)))
        rows = RowSet.of([CompiledExpr(parse_expression(src, V2), 2)
                          for src in ("x1^2 + x2^2 - 1", "x1*x2 - 4")], 2)
        assert made == []
        for x in ([0.5, 0.5], [3.0, 2.0]):
            rows.evaluate(np.array(x))
        assert made == [False, False]
        for _ in range(2):
            rows.row_grad(1, np.array([3.0, 2.0]))
        assert made == [False, False, True]
