from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svbilevel import bnb, catalog
from svbilevel import neurodynamic as nd
from svbilevel.expr import Max
from svbilevel.outcome import OutcomeError, compute_box
from svbilevel.problem import (
    ProblemFormatError, find_interior_start, load_problem,
    stacked_mp_constraints, validate,
)

from flow_dump import BALL3, TRI3
from test_expr import is_affine, value_and_gradient

MINI = """\
vars x 2
upper x1 + x2
lower x1
lower x2
constraint_x x1 + x2 - 2
bound x1 0 1
"""


class TestLoad:
    def test_example1_shape(self):
        prob = catalog.load_example(1)
        assert (prob.n, prob.m, prob.p, len(prob.lower_constraints),
                len(prob.coupling)) == (2, 0, 2, 6, 0)

    def test_example6_shape(self):
        prob = catalog.load_example(6)
        assert (prob.n, prob.m, prob.p, len(prob.lower_constraints),
                len(prob.coupling)) == (3, 2, 4, 4, 2)

    def test_empty_file(self):
        with pytest.raises(ProblemFormatError):
            load_problem("\n")

    def test_known_lines_skipped(self):
        prob = load_problem(MINI + "known upper_value 1.25\nknown x 1.0 0.5\n"
                            "known note not a number\n")
        plain = load_problem(MINI)
        assert (prob.n, prob.p, prob.bounds) == (plain.n, plain.p,
                                                 plain.bounds)

    def test_line_number_in_errors(self):
        bad = MINI + "lower x1 +\n"
        with pytest.raises(ProblemFormatError, match="line 7"):
            load_problem(bad)

    def test_unknown_directive(self):
        with pytest.raises(ProblemFormatError, match="frobnicate"):
            load_problem(MINI + "frobnicate 3\n")

    def test_y_variable_rejected_in_lower(self):
        text = "vars x 1\nvars y 1\nupper x1 + y1\nlower y1\nlower x1\nconstraint_x x1 - 1\n"
        with pytest.raises(ProblemFormatError, match="undeclared"):
            load_problem(text)

    def test_bound_on_unknown_variable(self):
        with pytest.raises(ProblemFormatError, match="x9"):
            load_problem(MINI + "bound x9 0 1\n")

    def test_comments_and_blank_lines_ignored(self):
        prob = load_problem("# top\n\n" + MINI + "   # trailing\n")
        assert prob.p == 2

    def test_text_only(self, tmp_path, monkeypatch):
        # a string that names a file is problem text, not a path
        monkeypatch.chdir(tmp_path)
        (tmp_path / "mini.prob").write_text(MINI)
        with pytest.raises(ProblemFormatError,
                           match="unknown directive 'mini.prob'"):
            load_problem("mini.prob")

    @pytest.mark.parametrize("src", [
        "-max(x1, x2)", "x1*max(x1, x2)", "max(x1, x2)^2",
        "1/max(x1, x2)", "max(x1, x2) + 1"])
    def test_max_below_the_root_fails_at_load(self, src):
        # MINI has 6 lines; the position is that of the max
        pos = src.index("m")
        with pytest.raises(ProblemFormatError,
                           match=rf"^line 7: .*root.*\(at position {pos}\)$"):
            load_problem(MINI + f"lower {src}\n")

    @pytest.mark.parametrize("src, pos", [
        ("lower x1^1001", 3), ("lower x1^-1001", 3),
        ("lower x1^" + "9" * 5000, 3),
        ("constraint_x x1 + x2 - 2^100000000000000", 12)],
        ids=["1001", "-1001", "5000-digits", "1e14"])
    def test_exponent_above_the_limit_fails_at_load(self, src, pos):
        with pytest.raises(ProblemFormatError,
                           match=rf"^line 7: exponent magnitude above 1000 "
                                 rf"\(at position {pos}\)$"):
            load_problem(MINI + src + "\n")

    def test_min_fails_at_load(self):
        with pytest.raises(ProblemFormatError,
                           match=r"^line 7: min is not supported: .*"
                                 r"\(at position 0\)$"):
            load_problem(MINI + "lower min(x1, x2)\n")

    # a constant that overflows used to load: its inf or nan row was
    # ignored by S, or made X look empty, and the solve went on
    @pytest.mark.parametrize("old, new, line, node", [
        (None, "constraint_x x1 + (1e308*10 - 1e308*10)", 7,
         r"non-finite value at node 1e\+308 \* 10\.0"),
        (None, "constraint_x x1^2 + (1e308*10 - 1e308*10)", 7,
         r"non-finite value at node 1e\+308 \* 10\.0"),
        ("lower x1", "lower x1 + 1e308*10", 3,
         r"non-finite value at node 1e\+308 \* 10\.0"),
        ("lower x1", "lower x1^2 + 1e308*10", 3,
         r"non-finite value at node 1e\+308 \* 10\.0"),
        ("upper x1 + x2", "upper x1 + x2 + 1e308*10", 2,
         r"non-finite value at node 1e\+308 \* 10\.0"),
        ("upper x1 + x2", "upper x1^2 + 1e308*10", 2,
         r"non-finite value at node 1e\+308 \* 10\.0"),
        (None, "constraint_x x1*1e308*10 - 1", 7,
         r"non-finite constant or coefficient at node "
         r"x1 \* 1e\+308 \* 10\.0 - 1\.0"),
        (None, "constraint_x x1 + 1e308 + 1e308", 7,
         r"non-finite constant or coefficient at node "
         r"x1 \+ 1e\+308 \+ 1e\+308")],
        ids=["nan-affine-row", "nan-curved-row", "inf-affine-lower",
             "inf-curved-lower", "inf-affine-upper", "inf-curved-upper",
             "inf-coefficient", "inf-constant"])
    def test_a_constant_that_overflows_fails_at_load(self, old, new, line,
                                                     node):
        lines = ["vars x 2", "upper x1 + x2", "lower x1", "lower x2",
                 "bound x1 0 1", "bound x2 0 1"]
        if old is None:
            lines.append(new)
        else:
            lines[lines.index(old)] = new
        with pytest.raises(ProblemFormatError, match=rf"^line {line}: {node}$"):
            load_problem("\n".join(lines) + "\n")

    @pytest.mark.parametrize("k", sorted(catalog.EXAMPLES))
    def test_all_examples_load(self, k):
        prob = catalog.load_example(k)
        assert prob.p >= 2


class TestValidate:
    def test_example1_clean(self):
        assert validate(catalog.load_example(1)) == []

    def test_p1_is_error(self):
        prob = load_problem("vars x 1\nupper x1\nlower x1\nconstraint_x x1 - 1\nbound x1 0 1\n")
        assert validate(prob) == ["lower level must be vectorial (p >= 2)"]

    def test_unbounded_region_flagged(self):
        # X = {x1 <= 0}: the box flow of min f_1 runs off past
        # DIVERGENCE_RADIUS
        prob = load_problem("vars x 1\nupper x1\nlower x1\nlower x1 + 1\nconstraint_x x1 - 0\n")
        with pytest.raises(OutcomeError, match=r"^min f_1 over X: flow ended "
                                               r"Diverged .*unbounded$"):
            bnb.solve(prob)

    def test_starts_no_flow(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("validate started a flow")

        monkeypatch.setattr(nd, "solve_flow", refuse)
        monkeypatch.setattr(nd, "find_feasible", refuse)
        assert validate(catalog.load_example(5)) == []


class TestInteriorStart:
    def test_the_start_lies_inside_every_bound(self, monkeypatch):
        # with the descent patched out the start itself is returned: 1
        # inside the end of a one-sided bound, at the middle of a
        # two-sided one, and at 1 for [-inf, inf]
        monkeypatch.setattr(nd, "find_feasible", lambda rows, x0: x0)
        problem = load_problem(
            "vars x 4\nupper x1\nlower x1\nlower x2\n"
            "bound x1 -inf -5\nbound x2 3 inf\nbound x3 -1 4\n"
            "bound x4 -inf inf\n")
        x0 = find_interior_start(problem)
        assert x0.tolist() == [-6.0, 4.0, 1.5, 1.0]
        assert max(problem.x_region().evaluate(x0)[0]) < 0.0


class TestBoundIndex:
    def test_x_and_y_bounds(self):
        problem = load_problem(MINI + "vars y 2\nbound y2 0 1\n"
                                      "bound x2 -1 1\nbound y1 -inf 3\n")
        assert [(b.name, b.index) for b in problem.bounds] == [
            ("x1", 0), ("y2", 3), ("x2", 1), ("y1", 2)]

    def test_relabelled_text(self, monkeypatch):
        # bound x_k is [k, k + 1], listed from x12 down to x1 as the
        # relabelling x_k -> x_{13 - k} writes the lines of x1..x12, and
        # a y-bound after them
        n = 12
        text = (f"vars x {n}\nvars y 1\nupper x1 + y1\nlower x1\n"
                f"lower x{n}\n"
                + "".join(f"bound x{k} {k} {k + 1}\n"
                          for k in range(n, 0, -1))
                + "bound y1 50 60\n")
        problem = load_problem(text)
        assert [b.index for b in problem.bounds] == \
            list(range(n - 1, -1, -1)) + [n]
        # the descent patched out: x0 is the middle of each x-bound, and
        # the y-bound moves none of its coordinates
        monkeypatch.setattr(nd, "find_feasible", lambda rows, x0: x0)
        assert find_interior_start(problem).tolist() == \
            [k + 0.5 for k in range(1, n + 1)]
        labels = problem.x_region().labels
        assert labels[0] == f"x{n} >= {float(n)}"
        assert problem.x_region().evaluate(
            find_interior_start(problem))[0] == [-0.5] * (2 * n)


def expression_rows(exprs, fmt, point, shifts=None):
    """(label, value, affine) of the row expression - shift of each of
    ``exprs``, labelled fmt.format(k + 1); a max is one row per branch,
    labelled "<row> [j]", its branches evaluated by the reference walk."""
    out = []
    for k, c in enumerate(exprs):
        label = fmt.format(k + 1)
        shift = 0.0 if shifts is None else shifts[k]
        if not isinstance(c.ast, Max):
            out.append((label, c.value(point) - shift, c.affine is not None))
            continue
        out += [(f"{label} [{j + 1}]",
                 value_and_gradient(b, point)[0] - shift, is_affine(b))
                for j, b in enumerate(c.ast.children)]
    return out


def direct_rows(problem, x, y, z):
    """(label, value, affine) of every row of {u in G | f(x) <= z} at
    u = (x, y), evaluated term by term in the order s, x-bounds, -y,
    y-bounds, f - z, g."""
    u = np.concatenate([x, y])
    names = ([f"x{i + 1}" for i in range(problem.n)]
             + [f"y{j + 1}" for j in range(problem.m)])
    point = dict(zip(names, u))
    bound_rows = {"x": [], "y": []}
    for b in problem.bounds:
        rows = bound_rows[b.name[0]]
        if np.isfinite(b.lo):
            rows.append((f"{b.name} >= {b.lo}", b.lo - point[b.name], True))
        if np.isfinite(b.hi):
            rows.append((f"{b.name} <= {b.hi}", point[b.name] - b.hi, True))
    out = expression_rows(problem.lower_constraints, "s_{}", x)
    out += bound_rows["x"]
    out += [(f"y{j + 1} >= 0", -y[j], True) for j in range(problem.m)]
    out += bound_rows["y"]
    out += expression_rows(problem.lower, "f_{0} - z_{0}", x, z)
    out += expression_rows(problem.coupling, "g_{}", u)
    return out


def affine_first(rows):
    return [r for r in rows if r[2]] + [r for r in rows if not r[2]]


class TestRowSet:
    @pytest.mark.parametrize("number", [1, 4, 6])
    def test_mp_rows_and_lift_match_direct_evaluation(self, number):
        prob = catalog.load_example(number)
        rng = np.random.default_rng(number)
        for _ in range(20):
            x = rng.uniform(-1.0, 2.0, prob.n)
            y = rng.uniform(0.0, 2.0, prob.m)
            z = rng.uniform(-1.0, 3.0, prob.p)
            expected = affine_first(direct_rows(prob, x, y, z))
            rows = stacked_mp_constraints(prob, z)
            assert list(rows.labels) == [r[0] for r in expected]
            u = np.concatenate([x, y])
            np.testing.assert_allclose(rows.evaluate(u)[0],
                                       [r[1] for r in expected],
                                       rtol=1e-12, atol=1e-12)
            # the lift: the rows that involve y, over y at the fixed x
            lifted = [r for r in expected
                      if r[0].startswith(("y", "g_"))]
            lift = prob.lift_rows(x)
            assert list(lift.labels) == [r[0] for r in lifted]
            np.testing.assert_allclose(lift.evaluate(y)[0],
                                       [r[1] for r in lifted],
                                       rtol=1e-12, atol=1e-12)

    def test_x_region_is_the_head_of_the_mp_rows(self):
        prob = catalog.load_example(6)
        x = np.array([0.1, 0.2, 0.3])
        region = prob.x_region()
        rows = stacked_mp_constraints(prob, np.zeros(prob.p))
        assert list(region.labels) == list(rows.labels[:region.size])
        np.testing.assert_array_equal(
            region.evaluate(x)[0],
            rows.evaluate(np.concatenate([x, [0.4, 0.5]]))[0][:region.size])


class TestStack:
    def test_example1_stack_order(self):
        prob = catalog.load_example(1)
        z = np.array([3.29, 1.20])
        rows = stacked_mp_constraints(prob, z)
        # 6 declared s-rows, 2 bound rows, 0 y-rows, 3 f-z rows (f_2 is a
        # max of two affine branches, a row each), 0 g-rows
        assert rows.size == 11
        x = np.array([1.0, 1.0])
        f1 = prob.lower[0].value(x)
        # affine rows first: 5 s-rows, 2 bound rows and the branch rows of
        # f_2, then s_6 and f_1
        assert rows.labels[7:9] == ("f_2 - z_2 [1]", "f_2 - z_2 [2]")
        assert rows.evaluate(x)[0][10] == pytest.approx(f1 - 3.29)

    def test_example6_stack_order(self):
        prob = catalog.load_example(6)
        z = np.array([1.14, 1.17, 1.27, 1.14])
        rows = stacked_mp_constraints(prob, z)
        # 4 s-rows, 3 bound rows, 2 -y rows, 4 f-z rows, 2 g-rows
        assert rows.size == 15
        u = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        vals = rows.evaluate(u)[0]
        # -y rows come after the x-block
        assert vals[7] == pytest.approx(-0.4)
        assert vals[8] == pytest.approx(-0.5)
        # the affine coupling rows close the affine block
        g1 = prob.coupling[0].value(u)
        assert vals[9] == pytest.approx(g1)

    def test_wrong_z_length(self):
        prob = catalog.load_example(1)
        with pytest.raises(ValueError):
            stacked_mp_constraints(prob, [0.0, 0.0, 0.0])

    def test_f_rows_nonpositive_at_feasible_point_below_z(self):
        prob = catalog.load_example(1)
        x = np.array([1.0, 1.0])
        z = np.array([f.value(x) + 0.5 for f in prob.lower])
        rows = stacked_mp_constraints(prob, z)
        f_vals = [v for label, v in zip(rows.labels, rows.evaluate(x)[0])
                  if label.startswith("f_")]
        assert len(f_vals) == 3 and max(f_vals) < 0


def _rows_of(prob, z) -> nd.RowSet:
    """The rows of MP(z) built by ``RowSet.of`` with the f-rows shifted by
    z: the reference for ``stacked_mp_constraints``."""
    x_rows, y_rows, g_rows, f_rows = prob._rows
    f_rows = [(f, label, float(z[i])) for f, label, i in f_rows]
    return nd.RowSet.of(x_rows + y_rows + f_rows + g_rows, prob.n + prob.m)


def _row_bits(rows, u) -> tuple:
    """The bytes of A and b, the labels, the expressions, the bits of the
    shifts, and of the row values, S and bands at u."""
    vals, s = rows.evaluate(u)
    return (rows.A.tobytes(), rows.b.tobytes(), rows.labels,
            [id(c) for c, _ in rows.nonlinear],
            [shift.hex() for _, shift in rows.nonlinear],
            [v.hex() for v in vals], s.hex(),
            [band.hex() for band in rows.norm_estimates(u)])


class TestMpTemplate:
    """MP(z)'s rows come from one set per problem with every f-row shifted
    by 0.0; each is the row ``RowSet.of`` builds with the shifts z, bit for
    bit."""

    @pytest.mark.parametrize("text", [catalog.example_text(k)
                                      for k in range(1, 7)] + [BALL3, TRI3],
                             ids=[f"ex{k}" for k in range(1, 7)]
                             + ["ball3", "tri3"])
    def test_rows_are_those_of_rows_of(self, text):
        prob = load_problem(text)
        box = compute_box(prob)
        zs = [box.M]
        # each face probe's z, as bnb.initialize sets it
        for i in range(prob.p):
            z = box.M.copy()
            z[i] = box.m[i] + 1e-6 * max(1.0, abs(box.m[i]))
            zs.append(z)
        rng = np.random.default_rng(35)
        zs += [rng.uniform(box.m, box.M) for _ in range(5)]
        u = np.concatenate([box.x_feasible, np.ones(prob.m)])
        for z in zs:
            rows = stacked_mp_constraints(prob, z)
            assert _row_bits(rows, u) == _row_bits(_rows_of(prob, z), u)
            assert rows.A is prob._mp_template[0].A
        # the template itself is left as it was
        zero = _row_bits(prob._mp_template[0], u)
        assert zero == _row_bits(_rows_of(prob, np.zeros(prob.p)), u)


# every s-, f- and g-row kind as a max, with dyadic coefficients, so that
# on a dyadic grid each row value is exact and the boundary is hit exactly
SPLIT_TEXT = """\
vars x 2
vars y 1
upper x1 + y1
lower x1^2 + x2^2
lower max(0.5*x1 - x2, x1^2 - 2*x2 + 0.25, -x1)
constraint_x max(x1 + x2 - 2, x1^2 - 4)
constraint_xy max(y1 - x1, 0.25*y1^2 - 1)
bound x1 -2 2
"""
DYADIC = st.integers(-24, 24).map(lambda k: k / 8)


class TestSplitRows:
    def test_labels_name_the_branches(self):
        labels = stacked_mp_constraints(load_problem(SPLIT_TEXT),
                                        np.zeros(2)).labels
        assert sorted(labels) == sorted([
            "s_1 [1]", "s_1 [2]", "x1 >= -2.0", "x1 <= 2.0", "y1 >= 0",
            "f_1 - z_1", "f_2 - z_2 [1]", "f_2 - z_2 [2]", "f_2 - z_2 [3]",
            "g_1 [1]", "g_1 [2]"])

    @given(st.lists(DYADIC, min_size=5, max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_split_rows_are_feasible_where_the_max_row_is(self, coords):
        prob = load_problem(SPLIT_TEXT)
        x, y, z = np.array(coords[:2]), np.array(coords[2:3]), coords[3:]
        u = np.concatenate([x, y])
        rows = stacked_mp_constraints(prob, z)
        split = defaultdict(list)
        for label, v in zip(rows.labels, rows.evaluate(u)[0]):
            split[label.split(" [")[0]].append(v)
        unsplit = {"s_1": prob.lower_constraints[0].value(x),
                   "f_1 - z_1": prob.lower[0].value(x) - z[0],
                   "f_2 - z_2": prob.lower[1].value(x) - z[1],
                   "g_1": prob.coupling[0].value(u)}
        for label, value in unsplit.items():
            assert (max(split[label]) <= 0.0) == (value <= 0.0), label
        feasible = (all(v <= 0.0 for v in unsplit.values())
                    and abs(x[0]) <= 2.0 and y[0] >= 0.0)
        assert (max(rows.evaluate(u)[0]) <= 0.0) == feasible


class TestRegionG:
    """G = {(x, y) | x in X, y >= 0, g(x, y) <= 0} through its rows: the rows
    of X at x, then the rows that involve y at the fixed x."""

    @staticmethod
    def member(prob, u, tol=1e-9):
        x, y = u[:prob.n], u[prob.n:]
        vals = np.concatenate([prob.x_region().evaluate(x)[0],
                               prob.lift_rows(x).evaluate(y)[0]])
        return bool(np.max(vals) <= tol)

    def test_membership_matches_rows_on_grid(self):
        prob = catalog.load_example(4)
        axes = np.linspace(-1.2, 1.2, 20)
        for a in axes:
            for b in axes:
                u = np.array([a, b])
                direct = max(
                    -a - b - 1,        # s row
                    abs(a) - 1,        # box bounds
                    abs(b) - 1,
                    a * a + b * b - 0.81,
                )
                assert self.member(prob, u) == (direct <= 1e-9)

    def test_membership_example6(self):
        prob = catalog.load_example(6)
        u_good = np.array([0.13, 0.16, 1.56, 0.143, 0.0])
        u_bad = np.array([0.13, 0.16, 1.56, 0.0, 0.0])  # violates g1
        assert self.member(prob, u_good, tol=1e-2)
        assert not self.member(prob, u_bad)

    def test_row_labels_map_back(self):
        prob = catalog.load_example(6)
        labels = stacked_mp_constraints(prob, np.zeros(4)).labels
        assert labels[4].startswith("x1")
        assert labels[7] == "y1 >= 0"
        assert labels[9] == "g_1"
        assert labels[11].startswith("f_1")
