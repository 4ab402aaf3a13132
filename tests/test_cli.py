import numpy as np
import pytest

from svbilevel import bnb, catalog, cli
from svbilevel.problem import validate

from test_neurodynamic import NAN_ROW_TEXT
from test_outcome import VERTEX_POLE_TEXT

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


EMPTY_X_TEXT = """\
vars x 1
upper x1
lower x1
lower -x1
constraint_x x1 + 1
constraint_x -x1 + 1
"""

# the box flow for f_1 starts at x1 = 0, the midpoint of its bounds
DIVIDES_BY_ZERO_TEXT = """\
vars x 2
lower 1/x1
lower x2
upper x1 + x2
bound x1 -1 1
bound x2 0 1
"""

# X = {x1 <= 0} is unbounded below
UNBOUNDED_X_TEXT = """\
vars x 1
upper x1
lower x1
lower x1 + 1
constraint_x x1 - 0
"""

# f_1 = 1/(x1 - 0.3) has m_1 = 0.588 above M_1 = 0.213: not quasiconvex
POLE_BOX_TEXT = """\
vars x 2
upper (x1 - 1)^2 + (x2 - 1)^2
lower 1/(x1 - 0.3)
lower x2
bound x1 -1 2
bound x2 -1 2
"""

REPEATED_VARS_TEXT = """\
vars x 2
vars x 3
upper x1
lower x1
lower x2
constraint_x x1 - 1
"""

NAN_BOUND_TEXT = """\
vars x 2
upper x1
lower x1
lower x2
constraint_x x1 - 1
bound x1 nan 1
"""

OVERFLOW_TEXT = """\
vars x 2
upper x1
lower x1
lower x2
constraint_x 1e400*x1 - 1
"""

# x1 bounded by [inf, inf] or [-inf, -inf]: no number lies in either
EMPTY_AT_INF_TEXT = """\
vars x 2
upper x1 + x2
lower x1
lower x2
constraint_x x1 + x2 - 1
bound x2 0 1
bound x1 {0} {0}
"""

# X has no rows and the lower level one objective: two errors
INVALID_TEXT = """\
vars x 2
upper x1 + x2
lower x1
"""


@pytest.fixture(scope="module")
def ex1_report():
    return bnb.solve(catalog.load_example(1), bnb.SolverConfig(epsilon=1e-5))


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInputErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["--file", "/no/such/file"])
        assert code == 1
        assert "cannot read" in err

    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("vars x 2\nupper x1 +\nlower x1\nlower x2\n")
        code, _, err = run(capsys, ["--file", str(bad)])
        assert code == 1
        assert "error" in err

    def test_unknown_example(self, capsys):
        code, _, err = run(capsys, ["--example", "9"])
        assert code == 1
        assert "no example 9" in err

    def test_bad_epsilon(self, capsys):
        code, _, err = run(capsys, ["--example", "1", "--epsilon", "-1"])
        assert code == 1

    @pytest.mark.parametrize("flag,message", [
        (["--epsilon=-inf"], "epsilon must be finite and positive"),
        (["--epsilon", "1e999"], "epsilon must be finite and positive"),
        (["--epsilon", "nan"], "epsilon must be finite and positive"),
        (["--epsilon", "inf"], "epsilon must be finite and positive")])
    def test_nonfinite_setting(self, capsys, flag, message):
        # epsilon nan used to run to the iteration cap
        code, out, err = run(capsys, ["--example", "2"] + flag)
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    def test_empty_feasible_set(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text(EMPTY_X_TEXT)
        code, _, err = run(capsys, ["--file", str(path)])
        assert code == 1
        assert err == "error: X is empty: no feasible point found\n"

    @pytest.mark.parametrize("old, new, message", [
        # s_1 follows the four bound rows, which are affine
        ("", "constraint_x x1^2*1e308*10 - 1\n",
         "row 4 's_1' is inf at the start (0.5, 0.5)"),
        ("lower x1\n", "lower x1^2*1e308*10\n",
         "min f_1 over X: the objective is not finite at the start "
         "(0.5, 0.5)")], ids=["row", "objective"])
    def test_not_finite_at_a_flow_start(self, capsys, tmp_path, old, new,
                                        message):
        # these ended "X is empty" after an invalid-value warning, and
        # "SVD did not converge" after four warnings
        text = ("vars x 2\nupper x1 + x2\nlower x1\nlower x2\n"
                "bound x1 0 1\nbound x2 0 1\n")
        path = tmp_path / "nonfinite.txt"
        path.write_text(text.replace(old, new, 1) if old else text + new)
        code, out, err = run(capsys, ["--file", str(path)])
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    def test_evaluation_error_during_a_solve(self, capsys, tmp_path):
        path = tmp_path / "divides.txt"
        path.write_text(DIVIDES_BY_ZERO_TEXT)
        code, out, err = run(capsys, ["--file", str(path)])
        assert code == 1
        assert out == ""
        assert err == "error: division by zero at node 1.0 / x1\n"

    def test_a_constant_that_overflows(self, capsys, tmp_path):
        # the row's constant was nan, which S ignored, and the solve
        # reported optimal
        path = tmp_path / "overflow.txt"
        path.write_text("vars x 2\nupper x1 + x2\nlower x1\nlower x2\n"
                        "bound x1 0 1\nbound x2 0 1\n"
                        "constraint_x x1 + (1e308*10 - 1e308*10)\n")
        code, out, err = run(capsys, ["--file", str(path)])
        assert code == 1
        assert out == ""
        assert err == (f"error: {path}: line 7: non-finite value at node "
                       "1e+308 * 10.0\n")

    @pytest.mark.parametrize("upper, walk", [
        ("(" * 200 + "x1" + ")" * 200, "parse"),
        (" + ".join(["x1"] * 600), "compile"),
        (" + ".join(["x1"] * 1000), "read")], ids=["parens", "600", "1000"])
    def test_deep_expression(self, capsys, tmp_path, upper, walk):
        path = tmp_path / "deep.txt"
        path.write_text(f"vars x 1\nupper {upper}\nlower x1^2\n"
                        f"lower (x1 - 1)^2\nbound x1 -1 2\n")
        code, out, err = run(capsys, ["--file", str(path)])
        assert code == 1 and out == ""
        assert err.count("\n") == 1
        assert f"expression nested too deeply to {walk}: " in err

    # this ended "optimal" with h -791.49 when a box flow that had not
    # converged was accepted
    def test_unbounded_x(self, capsys, tmp_path):
        path = tmp_path / "unbounded.txt"
        path.write_text(UNBOUNDED_X_TEXT)
        code, out, err = run(capsys, ["--file", str(path)])
        assert (code, out) == (1, "")
        assert err == ("error: min f_1 over X: flow ended Diverged after 30 "
                       "steps; X may be unbounded\n")

    # a row that is NaN where |x1 - 0.5| is above about 0.42: the box flow
    # for f_1 stops at that boundary, where it converged when a NaN row
    # counted as met, and the next flow took the blame
    def test_a_row_that_is_nan_over_part_of_x(self, capsys, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text(NAN_ROW_TEXT)
        code, out, err = run(capsys, ["--file", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith("error: min f_1 over X: flow ended "
                              "Unconverged after ")

    def test_minimum_above_the_vertex_bound(self, capsys, tmp_path):
        path = tmp_path / "pole.txt"
        path.write_text(POLE_BOX_TEXT)
        code, out, err = run(capsys, ["--file", str(path)])
        assert (code, out) == (1, "")
        assert err == ("error: f_1: its minimum over X, 0.588235, exceeds "
                       "M_1 = 0.212766, its largest value on the vertices of "
                       "a simplex enclosing X; that bound needs f_1 "
                       "quasiconvex\n")

    # this failed naming only the division, not f_1, the box or the point
    def test_f_i_undefined_at_an_enclosure_vertex(self, capsys, tmp_path):
        path = tmp_path / "vertex_pole.txt"
        path.write_text(VERTEX_POLE_TEXT)
        code, out, err = run(capsys, ["--file", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith("error: f_1 at (0.5, 0.5), a vertex of a "
                              "simplex enclosing X, is undefined")

    def test_problem_validate_rejects(self, capsys, tmp_path):
        path = tmp_path / "invalid.txt"
        path.write_text(INVALID_TEXT)
        code, out, err = run(capsys, ["--file", str(path)])
        assert code == 1
        assert out == ""
        assert err == ("error: lower level must be vectorial (p >= 2); "
                       "X has no constraints; it cannot be bounded\n")

    # unchecked, these load as n = 3, as a dropped lower bound (solved
    # "optimal"), as a coefficient of inf (solved "infeasible") and as a
    # variable with no bound rows (failed at the box)
    @pytest.mark.parametrize("text,message", [
        (REPEATED_VARS_TEXT, "line 2: 'vars x' declared twice"),
        (NAN_BOUND_TEXT, "line 6: nan in the bound of x1"),
        (OVERFLOW_TEXT, "line 5: number '1e400' overflows a float "
                        "(at position 0)"),
        (EMPTY_AT_INF_TEXT.format("inf"), "line 7: empty bound [inf, inf]"),
        (EMPTY_AT_INF_TEXT.format("-inf"),
         "line 7: empty bound [-inf, -inf]"),
    ], ids=["repeated-vars", "nan-bound", "overflowing-literal",
            "empty-bound-at-inf", "empty-bound-at-minus-inf"])
    def test_malformed_file(self, capsys, tmp_path, text, message):
        path = tmp_path / "malformed.txt"
        path.write_text(text)
        code, out, err = run(capsys, ["--file", str(path)])
        assert (code, out) == (1, "")
        assert err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("argv", [
        [],
        ["--example", "1", "--format", "xml"],
        ["--example", "1", "--epsilon"],
        ["--example", "1", "--file", "problem.txt"]])
    def test_usage_error_is_one(self, capsys, argv):
        # argparse's own code is 2, the code of an infeasible problem
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        assert "svbilevel: error:" in capsys.readouterr().err

    def test_no_direction_flag(self, capsys):
        # the ray always aims from the vertex toward m; a fixed direction
        # used to certify h 1.809635 on example 1, where h* is 1.792021
        with pytest.raises(SystemExit) as exc:
            cli.main(["--example", "1", "--direction", "1,1"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --direction 1,1" in \
            capsys.readouterr().err

    def test_no_dt_flag(self, capsys):
        # every flow starts at the step neurodynamic.DT
        with pytest.raises(SystemExit) as exc:
            cli.main(["--example", "3", "--dt", "1"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --dt 1" in capsys.readouterr().err

    def test_no_t_max_flag(self, capsys):
        # a flow runs until it converges, diverges or spends MAX_STEPS
        with pytest.raises(SystemExit) as exc:
            cli.main(["--example", "3", "--t-max", "1"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --t-max 1" in capsys.readouterr().err

    def test_help_is_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        assert "usage: svbilevel" in capsys.readouterr().out


class TestExitCodes:
    def test_optimal_is_zero(self, capsys):
        code, out, _ = run(capsys, ["--example", "1", "--epsilon", "0.5"])
        assert code == 0
        assert "status     optimal" in out

    def test_infeasible_is_two(self, capsys, tmp_path):
        path = tmp_path / "infeasible.txt"
        path.write_text(INFEASIBLE_TEXT)
        code, out, _ = run(capsys, ["--file", str(path)])
        assert code == 2
        assert "infeasible" in out

    def test_iteration_cap_is_three(self, capsys):
        code, out, _ = run(capsys, ["--example", "1", "--epsilon", "1e-12",
                                    "--max-iters", "1"])
        assert code == 3
        assert "max_iterations" in out


class TestTableOutput:
    def test_row_count_matches_log(self, capsys, ex1_report):
        code, out, _ = run(capsys, ["--example", "1", "--epsilon", "1e-5"])
        assert code == 0
        lines = out.splitlines()
        table = lines[1:lines.index("")]
        assert len(table) == len(ex1_report.log)

    def test_summary_values(self, capsys):
        code, out, _ = run(capsys, ["--example", "1", "--epsilon", "1e-5"])
        assert code == 0
        summary = {line.split()[0]: line.split(None, 1)[1]
                   for line in out.splitlines()
                   if line and line[0].isalpha()}
        assert summary["status"] == "optimal"
        assert "h*" in summary and "x*" in summary
        assert "iterations" in summary and "wall_time" in summary


class TestCsvOutput:
    def test_header_and_summary_row(self, capsys):
        code, out, _ = run(capsys, ["--example", "1", "--epsilon", "1e-5",
                                    "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,v_1,v_2,alpha,beta,gap"
        assert lines[-1].startswith("# ")

    def test_reparse_reproduces_log(self, capsys, ex1_report):
        code, out, _ = run(capsys, ["--example", "1", "--epsilon", "1e-5",
                                    "--format", "csv"])
        assert code == 0
        lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == len(ex1_report.log)
        for cells, row in zip(rows, ex1_report.log):
            assert int(cells[0]) == row.k
            expect = list(row.v) + [row.alpha, row.beta, row.gap]
            for cell, value in zip(cells[1:], expect):
                assert abs(float(cell) - float(f"{value:.6f}")) <= 1e-12


class TestTrace:
    def test_trace_file_written(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        code, _, _ = run(capsys, ["--example", "1", "--epsilon", "0.5",
                                  "--trace", str(path)])
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0].startswith("flow,t,x_1")
        assert lines[0].endswith("r,S,speed")
        assert len(lines) > 10
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert all(np.isfinite(float(c)) for c in first[1:] if c)


class TestCatalogFixtures:
    @pytest.mark.parametrize("number", [1, 2, 3, 4, 5, 6])
    def test_validate_clean(self, number):
        assert validate(catalog.load_example(number)) == []
