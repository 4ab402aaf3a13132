import numpy as np
import pytest

from svbilevel import bnb, catalog, cli
from svbilevel.problem import validate

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

# X has no rows and the lower level one objective: two errors
INVALID_TEXT = """\
vars x 2
upper x1 + x2
lower x1
"""


@pytest.fixture(scope="module")
def ex1_report():
    return bnb.solve(catalog.load_example(1), bnb.SolverConfig(epsilon=1e-5))


def box_flow_error(steps, t_max):
    return (f"error: min f_1 over X: flow ended MaxTime after {steps} steps; "
            f"X may be unbounded or wider than the flow horizon "
            f"t_max = {t_max}\n")


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

    def test_bad_direction_text(self, capsys):
        code, _, err = run(capsys, ["--example", "1", "--direction", "1,zebra"])
        assert code == 1

    def test_nonpositive_direction(self, capsys):
        code, _, err = run(capsys, ["--example", "1", "--direction", "1,-1"])
        assert code == 1

    @pytest.mark.parametrize("text", ["inf,1", "nan,1"])
    def test_nonfinite_direction(self, capsys, text):
        code, _, err = run(capsys, ["--example", "2", "--direction", text])
        assert code == 1
        assert err == ("error: direction components must be finite and "
                       "strictly positive\n")

    def test_direction_length_mismatch(self, capsys):
        code, _, err = run(capsys, ["--example", "1", "--direction", "1,1,1"])
        assert code == 1
        assert "2 objectives" in err

    @pytest.mark.parametrize("flag", [["--dt", "-1"], ["--t-max", "0"]])
    def test_nonpositive_flow_setting(self, capsys, flag):
        code, _, err = run(capsys, ["--example", "1"] + flag)
        assert code == 1
        assert err == "error: dt and t_max must be positive\n"

    @pytest.mark.parametrize("flag,message", [
        (["--dt", "nan"], "dt must be finite, got nan"),
        (["--dt", "inf"], "dt must be finite, got inf"),
        (["--dt", "1e300"], "dt = 1e+300 exceeds t_max = 200.0"),
        (["--t-max", "nan"], "t_max must be a number, got nan"),
        (["--epsilon", "nan"], "epsilon must be finite and positive"),
        (["--epsilon", "inf"], "epsilon must be finite and positive")])
    def test_nonfinite_setting(self, capsys, flag, message):
        # a nan or oversized dt used to end "optimal" at h 0.357143, and
        # epsilon nan ran to the iteration cap
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

    def test_evaluation_error_during_a_solve(self, capsys, tmp_path):
        path = tmp_path / "divides.txt"
        path.write_text(DIVIDES_BY_ZERO_TEXT)
        code, out, err = run(capsys, ["--file", str(path)])
        assert code == 1
        assert out == ""
        assert err == "error: division by zero at node 1.0 / x1\n"

    # each ended "optimal" with a wrong h (-791.49 and -1.04) when a box
    # flow that stopped at the horizon was accepted
    def test_unbounded_x(self, capsys, tmp_path):
        path = tmp_path / "unbounded.txt"
        path.write_text(UNBOUNDED_X_TEXT)
        code, out, err = run(capsys, ["--file", str(path)])
        assert (code, out) == (1, "")
        assert err == box_flow_error(16, "200")

    def test_horizon_shorter_than_x(self, capsys):
        code, out, err = run(capsys, ["--example", "4", "--t-max", "0.05"])
        assert (code, out) == (1, "")
        assert err == box_flow_error(4, "0.05")

    def test_problem_validate_rejects(self, capsys, tmp_path):
        path = tmp_path / "invalid.txt"
        path.write_text(INVALID_TEXT)
        code, out, err = run(capsys, ["--file", str(path)])
        assert code == 1
        assert out == ""
        assert err == ("error: lower level must be vectorial (p >= 2); "
                       "X has no constraints; it cannot be bounded\n")

    @pytest.mark.parametrize("argv", [
        [],
        ["--example", "1", "--format", "xml"],
        ["--example", "1", "--dt", "-inf"],
        ["--example", "1", "--file", "problem.txt"]])
    def test_usage_error_is_one(self, capsys, argv):
        # argparse's own code is 2, the code of an infeasible problem
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        assert "svbilevel: error:" in capsys.readouterr().err

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
        diags = validate(catalog.load_example(number))
        assert not [d for d in diags if d.level == "error"]
