"""Tests of the benchmark's own code: relabelling, the output check, and
that a run prints every metric BENCHMARK.json names."""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import harness
import workloads as wl
from svbilevel.bnb import SolverStatus

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
ALL_CASES = [c for cases in wl.WORKLOADS.values() for c in cases]


def inverse(perm):
    inv = [0] * len(perm)
    for i, j in enumerate(perm):
        inv[j] = i
    return inv


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c.name)
@pytest.mark.parametrize("seed", [1, 2, 7])
def test_relabel_round_trips(case, seed):
    [(px, py)] = wl.seeded_permutations([case], seed)
    there = wl.relabel(case.text, px, py)
    assert wl.relabel(there, inverse(px), inverse(py)) == case.text


def test_seed_zero_is_the_text_as_written():
    for case in ALL_CASES:
        [(px, py)] = wl.seeded_permutations([case], 0)
        assert wl.relabel(case.text, px, py) == case.text


def test_relabel_moves_variables_and_known_vectors():
    text = "vars x 3\nupper x1 + 2*x3\nbound x3 0 1\nknown x 1.0 2.0 3.0\n"
    out = wl.relabel(text, [1, 2, 0], [])
    assert out == "vars x 3\nupper x2 + 2*x1\nbound x1 0 1\nknown x 3.0 1.0 2.0\n"


def test_answers_map_back_to_original_labels():
    x = np.array([10.0, 20.0, 30.0])
    px = [2, 0, 1]
    relabelled = np.empty(3)
    relabelled[px] = x  # original x_i sits at coordinate px[i]
    assert np.array_equal(wl.unrelabel_point(relabelled, px), x)


def _report(h, alpha=None, beta=None, x=(0.0, 0.0), y=(),
            status=SolverStatus.OPTIMAL):
    alpha = h if alpha is None else alpha
    beta = h if beta is None else beta
    inc = SimpleNamespace(x=np.array(x), y=np.array(y), h=h)
    return SimpleNamespace(status=status, incumbent=inc, alpha=alpha, beta=beta)


def test_checker_accepts_a_certified_answer_in_band():
    assert wl.check_report(wl.EXAMPLE4, _report(-1.79)) is None


def test_checker_rejects_a_wrong_h():
    assert "outside" in wl.check_report(wl.EXAMPLE4, _report(-1.5))
    assert wl.check_report(wl.EXAMPLE1, _report(1.25)) is not None
    assert wl.check_report(wl.CASE_BALL3, _report(0.52)) is not None


def test_checker_rejects_an_uncertified_gap():
    # eps (1 + |beta|) = 0.01 * 1.3 = 0.013 < 0.02
    why = wl.check_report(wl.EXAMPLE2, _report(0.3, alpha=0.32, beta=0.3))
    assert "gap" in why


def test_checker_rejects_a_status_other_than_optimal():
    report = _report(-1.79, status=SolverStatus.MAX_ITERATIONS)
    assert "status" in wl.check_report(wl.EXAMPLE4, report)


def test_checker_maps_y_back_before_checking_example6():
    report = _report(0.0093, x=(0.1, 0.2, 1.5), y=(0.0, 0.142857))
    assert wl.check_report(wl.EXAMPLE6, report, [0, 1, 2], [1, 0]) is None
    assert wl.check_report(wl.EXAMPLE6, report, [0, 1, 2], [0, 1]) is not None


def test_tail_percentile_needs_ten_samples_above():
    assert harness.tail_percentile(list(range(10))) is None
    assert harness.tail_percentile(list(range(20))) == (50.0, 9)


@pytest.fixture
def tiny_workload(monkeypatch, tmp_path):
    toy = wl.Case("toy", wl.WARMUP, 1e-2, lambda h, x, y: None)
    monkeypatch.setitem(wl.WORKLOADS, "tiny", (toy,))
    monkeypatch.chdir(tmp_path)
    return "tiny", tmp_path


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_every_named_metric_is_printed(tiny_workload, trace, section):
    name, workdir = tiny_workload
    tally, metrics = harness.run(name, 3, 0.01, bool(trace),
                                 log=lambda line: None)
    line = json.loads(harness.result_line(tally, metrics))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    # one timed pass plus the seeded verification pass (plus a traced pass)
    assert line["attempted"] == 2 + trace
    named = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    printed = {k: v["unit"] for k, v in line["metrics"].items()}
    assert printed == named
    if trace:
        assert metrics["trace.self_sum_ratio"] == pytest.approx(1.0, abs=0.05)
        assert (workdir / ".perfbench" / "trace-tiny-seed3.json").is_file()


def test_refuses_to_run_without_solver_sources(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
