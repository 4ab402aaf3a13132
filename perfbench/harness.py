"""Runs one workload through the public svbilevel API and reports metrics.

Every pass loads each problem fresh from text and solves it with
``bnb.solve``; every answer is checked.  Passes repeat until the next one
would overrun ``--seconds`` (at least one runs).  With ``--trace 0`` the run
reports the end-to-end metrics.  With ``--trace 1`` it alternates an
untraced and a traced pass, reports the per-layer metrics of the traced
passes plus the tracing overhead, and writes the spans to ``.perfbench/``.

Timed passes always solve the problems as written, so timings compare
across seeds.  A seed s > 0 adds an untimed verification pass over copies
whose x and y variables are relabelled by a seeded permutation; their
answers are mapped back and checked.  Relabelling changes the cost of a
solve (README.md has the numbers), which is why it is kept out of the
timed passes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import svbilevel
from svbilevel import bnb
from svbilevel import neurodynamic as nd

import workloads as wl
import speed
from tracer import Tracer, per_layer_metrics, self_times, unit_of

TRACE_DIR = ".perfbench"
# setup is sampled in short bursts spread over the run, so that its median
# is not decided by what the machine was doing in one moment
SETUP_BURST_S = 0.05
SETUP_BURST_MIN = 5

END_TO_END_UNITS = {
    "solve_s": "s",
    "setup_s": "s",
    "iterations": "count",
    "unconverged_flows": "count",
    "peak_rss_mb": "MB",
}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)


@dataclass
class PassSample:
    solve_s: float = 0.0  # reference-speed seconds
    wall_s: float = 0.0
    iterations: int = 0
    unconverged: int = 0


class FlowCounter:
    """Counts ``solve_flow`` results that did not converge.  One wrapper
    call per flow, so it stays installed in untraced runs too."""

    def __init__(self):
        self.unconverged = 0

    @contextmanager
    def installed(self):
        original = nd.__dict__["solve_flow"]

        def counted(*args, **kwargs):
            res = original(*args, **kwargs)
            if res.status is not nd.FlowStatus.CONVERGED:
                self.unconverged += 1
            return res

        nd.solve_flow = counted
        try:
            yield self
        finally:
            nd.solve_flow = original


def solve_case(case: wl.Case, text: str, px, py, tally: Tally):
    """Load ``text``, solve and check it.  Returns (wall seconds,
    reference-speed seconds, iterations) of the solve.  A raising or wrong
    solve counts as failed in ``tally``."""
    tally.attempted += 1
    try:
        problem = svbilevel.load_problem(text)
        config = bnb.SolverConfig(epsilon=case.epsilon)
        report, wall, scaled = speed.timed(bnb.solve, problem, config)
    except Exception as exc:  # the run reports it and goes on
        tally.failed += 1
        tally.reasons.append(f"{case.name}: raised {exc!r}")
        return 0.0, 0.0, 0
    why = wl.check_report(case, report, px, py)
    if why is not None:
        tally.failed += 1
        tally.reasons.append(f"{case.name} (x {list(px)}, y {list(py)}): {why}")
    return wall, scaled, report.iterations


def sample_setup(texts, out: list) -> None:
    """Append reference-speed seconds per load of every text, for about
    SETUP_BURST_S."""
    def burst():
        times = []
        end = perf_counter() + SETUP_BURST_S
        while len(times) < SETUP_BURST_MIN or perf_counter() < end:
            t0 = perf_counter()
            for text in texts:
                svbilevel.load_problem(text)
            times.append(perf_counter() - t0)
        return times

    times, wall, scaled = speed.timed(burst)
    out.extend(t * scaled / wall for t in times)


def run_pass(cases, tally: Tally, counter: FlowCounter, setup=None
             ) -> PassSample:
    """Solve every case once.  With ``setup``, a setup burst precedes each
    solve."""
    sample = PassSample()
    before = counter.unconverged
    for case in cases:
        if setup is not None:
            sample_setup([c.text for c in cases], setup)
        wall, scaled, iterations = solve_case(case, case.text, (), (), tally)
        sample.wall_s += wall
        sample.solve_s += scaled
        sample.iterations += iterations
    sample.unconverged = counter.unconverged - before
    return sample


def tail_percentile(values):
    """(percentile, value) of the highest percentile with at least ten
    samples above it, or None with fewer than 11 samples."""
    n = len(values)
    if n < 11:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(values)[k - 1]


def describe(name, values, unit) -> str:
    line = (f"{name}: median {statistics.median(values):.6g} {unit}, "
            f"n = {len(values)}")
    tail = tail_percentile(values)
    if tail is None:
        return line + ", no percentile has 10 samples above it"
    return line + f", p{tail[0]:.1f} {tail[1]:.6g} {unit}"


def environment() -> str:
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"{platform.machine()} {platform.processor() or ''}".rstrip()
            + f", nproc {len(os.sched_getaffinity(0))}, "
            f"cpu_count {os.cpu_count()}, "
            f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}")


def run(workload: str, seed: int, seconds: float, trace: bool, log=print):
    """Run the workload; returns (tally, metrics)."""
    cases = wl.WORKLOADS[workload]
    tally = Tally()
    counter = FlowCounter()
    tracer = Tracer() if trace else None
    plain, traced, setup = [], [], []
    with counter.installed():
        svbilevel.solve(svbilevel.load_problem(wl.WARMUP))
        start = perf_counter()
        while True:
            plain.append(run_pass(cases, tally, counter,
                                  None if trace else setup))
            if trace:
                # probe units land in spans in proportion to their length,
                # so they scale every layer's time alike, by under 1 %
                tracer.pass_id = len(traced)
                with tracer.installed():
                    traced.append(run_pass(cases, tally, counter))
            elapsed = perf_counter() - start
            if elapsed * (1 + 1 / len(plain)) > seconds:
                break
        if not trace:
            sample_setup([c.text for c in cases], setup)
        verify_s = 0.0
        if seed != 0:
            t0 = perf_counter()
            perms = wl.seeded_permutations(cases, seed)
            for case, (px, py) in zip(cases, perms):
                log(f"verify {case.name}: x -> {px}, y -> {py}")
                solve_case(case, wl.relabel(case.text, px, py), px, py, tally)
            verify_s = perf_counter() - t0

    log(environment())
    log(f"workload {workload}, seed {seed}, {len(plain)} untraced and "
        f"{len(traced)} traced passes, verification {verify_s:.3f} s")
    for reason in tally.reasons:
        log(f"FAILED {reason}")
    log(f"fail_frac: {tally.failed} of {tally.attempted} solves failed")
    plain_s = [p.solve_s for p in plain]
    plain_wall = [p.wall_s for p in plain]
    log(describe("solve_s (reference speed)", plain_s, "s"))
    log(describe("solve wall", plain_wall, "s"))
    if not trace:
        log(describe("setup_s (reference speed)", setup, "s"))
        return tally, {
            "solve_s": statistics.median(plain_s),
            "setup_s": statistics.median(setup),
            "iterations": statistics.median_low(p.iterations for p in plain),
            "unconverged_flows": statistics.median_low(
                p.unconverged for p in plain),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    traced_s = [p.solve_s for p in traced]
    traced_wall = [p.wall_s for p in traced]
    log(describe("traced solve_s (reference speed)", traced_s, "s"))
    log(describe("traced solve wall", traced_wall, "s"))
    metrics = per_layer_metrics(tracer, len(traced))
    metrics["trace.solve_s"] = statistics.median(traced_s)
    metrics["trace.plain_solve_s"] = statistics.median(plain_s)
    metrics["trace.overhead"] = (metrics["trace.solve_s"]
                                 / metrics["trace.plain_solve_s"] - 1.0)
    metrics["trace.self_sum_ratio"] = (
        sum(self_times(tracer.spans).values()) / sum(traced_wall))
    path = Path(TRACE_DIR) / f"trace-{workload}-seed{seed}.json"
    tracer.dump(path)
    log(f"spans and counters written to {path}")
    return tally, metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Benchmark the svbilevel solver on one workload.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def result_line(tally: Tally, metrics: dict) -> str:
    def unit(name):
        return END_TO_END_UNITS.get(name) or unit_of(name)

    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    })


def main(argv, src: Path) -> int:
    args = parse_args(argv)
    if not Path(svbilevel.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: svbilevel was imported from {svbilevel.__file__},"
              f" not from {src}", file=sys.stderr)
        return 2
    tally, metrics = run(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    print(result_line(tally, metrics), flush=True)
    return 0 if tally.failed == 0 else 1
