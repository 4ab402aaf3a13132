"""Per-layer tracing from outside the solver.

``Tracer.installed()`` swaps the public functions of each svbilevel layer for
wrappers that record a span per call (name, start, end, parent span, pass
id) and restores the originals on exit; nothing under ``src/`` is edited.
``CompiledExpr`` evaluations are far too many for one span each, so the
``expr`` layer is recorded as counts and busy time charged to the enclosing
span.  ``numpy.linalg.lstsq`` is counted, not timed.

``per_layer_metrics`` derives every per-layer number from the spans and
counters alone, so the trace file written by ``dump`` holds all of them.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from svbilevel import bnb, expr, outcome, problem
from svbilevel import neurodynamic as nd

LAYERS = ("bnb", "outcome", "problem", "neurodynamic", "copolyblock", "expr")
ROLES = ("box", "mp", "ray")
# the outcome-layer span a flow runs under decides its role
ROLE_OF = {"outcome.compute_box": "box", "outcome.solve_mp": "mp",
           "outcome.solve_ray": "ray"}


class Span:
    __slots__ = ("name", "start", "end", "parent", "pass_id", "expr_s",
                 "expr_calls", "info")

    def __init__(self, name, parent, pass_id):
        self.name = name
        self.parent = parent
        self.pass_id = pass_id
        self.start = self.end = 0.0
        self.expr_s = 0.0
        self.expr_calls = 0
        self.info = None


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.pass_id = 0
        self.counters = {"expr.value": 0, "expr.value_grad": 0,
                         "expr.generators": 0, "lstsq": 0,
                         "incumbent_updates": 0}
        self._in_expr = False

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, after=None, before=None):
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else -1
            span = Span(name, parent, tracer.pass_id)
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            ctx = before(args) if before is not None else None
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer.stack.pop()
            if after is not None:
                span.info = after(args, result, ctx)
            return result
        return wrapper

    def _expr(self, kind, fn):
        tracer = self
        key = "expr." + kind

        def wrapper(*args, **kwargs):
            # an evaluation that calls another one counts once
            if tracer._in_expr:
                return fn(*args, **kwargs)
            tracer._in_expr = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer._in_expr = False
                tracer.counters[key] += 1
                if tracer.stack:
                    span = tracer.spans[tracer.stack[-1]]
                    span.expr_s += dt
                    span.expr_calls += 1
        return wrapper

    def _counted(self, key, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _targets(self):
        """(owner, attribute, wrapper) for every patched name.  A name a
        module imported with ``from x import y`` is patched where it is
        looked up, not where it is defined."""
        counters = self.counters

        def flow_info(args, res, ctx):
            return (res.steps, res.status is nd.FlowStatus.CONVERGED)

        def alpha_before(args):
            return args[0].alpha

        def count_update(args, state, alpha0):
            if state.alpha < alpha0:
                counters["incumbent_updates"] += 1

        def misses_before(args):
            return args[0].misses

        def phi_hit(args, sol, misses0):
            return args[0].misses == misses0

        def vertex_count(args, result, ctx):
            return len(args[0])

        S = self._span
        return [
            (bnb, "solve", S("bnb.solve", bnb.solve)),
            (bnb, "initialize", S("bnb.initialize", bnb.initialize)),
            (bnb, "iterate", S("bnb.iterate", bnb.iterate,
                               count_update, alpha_before)),
            (bnb, "find_feasible_y", S("bnb.lift", bnb.find_feasible_y)),
            (bnb, "compute_box", S("outcome.compute_box", bnb.compute_box)),
            (bnb, "solve_ray", S("outcome.solve_ray", bnb.solve_ray)),
            (outcome, "solve_mp", S("outcome.solve_mp", outcome.solve_mp,
                                    lambda a, r, c: r.feasible)),
            (outcome.PhiCache, "get", S("outcome.phi_get",
                                        outcome.PhiCache.get,
                                        phi_hit, misses_before)),
            (bnb, "cut", S("copolyblock.cut", bnb.cut, vertex_count)),
            (bnb, "prune", S("copolyblock.prune", bnb.prune, vertex_count)),
            (bnb, "select_min_phi", S("copolyblock.select_min_phi",
                                      bnb.select_min_phi)),
            (outcome, "find_interior_start",
             S("problem.find_interior_start", outcome.find_interior_start)),
            (outcome, "stacked_mp_constraints",
             S("problem.stacked_mp_constraints",
               outcome.stacked_mp_constraints)),
            (problem.BilevelProblem, "x_region",
             S("problem.x_region", problem.BilevelProblem.x_region)),
            (nd, "solve_flow", S("neurodynamic.solve_flow", nd.solve_flow,
                                 flow_info)),
            (nd, "find_feasible", S("neurodynamic.find_feasible",
                                    nd.find_feasible,
                                    lambda a, r, c: r is not None)),
            (expr.CompiledExpr, "value",
             self._expr("value", expr.CompiledExpr.value)),
            (expr.CompiledExpr, "value_grad",
             self._expr("value_grad", expr.CompiledExpr.value_grad)),
            (expr.CompiledExpr, "value_generators",
             self._expr("generators", expr.CompiledExpr.value_generators)),
            (np.linalg, "lstsq", self._counted("lstsq", np.linalg.lstsq)),
        ]

    @contextmanager
    def installed(self):
        """Patch every layer for the duration of the block."""
        targets = self._targets()
        saved = [(owner, name, owner.__dict__[name])
                 for owner, name, _ in targets]
        try:
            for owner, name, wrapper in targets:
                setattr(owner, name, wrapper)
            yield self
        finally:
            for owner, name, original in saved:
                setattr(owner, name, original)

    # -- output ------------------------------------------------------------

    def dump(self, path) -> None:
        """Write spans and counters as JSON; times are seconds from the
        first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        doc = {
            "fields": ["name", "start", "end", "parent", "pass_id", "expr_s",
                       "expr_calls", "info"],
            "spans": [[s.name, s.start - t0, s.end - t0, s.parent, s.pass_id,
                       s.expr_s, s.expr_calls, s.info] for s in self.spans],
            "counters": self.counters,
        }
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh)


def self_times(spans) -> dict:
    """Seconds per layer not covered by a child span; expr time is charged
    to the expr layer.  Sums to the total duration of the root spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    out = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        layer = s.name.split(".", 1)[0]
        out[layer] += (s.end - s.start) - child[i] - s.expr_s
        out["expr"] += s.expr_s
    return out


def _role(spans, s) -> str:
    i = s.parent
    while i >= 0:
        role = ROLE_OF.get(spans[i].name)
        if role is not None:
            return role
        i = spans[i].parent
    return "other"


def per_layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-pass per-layer numbers from the spans and counters of ``passes``
    traced passes."""
    spans = tracer.spans
    c = tracer.counters
    per = 1.0 / passes
    named = defaultdict(list)
    for s in spans:
        named[s.name].append(s)

    def busy(name):
        return sum(s.end - s.start for s in named[name]) * per

    def calls(name):
        return len(named[name]) * per

    def failed(name):
        return sum(1 for s in named[name] if not s.info) * per

    m = {}
    flows = defaultdict(list)
    for s in named["neurodynamic.solve_flow"]:
        flows[_role(spans, s)].append(s)
    all_steps = 0
    for r in ROLES:
        fs = flows[r]
        steps = sum(s.info[0] for s in fs)
        all_steps += steps
        b = sum(s.end - s.start for s in fs)
        m[f"neurodynamic.flows.{r}"] = len(fs) * per
        m[f"neurodynamic.steps.{r}"] = steps * per
        m[f"neurodynamic.busy_s.{r}"] = b * per
        m[f"neurodynamic.us_per_step.{r}"] = 1e6 * b / steps if steps else 0.0
        m[f"neurodynamic.unconverged.{r}"] = sum(
            1 for s in fs if not s.info[1]) * per
    m["neurodynamic.max_flow_steps"] = max(
        (s.info[0] for s in named["neurodynamic.solve_flow"]), default=0)
    m["neurodynamic.feasible_calls"] = calls("neurodynamic.find_feasible")
    m["neurodynamic.feasible_s"] = busy("neurodynamic.find_feasible")
    m["neurodynamic.feasible_none"] = failed("neurodynamic.find_feasible")
    m["neurodynamic.lstsq_calls"] = c["lstsq"] * per

    m["expr.value_calls"] = c["expr.value"] * per
    m["expr.value_grad_calls"] = c["expr.value_grad"] * per
    m["expr.generators_calls"] = c["expr.generators"] * per
    flow_evals = sum(s.expr_calls for s in named["neurodynamic.solve_flow"])
    m["expr.evals_per_step"] = flow_evals / all_steps if all_steps else 0.0

    gets = named["outcome.phi_get"]
    m["outcome.box_s"] = busy("outcome.compute_box")
    m["outcome.mp_calls"] = calls("outcome.solve_mp")
    m["outcome.mp_s"] = busy("outcome.solve_mp")
    m["outcome.mp_infeasible"] = failed("outcome.solve_mp")
    m["outcome.phi_gets"] = calls("outcome.phi_get")
    m["outcome.phi_hit_ratio"] = (sum(1 for s in gets if s.info) / len(gets)
                                  if gets else 0.0)
    m["outcome.ray_calls"] = calls("outcome.solve_ray")
    m["outcome.ray_s"] = busy("outcome.solve_ray")
    m["outcome.interior_start_calls"] = calls("problem.find_interior_start")
    m["outcome.interior_start_s"] = busy("problem.find_interior_start")

    rays = calls("outcome.solve_ray")
    m["bnb.init_s"] = busy("bnb.initialize")
    m["bnb.iterate_s"] = busy("bnb.iterate")
    m["bnb.lift_calls"] = calls("bnb.lift")
    m["bnb.lift_s"] = busy("bnb.lift")
    m["bnb.lift_ok_ratio"] = (c["incumbent_updates"] * per / rays
                              if rays else 0.0)

    m["copolyblock.cut_calls"] = calls("copolyblock.cut")
    m["copolyblock.prune_calls"] = calls("copolyblock.prune")
    m["copolyblock.vertices_max"] = max(
        (s.info for s in named["copolyblock.cut"] + named["copolyblock.prune"]),
        default=0)

    # copolyblock and expr call no other layer, so busy time is self time
    selfs = self_times(spans)
    m["copolyblock.busy_s"] = selfs["copolyblock"] * per
    m["expr.busy_s"] = selfs["expr"] * per
    for layer in ("bnb", "outcome", "problem", "neurodynamic"):
        m[f"{layer}.self_s"] = selfs[layer] * per
    m["trace.spans"] = len(spans) * per
    return m


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if ".us_per_step." in name:
        return "us"
    if name.endswith("_s") or ".busy_s." in name:
        return "s"
    if name.endswith(("_ratio", ".overhead")):
        return "ratio"
    if name.endswith("evals_per_step"):
        return "1/step"
    return "count"
