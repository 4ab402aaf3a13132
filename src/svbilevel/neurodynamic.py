"""Differential-inclusion flow for nonsmooth pseudoconvex programs.

Integrates  dx/dt in -c(x) dr(x) - dS(x)  with explicit Euler and per-step
backtracking (halve dt while the step increases S outside the feasible set or
increases r inside it).  The right-hand side is a selection from the Clarke
sets: objective-generator and near-active constraint weights are chosen by
an exact minimum-norm rule (a closed form or a finite active-set QP) so the
discrete flow slides along boundaries and nonsmooth valleys instead of
chattering.  Along one flow the QPs hardly change, so each active-set solve
first tries the free set the flow's last one ended with, keyed by row and
objective-branch index: one least squares there, kept only when the cold
loop's own stopping test certifies it.  A hint that fails is tried once
more with one edit: less its non-positive weights, or with the coordinate
of least reduced gradient added.  A kept candidate is the cold result bit
for bit wherever the optimal weights are unique; at a degenerate selection,
whose velocity is about 0, its weights can differ from the cold loop's and
its velocity only by rounding.  When neither is kept the cold loop runs as
it would without the hint.  The QPs, the polish and the kink step take
their products as ``ndarray.dot``, the BLAS calls of ``@`` on the same
operands with less dispatch, and their least squares through ``_lstsq``,
the LAPACK solve of ``np.linalg.lstsq``.
A sliding trial point whose S exceeds ZERO_BAND is pulled back
by a Gauss-Newton polish that lands at S <= ZERO_BAND.  A single violated
row, the usual case, is pulled back in closed form, and a curved row is
pulled back to its level at the trial's origin (capped at ZERO_BAND / 2),
so the pull after a tangent step along it is second order in the step and
Armijo accepts full steps along curved rows; affine rows, which a tangent
step moves only at first order, and several violated rows are pulled to 0.
The S of each point is computed once, from its row values, and carried
with them.

The kink of a max objective gets the same treatment.  When two or more
branches within the objective band carry weight in the selection, the
minimizer lies on the set where they are equal.  A step along the tangent
of that set leaves it by a second-order amount that raises the max; near
the minimizer this outweighs the first-order decrease, so Armijo cuts the
steps down and the flow crawls, and where the branches are steep rounding
noise alone defeats the test.  So each sliding trial point first takes
the minimum-norm Gauss-Newton step onto {r_a = r_b = ...} of those
branches, evaluated once at the trial point (one difference row for two
branches, k - 1 rows by least squares for k), then the row polish, then
the descent test.  A branch the selection gives no weight is leaving the
kink, and is not pulled back to it.

Constraints are a ``RowSet``: an affine block evaluated as one product,
then nonlinear rows, each a max-free expression over the leading columns
of u, shifted by a constant.  A point's nonlinear rows, their gradients
and its S are computed from one list of Python floats: each row is its
expression's own generated code, a function of that list, and S adds the
positive row values in the order ``ndarray.sum`` adds them.  The flows
amplify a one-ulp difference, so this arithmetic is kept bit for bit that
of the expressions and of ``ndarray.sum``.  Euler steps start at ``DT``.
Objectives are oracles with ``value(x)`` and ``branch_pairs(x)``, the
``(value, gradient)`` of each branch: one pair for a smooth objective,
one per branch for a max, among which the flow picks the branches within
the band itself (``band_members``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

ZERO_BAND = 1e-9

# Activity-band floor (in constraint-value units, scaled by gradient norms).
# Sets the spatial resolution at which boundary and objective-kink contact is
# recognized; matches the 1e-3 accuracy the flow promises on terminal points.
CERT_BAND = 1e-4

# A flow is stationary where its velocity is at most STATIONARITY_TOL at a
# point whose S is at most FEASIBILITY_TOL, the S find_feasible stops at.
STATIONARITY_TOL = 1e-6
FEASIBILITY_TOL = 1e-7

# A flow whose point leaves this ball ends DIVERGED.
DIVERGENCE_RADIUS = 1e7

# solve_flow stops stepping after this many Euler steps and certifies where
# it stands; find_feasible gives up after this many descent steps.
MAX_STEPS = 200_000

# solve_flow's first Euler step, which each clean step doubles;
# find_feasible's least first trial of each descent step.
DT = 1e-2


class FlowStatus(enum.Enum):
    CONVERGED = "Converged"
    MAX_TIME = "MaxTime"
    DIVERGED = "Diverged"


class FlowError(Exception):
    pass


@dataclass
class FlowResult:
    x_final: np.ndarray
    objective_value: float
    penalty_residual: float
    status: FlowStatus
    steps: int = 0
    final_velocity_norm: float = math.inf


class TraceRecorder:
    """Collects per-step flow rows: (flow_id, t, x..., r, S, speed)."""

    def __init__(self):
        self.rows = []
        self._flow_id = 0

    def next_flow(self) -> int:
        self._flow_id += 1
        return self._flow_id

    def record(self, flow_id, t, x, r, s, speed):
        self.rows.append((flow_id, t, tuple(float(v) for v in x), r, s, speed))


# ---------------------------------------------------------------------------
# Constraint rows
# ---------------------------------------------------------------------------

def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D float vector: ``np.linalg.norm``'s own
    arithmetic for this case, sqrt(v . v), without its dispatch."""
    return math.sqrt(v.dot(v))


class RowSet:
    """Constraint rows r_i(u) <= 0, evaluated together: an affine block
    A u + b, then the nonlinear rows.  A nonlinear row (expr, shift) is
    ``expr.value(w) - shift`` with w = (head, u), u behind a fixed head
    (empty unless ``fix_head`` set one); expr is a max-free expression
    over the first ``expr.n_vars`` columns of w.  ``labels`` name the rows
    in the order ``values`` returns them.
    The nonlinear rows and their gradients are evaluated on w as one list
    of Python floats, each row by its expression's generated functions,
    made on first use, so that a RowSet built and not evaluated generates
    no code; u is a float array.  A RowSet holds no flow state, so one set
    serves any number of flows."""

    def __init__(self, A: np.ndarray, b: np.ndarray, nonlinear=(), labels=(),
                 head: Optional[np.ndarray] = None):
        self.A = A
        self.b = b
        self.nonlinear = tuple(nonlinear)
        self.labels = tuple(labels)
        self.n = A.shape[1]
        self.na = len(b)
        self.size = self.na + len(self.nonlinear)
        self.head = np.zeros(0) if head is None else head
        self._head = self.head.tolist()
        # (value function, shift) of each nonlinear row, made on first use
        self._value_fns = None

    @classmethod
    def of(cls, rows: Sequence, width: int) -> "RowSet":
        """Split ``rows`` into the affine block and the nonlinear rows, each
        in the given order.  A row is a tuple (row, label, shift), the row
        row(u) - shift <= 0, or a bare row, with label "" and shift 0.  A
        row is an ``AffineRow`` or a ``CompiledExpr`` over the first
        ``n_vars`` of the ``width`` columns; one whose ``affine``, a pair
        (coeffs, const), is not None joins the affine block with the
        constant const - shift.  A root max is not a row: it is one row per
        branch (see ``problem``), so it raises TypeError."""
        rows = [r if isinstance(r, tuple) else (r, "", 0.0) for r in rows]
        aff = [r for r in rows if r[0].affine is not None]
        nonlinear = [r for r in rows if r[0].affine is None]
        for c, label, _ in nonlinear:
            if len(c.branches) != 1:
                raise TypeError(f"row {label!r} is a root max: pass one row "
                                "per branch")
        A = np.zeros((len(aff), width))
        for i, (c, _, _) in enumerate(aff):
            A[i, :len(c.affine[0])] = c.affine[0]
        b = np.array([float(c.affine[1]) - shift for c, _, shift in aff])
        return cls(A, b, [(c, shift) for c, _, shift in nonlinear],
                   [r[1] for r in aff + nonlinear])

    def fix_head(self, x) -> "RowSet":
        """The rows as functions of the columns after x, with the leading
        len(x) columns held at x."""
        h = len(x)
        return RowSet(self.A[:, h:], self.b + self.A[:, :h].dot(x),
                      self.nonlinear, self.labels,
                      np.concatenate([self.head, x]))

    def norm_estimates(self) -> np.ndarray:
        """A flow's starting per-row gradient norms: fixed for affine rows,
        1.0 for a nonlinear row until ``row_grad`` records its gradient."""
        affine = np.maximum(np.sqrt((self.A * self.A).sum(axis=1)), 1e-12)
        return np.concatenate([affine, np.ones(len(self.nonlinear))])

    def values(self, u) -> np.ndarray:
        if not self.nonlinear:
            return self.A.dot(u) + self.b
        rows = self._value_fns
        if rows is None:
            rows = self._value_fns = [(c.branch_values[0], shift)
                                      for c, shift in self.nonlinear]
        ws = self._head + u.tolist()
        nl = [fn(ws) - shift for fn, shift in rows]
        if self.na:
            # one array from one list: cheaper than joining two arrays
            return np.array((self.A.dot(u) + self.b).tolist() + nl)
        return np.array(nl)

    def row_grad(self, i: int, u, norms: Optional[np.ndarray] = None
                 ) -> np.ndarray:
        """Gradient of row i at u.  A nonlinear row's norm is recorded in
        ``norms``, the calling flow's estimates."""
        if i < self.na:
            return self.A[i]
        c = self.nonlinear[i - self.na][0]
        ws = self._head + u.tolist()
        g = c.branch_gradients[0](ws)[1]
        if c.n_vars < len(ws):
            g = np.concatenate([g, np.zeros(len(ws) - c.n_vars)])
        if self._head:
            g = g[len(self._head):]
        if norms is not None:
            norms[i] = max(_norm(g), 1e-12)
        return g

    @staticmethod
    def total_penalty(vals: np.ndarray) -> float:
        """S = sum_i max{0, r_i} of row values ``vals``: the positive values
        added in index order, which is ``ndarray.sum``'s order below 8
        terms; from 8 up, ``ndarray.sum`` itself, whose pairwise order
        differs.  Not the built-in ``sum``, which Python 3.12 made
        compensated."""
        s = 0.0
        count = 0
        for v in vals.tolist():
            if v > 0.0:
                s += v
                count += 1
        return float(vals[vals > 0.0].sum()) if count >= 8 else s


# ---------------------------------------------------------------------------
# Minimum-norm selection
# ---------------------------------------------------------------------------

LAM_CAP = 1e8


def _min_norm_combo(obj_gens: list, c_gain: float, g_plus: np.ndarray,
                    act_gens: list, labels: Sequence = (), hint=None):
    """(velocity, mu, hint): the velocity of least norm, -(g_plus + c*sum
    mu_j G_j + sum lam_i A_i), over mu in the unit simplex and lam in
    [0, LAM_CAP]^k, the generator weights mu that give it, and the hint
    for the next call.  Closed forms for one generator and at most one
    row; for two generators and no row: with a = g_plus + c*G_1 and b = g_plus + c*G_2 the least-norm
    point of the segment [b, a] is b + mu*(a - b), mu = clip(-b.(a - b) /
    |a - b|^2, 0, 1), the flow's velocity at a two-branch kink of a max
    objective; and for at most one generator and two rows, a flow sliding
    into a corner of two constraints (``_two_row_velocity``).  Anything
    else, and a two-row selection that needs a weight above LAM_CAP, goes
    to ``_active_set_weights``.  The row weights form a cone rather than
    a box: a curved constraint with a tiny gradient needs a large
    multiplier to certify stationarity.
    ``labels`` name the generators and then the rows; ``hint`` is a set of
    labels, the support an earlier active-set solve ended with, which
    warm-starts this one.  The returned hint is the support of this
    call's active-set solve, as labels (None when a weight sits at
    LAM_CAP, which the warm start does not reproduce), or ``hint`` itself
    when a closed form answered."""
    nobj = len(obj_gens)
    k = len(act_gens)
    if nobj <= 1 and k == 0:
        g = g_plus + (c_gain * obj_gens[0] if nobj else 0.0)
        return -g, (1.0,) * nobj, hint
    if nobj <= 1 and k == 1:
        g = g_plus + (c_gain * obj_gens[0] if nobj else 0.0)
        a = act_gens[0]
        den = float(a.dot(a))
        lam = (min(LAM_CAP, max(0.0, -float(g.dot(a)) / den)) if den > 0.0
               else 0.0)
        return -(g + lam * a), (1.0,) * nobj, hint
    if nobj == 2 and k == 0:
        a = g_plus + c_gain * obj_gens[0]
        b = g_plus + c_gain * obj_gens[1]
        d = a - b
        den = float(d.dot(d))
        mu = min(1.0, max(0.0, -float(b.dot(d)) / den)) if den > 0.0 else 0.0
        return -(b + mu * d), (mu, 1.0 - mu), hint
    if nobj <= 1 and k == 2:
        vel = _two_row_velocity(
            g_plus + (c_gain * obj_gens[0] if nobj else 0.0), *act_gens)
        if vel is not None:
            return vel, (1.0,) * nobj, hint
    M = np.array([c_gain * g for g in obj_gens] + list(act_gens))
    warm = None if hint is None else np.array([lb in hint for lb in labels],
                                              dtype=bool)
    z = _active_set_weights(M, g_plus, nobj, warm)
    hint = None
    if len(labels) and not (z >= LAM_CAP).any():
        hint = frozenset(lb for lb, w in zip(labels, z.tolist()) if w > 0.0)
    return -(g_plus + M.T.dot(z)), z[:nobj], hint


def _two_row_velocity(g: np.ndarray, a1: np.ndarray, a2: np.ndarray):
    """-(g + lam_1 a_1 + lam_2 a_2) of least norm over lam >= 0, or None
    when that needs a weight above LAM_CAP.  When the rows are not parallel
    (sin^2 of their angle, det P / (p_11 p_22) for their Gram matrix P,
    above 1e-16) and the stationary point has lam >= 0, that point;
    it is solved by Gram-Schmidt, a_2 less its part along a_1, whose error
    grows as 1/sin of the angle where the normal equations' grows as
    1/sin^2.  Else the better face, lam = (max(0, -q_1/p_11), 0) or
    (0, max(0, -q_2/p_22)) with q = (a_1.g, a_2.g), which covers lam = 0
    and is exact for parallel and antiparallel rows."""
    p11 = float(a1.dot(a1))
    p22 = float(a2.dot(a2))
    q1 = float(a1.dot(g))
    q2 = float(a2.dot(g))
    if p11 > 0.0 and p22 > 0.0:
        p12 = float(a1.dot(a2))
        w = a2 - (p12 / p11) * a1
        ww = float(w.dot(w))
        if ww > 1e-16 * p22:
            lam2 = -float(w.dot(g)) / ww
            lam1 = -(q1 + lam2 * p12) / p11
            if lam1 >= 0.0 and lam2 >= 0.0:
                if lam1 > LAM_CAP or lam2 > LAM_CAP:
                    return None
                return -(g + lam1 * a1 + lam2 * a2)
    # a face lowers |v|^2 by q_i^2 / p_ii when q_i < 0; one whose p_ii
    # underflows to 0 gives no gain
    gain1 = q1 * q1 / p11 if q1 < 0.0 and p11 > 0.0 else 0.0
    gain2 = q2 * q2 / p22 if q2 < 0.0 and p22 > 0.0 else 0.0
    if gain1 == 0.0 and gain2 == 0.0:
        return -g
    lam, a = (-q1 / p11, a1) if gain1 >= gain2 else (-q2 / p22, a2)
    return None if lam > LAM_CAP else -(g + lam * a)


def _active_set_weights(M: np.ndarray, g_plus: np.ndarray, nobj: int,
                        hint: Optional[np.ndarray] = None) -> np.ndarray:
    """argmin ||g_plus + M^T z|| over z = (mu, lam): mu, the weights of the
    first ``nobj`` rows, in the unit simplex, and 0 <= lam <= LAM_CAP.
    Lawson-Hanson NNLS with the simplex equality kept exactly: start at the
    best simplex vertex, free the coordinate whose reduced gradient is most
    negative, re-solve the least squares on the free set, and step back to
    the boundary (fixing the coordinate that reaches it) while a free weight
    leaves its bounds.  Finite; a weight that reaches LAM_CAP stays there.
    The result is the start, or the least squares on the final free set.
    A ``hint``, a mask of the free set an earlier solve ended with, is
    tried first (a candidate that frees no simplex weight is passed over):
    the start when it is the start's free set, else the least squares on it
    with no weight capped, kept when every free weight lies in (0, LAM_CAP)
    and the loop's own stopping test holds on the rest.  A hint that fails
    is tried once more with one edit: less its free weights that are not
    positive, or, when they all are and only the stopping test failed, with
    the coordinate of least reduced gradient freed as well.
    A kept candidate is the loop's result whenever the loop would end on
    that free set, the same call on the same inputs.  Where the optimal
    weights are not unique, which happens only where the velocity is about
    0, another free set can pass the same test, and its weights differ from
    the loop's while its velocity differs only by rounding.  When neither
    candidate is kept the loop runs from its start, as without a hint."""
    d = len(M)
    start = np.zeros(d, dtype=bool)
    if nobj == 1:
        start[0] = True
    elif nobj:
        G = g_plus + M[:nobj]
        start[int(np.argmin(np.sqrt((G * G).sum(axis=1))))] = True
    # the largest row norm is the root of the largest squared norm
    scale = max(_norm(g_plus), math.sqrt(float((M * M).sum(axis=1).max())))
    tol = 1e-12 * scale * scale
    if hint is not None:
        none_capped = np.zeros(d, dtype=bool)
        for _ in range(2):
            if nobj and not hint[:nobj].any():
                break
            if np.array_equal(hint, start):
                w = start.astype(float)
            else:
                w = _free_least_squares(M, g_plus, nobj, hint, none_capped)
            positive = hint & (w > 0.0)
            if not np.array_equal(positive, hint):
                hint = positive
                continue
            if (w[hint] >= LAM_CAP).any():
                break
            t, grad_t = _least_reduced_gradient(M, g_plus, nobj, w, hint,
                                                hint)
            if grad_t >= -tol:
                return w
            hint = hint.copy()
            hint[t] = True
    z = start.astype(float)
    free = start
    capped = np.zeros(d, dtype=bool)
    # entries the least squares undid at the current z: round-off, the
    # column lies in the span of the free ones
    refused = np.zeros(d, dtype=bool)
    for _ in range(3 * d):
        t, grad_t = _least_reduced_gradient(M, g_plus, nobj, z, free,
                                            free | capped | refused)
        if grad_t >= -tol:
            break
        free[t] = True
        w = _free_least_squares(M, g_plus, nobj, free, capped)
        if w[t] <= 0.0:
            free[t], refused[t] = False, True
            continue
        refused[:] = False
        while True:
            low, high = free & (w <= 0.0), free & (w >= LAM_CAP)
            if not (low | high).any():
                break
            ratio = np.full(d, np.inf)
            ratio[low] = z[low] / (z[low] - w[low])
            ratio[high] = (LAM_CAP - z[high]) / (w[high] - z[high])
            i = int(np.argmin(ratio))
            z = z + ratio[i] * (w - z)
            capped[i] = high[i]
            out = free & (z <= 0.0)
            out[i] = True
            free[out], z[out] = False, 0.0
            z[capped] = LAM_CAP
            w = _free_least_squares(M, g_plus, nobj, free, capped)
        z = w
    return z


def _least_reduced_gradient(M: np.ndarray, g_plus: np.ndarray, nobj: int,
                            z: np.ndarray, free: np.ndarray,
                            skip: np.ndarray):
    """(t, gradient): the coordinate outside ``skip`` whose reduced gradient
    at z is least, and that gradient, inf when every coordinate is skipped.
    The simplex weights' gradient is taken less the simplex multiplier, the
    mean over the free ones; with one simplex weight that entry is free and
    skipped, and the subtraction is left out."""
    grad = M.dot(g_plus + M.T.dot(z))
    if nobj > 1:
        used = grad[:nobj][free[:nobj]]
        # ndarray.mean's own arithmetic: the sum over the count
        grad[:nobj] -= used.sum() / len(used)
    grad[skip] = np.inf
    t = int(np.argmin(grad))
    return t, grad[t]


def _free_least_squares(M: np.ndarray, g_plus: np.ndarray, nobj: int,
                        free: np.ndarray, capped: np.ndarray) -> np.ndarray:
    """Least squares over the free weights, the rest held at 0 or LAM_CAP;
    the free simplex weights, the first rows of M[free], sum to one through
    the KKT system."""
    w = np.where(capped, LAM_CAP, 0.0)
    r0 = g_plus + M.T.dot(w)
    Mf = M[free]
    nf = np.count_nonzero(free[:nobj])
    if nf:
        f = len(Mf)
        kkt = np.zeros((f + 1, f + 1))
        kkt[:f, :f] = 2.0 * Mf.dot(Mf.T)
        kkt[:nf, f] = kkt[f, :nf] = 1.0
        rhs = np.empty(f + 1)
        rhs[:f] = -2.0 * Mf.dot(r0)
        rhs[f] = 1.0
        w[free] = _lstsq(kkt, rhs)[:-1]
    elif len(Mf):
        w[free] = _lstsq(Mf.T, -r0)
    return w


_EPS = float(np.finfo(float).eps)


def _lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.lstsq(a, b, rcond=None)[0]`` bit for bit, for a 2-D a
    with at least one row and a 1-D b: the same LAPACK solve, with numpy's
    default cutoff eps * max(m, n) passed in and b as one column.
    ``np.linalg.lstsq`` is looked up at each call, so that a patched one
    sees every solve."""
    m, n = a.shape
    return np.linalg.lstsq(a, b[:, None], rcond=_EPS * max(m, n))[0][:, 0]


def band_members(pairs, band: float):
    """(top, [j, ...]) of (value, gradient) branch pairs: branch j is in the
    band when ``top - f_j <= band * max(1, |grad f_j|)``.  The band is a
    distance in x, as for the constraint rows, so a steep branch joins the
    balance as close to its kink as a flat one."""
    top = max(v for v, _ in pairs)
    return top, [j for j, (v, g) in enumerate(pairs)
                 if top - v <= band * max(1.0, _norm(g))]


def _objective_generators(objective, x, band: float):
    """(value, [generator, ...], [branch, ...]) at x: the gradients of the
    objective's branches within ``band_members``'s band, listed by their
    indices."""
    pairs = objective.branch_pairs(x)
    if len(pairs) == 1:
        v, g = pairs[0]
        return v, [g], [0]
    top, members = band_members(pairs, band)
    return top, [pairs[j][1] for j in members], members


def _kink_step(objective, kink: list, x: np.ndarray) -> np.ndarray:
    """Minimum-norm Gauss-Newton step from x onto {r_a = r_b = ...} for
    the branches ``kink`` of ``objective``, evaluated once at x: the one
    difference row of a two-branch kink in closed form, the k - 1 rows of
    a k-way kink by least squares.  Two branches with identical gradients
    have no kink to land on, and x is returned as it is."""
    pairs = objective.branch_pairs(x)
    ra, ga = pairs[kink[0]]
    if len(kink) == 2:
        rb, gb = pairs[kink[1]]
        d = ga - gb
        den = float(d.dot(d))
        return x - ((ra - rb) / den) * d if den > 0.0 else x
    D = np.array([pairs[j][1] - ga for j in kink[1:]])
    e = np.array([pairs[j][0] - ra for j in kink[1:]])
    return x - _lstsq(D, e)


# ---------------------------------------------------------------------------
# Flows
# ---------------------------------------------------------------------------

def _selected_velocity(stack: RowSet, norms: np.ndarray, objective, x,
                       vals: np.ndarray, band_scale: float, hint=None):
    """Returns (velocity, r_value, outside, kink, hint) at x, whose row
    values are ``vals``, with the flow's gradient-norm estimates ``norms``.
    kink lists the objective branches that carry weight in the selection
    when two or more do, else it is None (always outside the feasible
    set, where the objective takes no part).  ``hint`` is the flow's
    warm start for the selection QP (see ``_min_norm_combo``), labelled
    by position-free keys: ~j for objective branch j, i for row i; the
    hint for the next selection is returned."""
    g_plus = np.zeros(stack.n)
    act_gens = []
    act_rows = []
    any_plus = False
    prod_gain = 1.0
    bands = np.maximum(ZERO_BAND, band_scale * norms)
    # rows below their band contribute nothing
    for i in (vals >= -bands).nonzero()[0].tolist():
        band = bands[i]
        v = vals[i]
        if v > band:
            g_plus += stack.row_grad(i, x, norms)
            any_plus = True
        else:
            g = stack.row_grad(i, x, norms)
            band = max(ZERO_BAND, band_scale * norms[i])
            act_gens.append(g)
            act_rows.append(i)
            # smoothed Psi on the band: 0.5 at the boundary itself
            prod_gain *= 1.0 - min(1.0, max(0.0, 0.5 + v / (2.0 * band)))
    kink = None
    c_gain = 0.0 if any_plus else prod_gain
    r_val, obj_gens, members = _objective_generators(objective, x, band_scale)
    if c_gain == 0.0:
        vel, _, hint = _min_norm_combo([], 0.0, g_plus, act_gens, act_rows,
                                       hint)
    else:
        vel, mu, hint = _min_norm_combo(obj_gens, c_gain, g_plus, act_gens,
                                        [~j for j in members] + act_rows,
                                        hint)
        if len(members) >= 2:
            # a branch the selection gives no weight is leaving the kink
            kink = [j for j, w in zip(members, mu) if w > 0.0]
            if len(kink) < 2:
                kink = None
    return vel, r_val, any_plus, kink, hint


def solve_flow(objective, rows: RowSet, x0,
               trace: Optional[TraceRecorder] = None) -> FlowResult:
    """Integrate the inclusion from ``x0`` until stationarity, divergence or
    the step budget ``MAX_STEPS`` runs out.  Each point is evaluated once:
    the row values of the current x and their S come from the start check,
    then from the accepted trial or the polish.  Every step selects at the
    base band CERT_BAND; a step whose 31 halvings all fail ends the flow.
    The terminal certification is the one place that tests 1x, 10x and
    100x the band, and at 1x it reuses the last step's selection when x,
    its row values and the norms have not moved since.  The selection QP
    of each step is warm-started from the support the flow's last one
    ended with.  ``trace``, when given, records every step."""
    x = np.asarray(x0, dtype=float).copy()
    norms = rows.norm_estimates()
    flow_id = trace.next_flow() if trace else 0

    vals = rows.values(x)
    s_cur = rows.total_penalty(vals)

    dt = DT
    # arc length, for the trace only
    t = 0.0
    hint = None
    # (x, row values, norms on entry, selection) of the last step
    last = None
    stalls = 0
    steps = 0
    for steps in range(1, MAX_STEPS + 1):
        entry_norms = norms.copy()
        selection = _selected_velocity(rows, norms, objective, x, vals,
                                       CERT_BAND, hint)
        last = (x, vals, entry_norms, selection)
        vel, r_val, outside, kink, hint = selection
        vnorm = _norm(vel)
        if trace:
            trace.record(flow_id, t, x, r_val, s_cur, vnorm)
        # a small velocity at an infeasible point is the band's gain and
        # the row cone cancelling, not stationarity
        if vnorm == 0.0 or (vnorm <= STATIONARITY_TOL
                            and s_cur <= FEASIBILITY_TOL):
            break
        # explicit Euler on the unit-speed reparameterization: the gain
        # product shrinks the velocity near active constraints without
        # changing the path, so each step moves x by its trial length
        direction = vel / vnorm
        trial = dt
        accepted = False
        # penalty descent governs only when some row exceeds its activity
        # band; within the band the flow slides and r-descent governs
        infeasible_phase = outside
        for _ in range(31):
            xn = x + trial * direction
            if (xn == x).all():
                # motion below float resolution: numeric stationarity
                break
            if kink is not None:
                # land on the kink the selection balanced, before the row
                # polish and the descent test (see the module docstring)
                xn = _kink_step(objective, kink, xn)
            vals_n = rows.values(xn)
            s_n = rows.total_penalty(vals_n)
            # Armijo margin: plain non-increase admits exact two-point cycles
            # across kinks where the objective is symmetric
            margin = 1e-4 * trial * vnorm
            if infeasible_phase:
                ok = s_n <= s_cur - margin + 1e-15
            else:
                # project the candidate back onto the boundary first: judging
                # descent on a point that will be pulled back afterwards
                # admits a limit cycle where the pullback undoes the decrease
                if s_n > ZERO_BAND:
                    xn, vals_n, s_n = _polish_feasibility(rows, norms, xn,
                                                          vals_n, s_n, vals)
                # monotone r and no escape beyond the boundary band, else the
                # flow limit-cycles across the boundary (r can decrease there)
                r_n = objective.value(xn)
                ok = r_n <= r_val - margin + 1e-15 * max(1.0, abs(r_val))
                if ok:
                    ok = not (vals_n > CERT_BAND * norms).any()
            if ok:
                accepted = True
                break
            trial *= 0.5
        if not accepted:
            # no step descends: the flow ends here, and the certification
            # below decides whether this point is stationary
            break
        # displacement equals trial (unit direction); a run of vanishing
        # accepted steps means numeric stagnation the margins cannot see
        if trial < 1e-12 * max(1.0, _norm(x)):
            stalls += 1
            if stalls >= 100:
                break
        else:
            stalls = 0
        x, vals, s_cur = xn, vals_n, s_n
        t += trial
        # adaptive step: grow on clean acceptance, follow the backtracked
        # scale otherwise
        if trial == dt:
            dt *= 2.0
        else:
            dt = trial * 4.0
        if _norm(x) > DIVERGENCE_RADIUS:
            return FlowResult(x, math.nan, s_cur, FlowStatus.DIVERGED,
                              steps, vnorm)

    x, vals, s_cur = _polish_feasibility(rows, norms, x, vals, s_cur)
    # certify at the base band, then at 10x and 100x it: at a degenerate
    # vertex a blocking row just outside the base band defeats every step,
    # and a wider band lets it join the balance
    vnorm = math.inf
    for factor in (1.0, 10.0, 100.0):
        if (factor == 1.0 and last is not None and last[0] is x
                and last[1] is vals and np.array_equal(last[2], norms)):
            selection = last[3]
        else:
            selection = _selected_velocity(rows, norms, objective, x, vals,
                                           CERT_BAND * factor, hint)
        vel, r_final, _, _, hint = selection
        vnorm = min(vnorm, _norm(vel))
        if vnorm <= STATIONARITY_TOL:
            break
    if vnorm <= STATIONARITY_TOL and s_cur <= FEASIBILITY_TOL:
        status = FlowStatus.CONVERGED
    else:
        status = FlowStatus.MAX_TIME
    return FlowResult(x, float(r_final), s_cur, status, steps, vnorm)


def _polish_feasibility(stack: RowSet, norms: np.ndarray, x: np.ndarray,
                        vals: np.ndarray, s: float,
                        origin: Optional[np.ndarray] = None):
    """Gauss-Newton descent on S until S <= ZERO_BAND, the level at which the
    trial loop of ``solve_flow`` calls it.  A looser target leaves a sliding
    flow parked at that target, where any tangent step that raises S by one
    ulp triggers a full normal pull whose cost in r Armijo then rejects.
    One violated row with gradient g takes the minimum-norm step
    (r_i - l) g / (g.g) in closed form, the step least squares gives; more
    rows, or one row the step pushed others through, are solved by least
    squares onto level 0.  l is 0, except for a nonlinear row when the row
    values ``origin`` of the trial's origin are given: then l is that row's
    level there, max(0, min(origin_i, ZERO_BAND / 2)).  A tangent step moves
    a curved row by a second-order amount, and pulling it back to its own
    level costs r only that much, where a pull to 0 from the top of the
    band costs r the band at every step; an affine row, moved only at first
    order, is pulled to 0.
    Takes the row values ``vals`` of x and their S, ``s``, and returns
    (point, its row values, their S); each point it tries is evaluated
    once, and its S computed once."""
    for _ in range(200):
        if s <= ZERO_BAND:
            break
        # Gauss-Newton on the violated rows: a summed-gradient step is
        # defeated when a nearly-tight row's gradient opposes the violated
        # one, so solve the linearized system jointly instead
        rows = (vals > 0.0).nonzero()[0].tolist()
        while True:
            if len(rows) == 1:
                i = rows[0]
                g = stack.row_grad(i, x, norms)
                gg = float(g.dot(g))
                if gg <= 1e-24:
                    return x, vals, s
                level = 0.0
                if origin is not None and i >= stack.na:
                    level = max(0.0, min(origin[i], 0.5 * ZERO_BAND))
                full = ((vals[i] - level) * g) / gg
            else:
                G = np.array([stack.row_grad(i, x, norms) for i in rows])
                if float((G * G).sum()) <= 1e-24:
                    return x, vals, s
                full = _lstsq(G, vals[rows])
            delta = full
            pushed = None
            for _ in range(8):
                xn = x - delta
                vals_n = stack.values(xn)
                s_n = stack.total_penalty(vals_n)
                if s_n < s:
                    break
                if pushed is None:
                    pushed = vals_n  # the values at x - full
                delta = 0.5 * delta
            else:
                # the step pushed through rows at their bound: hold those at
                # the bound as well and solve again
                grown = [i for i in (pushed > 0.0).nonzero()[0].tolist()
                         if i not in rows]
                if not grown:
                    return x, vals, s
                rows += grown
                continue
            break
        x, vals, s = xn, vals_n, s_n
    return x, vals, s


def find_feasible(rows: RowSet, x0) -> Optional[np.ndarray]:
    """Penalty-descent flow over ``rows``; returns a feasible point, or None
    when the descent stalls at positive penalty (infeasible system)."""
    x = np.asarray(x0, dtype=float).copy()
    vals = rows.values(x)
    s = rows.total_penalty(vals)
    for _ in range(MAX_STEPS):
        if s <= FEASIBILITY_TOL:
            return x
        g = np.zeros(rows.n)
        norm_sq = 0.0
        for i in (vals > ZERO_BAND).nonzero()[0].tolist():
            gi = rows.row_grad(i, x)
            g += gi
            norm_sq += float(gi.dot(gi))
        gnorm = _norm(g)
        if gnorm <= STATIONARITY_TOL:
            return None
        # Newton-like secant step toward S = 0, fall back to Euler + backtracking
        trial = min(max(DT, s / max(norm_sq, 1e-300)), 1e6)
        for _ in range(31):
            xn = x - trial * g
            vals_n = rows.values(xn)
            s_n = rows.total_penalty(vals_n)
            if s_n < s * (1.0 + 1e-12) + 1e-15 and s_n != s:
                break
            trial *= 0.5
        else:
            return None
        x, vals, s = xn, vals_n, s_n
        if _norm(x) > DIVERGENCE_RADIUS:
            raise FlowError("feasibility flow diverged")
    return x if s <= FEASIBILITY_TOL else None
