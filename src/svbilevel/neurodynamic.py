"""Differential-inclusion flow for nonsmooth pseudoconvex programs.

Integrates  dx/dt in -c(x) dr(x)  over the feasible set with explicit
Euler and per-step backtracking (halve dt until the step lowers r by the
Armijo margin and leaves no row above its band).  A flow starts where its
caller says, at ``find_feasible``'s point (the one penalty descent) or
where an earlier flow ended, and a start with a row above its band is
polished once.  Inside a ``recording`` each flow appends a row per
selection, the trace ``cli --trace`` writes.  The right-hand side is a
selection from the Clarke sets: objective-generator and near-active
constraint weights are chosen by an exact minimum-norm rule (a closed form
or a finite active-set QP) so the discrete flow slides along boundaries
and nonsmooth valleys instead of chattering.  A selection is a function of
the point, its row values and the flow's row bands alone: it carries
nothing from one step to the next.  A step that sets no new least r
stalls.  A cycle whose r differs by rounding stalls at every step; the
stationary point of a two-point cycle lies between its points, so at the
100th stall the flow moves once to the midpoint of its last two points,
and a second run of 100 ends it.  The QPs, the polish
and the kink step take their products as ``ndarray.dot``, the BLAS calls
of ``@`` on the same operands with less dispatch, and their least squares
from ``_lstsq``: the LAPACK gufunc that ``np.linalg.lstsq`` wraps, called
with the wrapper's cutoff, so its bits are the wrapper's.  On these
systems of 2 to 15 entries the wrapper's checks and its ``errstate``
context cost more than the solve.  A result that is not finite raises
``LinAlgError``, as the wrapper does when the SVD fails; outside that
context an invalid value is first numpy's default RuntimeWarning.  While
``np.linalg.lstsq`` is replaced, as the benchmark's tracer and a test
replace it to count solves, ``_lstsq`` calls the replacement.
A sliding trial point whose S exceeds ZERO_BAND is pulled back
by a Gauss-Newton polish that lands at S <= ZERO_BAND.  A single violated
row, the usual case, is pulled back in closed form, and a curved row is
pulled back to its level at the trial's origin (capped at ZERO_BAND), so
the pull after a tangent step along it is second order in the step and
Armijo accepts full steps along curved rows; affine rows, which a tangent
step moves only at first order, and several violated rows are pulled to 0.
The S of each point is computed once, with its row values by
``RowSet.evaluate``, and carried with them.  Row values are a list of
Python floats, made into an array only where numpy computes with them
(the polish's least squares), so the tests that only choose a branch or
pick rows (the band escape, the row scans of the selection, the polish
and ``find_feasible``) compare floats and compute no float the flows use.
A flow carries each row's band, ``_band`` of its gradient-norm estimate,
which changes only where ``RowSet.row_grad`` takes that row's gradient.

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
of u, shifted by a constant.  A point's nonlinear rows and their
gradients are computed from one list of Python floats, each row its
expression's own generated code, a function of that list; its row values
are one list of floats, and S adds their positive values in index
order.  The flows amplify a one-ulp difference, so this arithmetic is
kept bit for bit that of the expressions.  Euler steps start at ``DT``,
and each step's first trial is twice the last accepted length.  A flow is
stationary where its velocity is at most ``STATIONARITY_TOL`` scaled by
max(1, the largest branch-gradient norm of the objective at the flow's
start): steep objectives, such as a ray objective divided by a small
direction component, round at that scale, and an absolute test cannot be
passed there.
Objectives are oracles with ``value(x)`` and ``branch_pairs(x)``, the
``(value, gradient)`` of each branch: one pair for a smooth objective,
one per branch for a max, among which the flow picks the branches within
the band itself (``band_members``).
"""

from __future__ import annotations

import contextlib
import enum
import functools
import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

ZERO_BAND = 1e-9

# Activity-band floor (in constraint-value units, scaled by gradient norms).
# Sets the spatial resolution at which boundary and objective-kink contact is
# recognized; matches the 1e-3 accuracy the flow promises on terminal points.
CERT_BAND = 1e-4

# A flow is stationary where its velocity is at most STATIONARITY_TOL times
# max(1, the largest branch-gradient norm of its objective at its start) at
# a point whose S is at most FEASIBILITY_TOL, the S find_feasible stops at;
# find_feasible's own stop on the gradient of S is absolute.
STATIONARITY_TOL = 1e-6
FEASIBILITY_TOL = 1e-7

# A flow whose point leaves this ball ends DIVERGED.
DIVERGENCE_RADIUS = 1e7

# solve_flow takes at most this many Euler steps, then selects once more at
# the point the last one reached; find_feasible gives up after this many
# descent steps.
MAX_STEPS = 200_000

# solve_flow's first Euler step (each later step first tries twice the last
# accepted length); find_feasible's least first trial of each descent step.
DT = 1e-2


class FlowStatus(enum.Enum):
    CONVERGED = "Converged"
    UNCONVERGED = "Unconverged"
    DIVERGED = "Diverged"


class FlowError(Exception):
    pass


@dataclass
class FlowResult:
    x_final: np.ndarray
    objective_value: float
    penalty_residual: float
    status: FlowStatus
    steps: int
    final_velocity_norm: float


# The rows of the open ``recording``; None outside one.
_recording: Optional[list] = None


@contextlib.contextmanager
def recording():
    """Yields a fresh list, to which every ``solve_flow`` run inside the
    block appends a row per selection: (flow, t, x, r, S, speed), with x a
    tuple of floats and t the arc length.  Flows never interleave, so a
    flow's number is the last row's plus 1, or 1.  On exit the recording
    open before, or none, is current again."""
    global _recording
    outer = _recording
    _recording = rows = []
    try:
        yield rows
    finally:
        _recording = outer


# ---------------------------------------------------------------------------
# Constraint rows
# ---------------------------------------------------------------------------

def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D float vector: ``np.linalg.norm``'s own
    arithmetic for this case, sqrt(v . v), without its dispatch."""
    return math.sqrt(v.dot(v))


# numpy's own lstsq, to tell when a caller has replaced it
_NUMPY_LSTSQ = np.linalg.lstsq
_EPS = float(np.finfo(float).eps)


def _lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The least-norm least-squares solution of a x = b, a a float matrix
    with at least one row and b a float vector: ``np.linalg.lstsq(a, b,
    rcond=None)[0]`` bit for bit, from the LAPACK gufunc that function
    wraps, called with the same cutoff and without the wrapper's checks
    and its ``errstate`` context.  A result that is not finite raises
    ``LinAlgError``, as the wrapper does when the SVD fails.  While
    ``np.linalg.lstsq`` is replaced (to count solves), the replacement is
    called instead."""
    if np.linalg.lstsq is not _NUMPY_LSTSQ:
        return np.linalg.lstsq(a, b, rcond=None)[0]
    m, n = a.shape
    x = _umath_linalg.lstsq(a, b[:, None], _EPS * max(m, n),
                            signature="ddd->ddid")[0][:, 0]
    if not all(map(math.isfinite, x.tolist())):
        raise np.linalg.LinAlgError(
            "SVD did not converge in Linear Least Squares")
    return x


def _positive_sum(vals: list) -> float:
    """S = sum_i max{0, r_i} of the row values ``vals``, a list of floats:
    the positive values added in index order.  Not the built-in ``sum``,
    which Python 3.12 made compensated.  A NaN value counts as violated:
    S is inf."""
    s = 0.0
    for v in vals:
        if not v <= 0.0:
            s += v
    return math.inf if s != s else s


class RowSet:
    """Constraint rows r_i(u) <= 0, evaluated together: an affine block
    A u + b, then the nonlinear rows.  A nonlinear row (expr, shift) is
    ``expr.value(w) - shift`` with w = (head, u), u behind ``head``, the
    one list of floats of the fixed columns (empty unless ``fix_head`` set
    them); expr is a max-free expression over the first ``expr.n_vars``
    columns of w.  ``labels`` name the rows in the order ``evaluate``
    returns their values.
    The nonlinear rows and their gradients are evaluated on w as one list
    of Python floats, each row by its expression's generated function,
    made on first use, so that a RowSet built and not evaluated generates
    no code; u is a float array, and the row values are a list of Python
    floats.  A RowSet holds no flow state, so one set serves any number of
    flows: a flow carries its rows' bands (``norm_estimates``), a new list
    per call.  The affine rows' bands depend on A alone: they are computed
    once per set, on first use, and a set that ``shifted`` makes from this
    one shares them."""

    def __init__(self, A: np.ndarray, b: np.ndarray, nonlinear=(), labels=(),
                 head=(), order=None):
        self.A = A
        self.b = b
        self.nonlinear = tuple(nonlinear)
        self.labels = tuple(labels)
        self.n = A.shape[1]
        self.na = len(b)
        self.size = self.na + len(self.nonlinear)
        self.head = list(head)
        self.order = order
        # (value function, shift) of each nonlinear row, made on first use
        self._value_fns = None
        # _band of each affine row's norm, made on first use; read only
        self._affine_bands = None

    @classmethod
    def of(cls, rows: Sequence, width: int) -> "RowSet":
        """Split ``rows`` into the affine block and the nonlinear rows, each
        in the given order; ``order`` holds the index in ``rows`` of each
        row, in row order.  A row is a tuple (row, label, shift), the row
        row(u) - shift <= 0, or a bare row, with label "" and shift 0.  A
        row is an ``AffineRow`` or a ``CompiledExpr`` over the first
        ``n_vars`` of the ``width`` columns; one whose ``affine``, a pair
        (coeffs, const), is not None joins the affine block with the
        constant const - shift.  A root max is not a row: it is one row per
        branch (see ``problem``), so it raises TypeError."""
        rows = [r if isinstance(r, tuple) else (r, "", 0.0) for r in rows]
        # a stable sort: the affine rows, then the nonlinear ones
        order = sorted(range(len(rows)),
                       key=lambda j: rows[j][0].affine is None)
        aff = [rows[j] for j in order if rows[j][0].affine is not None]
        nonlinear = [rows[j] for j in order[len(aff):]]
        for c, label, _ in nonlinear:
            if len(c.branches) != 1:
                raise TypeError(f"row {label!r} is a root max: pass one row "
                                "per branch")
        A = np.zeros((len(aff), width))
        for i, (c, _, _) in enumerate(aff):
            A[i, :len(c.affine[0])] = c.affine[0]
        b = np.array([float(c.affine[1]) - shift for c, _, shift in aff])
        return cls(A, b, [(c, shift) for c, _, shift in nonlinear],
                   [r[1] for r in aff + nonlinear], order=order)

    def fix_head(self, x) -> "RowSet":
        """The rows as functions of the columns after x, with the leading
        len(x) columns held at x."""
        h = len(x)
        return RowSet(self.A[:, h:], self.b + self.A[:, :h].dot(x),
                      self.nonlinear, self.labels,
                      self.head + np.asarray(x, dtype=float).tolist())

    def shifted(self, shifts: list) -> "RowSet":
        """The rows of a set ``of`` built, each shifted further by its entry
        of ``shifts``, a Python float per row of the list given to ``of``:
        an affine row's constant less it, a nonlinear row's shift plus it.
        From shifts of 0.0 each row is the one ``of`` builds with the
        shifts ``shifts``, bit for bit: (c - 0.0) - s is c - s and 0.0 + s
        is s (0.0 for -0.0).  Shares A, the labels, the expressions and the
        affine rows' bands with this set."""
        na, order = self.na, self.order
        b = self.b - np.array([shifts[j] for j in order[:na]], dtype=float)
        rows = RowSet(self.A, b,
                      [(c, shift + shifts[j]) for (c, shift), j
                       in zip(self.nonlinear, order[na:])],
                      self.labels, self.head)
        rows._affine_bands = self._bands_of_affine_rows()
        return rows

    def _bands_of_affine_rows(self) -> list:
        if self._affine_bands is None:
            norms = np.maximum(np.sqrt((self.A * self.A).sum(axis=1)), 1e-12)
            self._affine_bands = list(map(_band, norms.tolist()))
        return self._affine_bands

    def norm_estimates(self, u) -> list:
        """A flow's starting row bands at u, a new list: ``_band`` of each
        row's gradient-norm estimate (at least 1e-12), fixed for affine
        rows; a nonlinear row's is its gradient's norm at u, which
        ``row_grad`` updates as the flow moves."""
        bands = self._bands_of_affine_rows() + [0.0] * len(self.nonlinear)
        for i in range(self.na, self.size):
            self.row_grad(i, u, bands)
        return bands

    def evaluate(self, u):
        """(values, S) at u: the row values, a list of floats, and S =
        sum_i max{0, r_i} of them (``_positive_sum``)."""
        vals = (self.A.dot(u) + self.b).tolist() if self.na else []
        if self.nonlinear:
            rows = self._value_fns
            if rows is None:
                rows = self._value_fns = [(c.branch_values[0], shift)
                                          for c, shift in self.nonlinear]
            ws = self.head + u.tolist()
            vals += [fn(ws) - shift for fn, shift in rows]
        return vals, _positive_sum(vals)

    def row_grad(self, i: int, u, bands: Optional[list] = None
                 ) -> np.ndarray:
        """Gradient of row i at u.  A nonlinear row's band, at its
        gradient's norm, is recorded in ``bands``, the calling flow's."""
        if i < self.na:
            return self.A[i]
        c = self.nonlinear[i - self.na][0]
        ws = self.head + u.tolist()
        g = c.branch_values[0](ws, True)[1]
        if c.n_vars < len(ws):
            g = np.concatenate([g, np.zeros(len(ws) - c.n_vars)])
        if self.head:
            g = g[len(self.head):]
        if bands is not None:
            bands[i] = _band(max(_norm(g), 1e-12))
        return g


# ---------------------------------------------------------------------------
# Minimum-norm selection
# ---------------------------------------------------------------------------

LAM_CAP = 1e8


def _min_norm_combo(obj_gens: list, c_gain: float, act_gens: list):
    """(velocity, mu): the velocity of least norm, -(c*sum mu_j G_j +
    sum lam_i A_i), over mu in the unit simplex and lam in [0, LAM_CAP]^k,
    and the generator weights mu that give it.  ``obj_gens`` holds at least
    one generator.  Closed forms for one generator and at most one row; for
    two generators and no row: with a = c*G_1 and b = c*G_2 the least-norm
    point of the segment [b, a] is b + mu*(a - b), mu = clip(-b.(a - b) /
    |a - b|^2, 0, 1), the flow's velocity at a two-branch kink of a max
    objective; and for one generator and two rows, a flow sliding into a
    corner of two constraints (``_two_row_velocity``).  Anything else, and
    a two-row selection that needs a weight above LAM_CAP, goes to
    ``_active_set_weights``.  The row weights form a cone rather than a
    box: a curved constraint with a tiny gradient needs a large multiplier
    to certify stationarity."""
    nobj = len(obj_gens)
    k = len(act_gens)
    # 1.0 * g is g bit for bit, for every float: a gain of 1 takes no product
    if c_gain != 1.0:
        obj_gens = [c_gain * g for g in obj_gens]
    if nobj == 1 and k <= 1:
        g = obj_gens[0]
        if k:
            a = act_gens[0]
            den = float(a.dot(a))
            lam = (min(LAM_CAP, max(0.0, -float(g.dot(a)) / den))
                   if den > 0.0 else 0.0)
            g = g + lam * a
        return -g, (1.0,)
    if nobj == 2 and k == 0:
        a, b = obj_gens
        d = a - b
        den = float(d.dot(d))
        mu = min(1.0, max(0.0, -float(b.dot(d)) / den)) if den > 0.0 else 0.0
        return -(b + mu * d), (mu, 1.0 - mu)
    if nobj == 1 and k == 2:
        vel = _two_row_velocity(obj_gens[0], *act_gens)
        if vel is not None:
            return vel, (1.0,)
    M = np.array(list(obj_gens) + list(act_gens))
    z = _active_set_weights(M, nobj)
    return -M.T.dot(z), z[:nobj]


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


def _active_set_weights(M: np.ndarray, nobj: int) -> np.ndarray:
    """argmin ||M^T z|| over z = (mu, lam): mu, the weights of the first
    ``nobj`` rows (at least one), in the unit simplex, and 0 <= lam <=
    LAM_CAP.  Lawson-Hanson NNLS with the simplex equality kept exactly:
    start at the best simplex vertex, free the coordinate whose reduced
    gradient is most negative, re-solve the least squares on the free set,
    and step back to the boundary (fixing the coordinate that reaches it)
    while a free weight leaves its bounds.  Finite; a weight that reaches
    LAM_CAP stays there.  The result is the start, or the least squares on
    the final free set."""
    d = len(M)
    start = np.zeros(d, dtype=bool)
    if nobj == 1:
        start[0] = True
    else:
        G = M[:nobj]
        start[int(np.argmin(np.sqrt((G * G).sum(axis=1))))] = True
    # the largest row norm is the root of the largest squared norm
    scale = math.sqrt(float((M * M).sum(axis=1).max()))
    tol = 1e-12 * scale * scale
    z = start.astype(float)
    free = start
    capped = np.zeros(d, dtype=bool)
    # entries the least squares undid at the current z: round-off, the
    # column lies in the span of the free ones
    refused = np.zeros(d, dtype=bool)
    for _ in range(3 * d):
        t, grad_t = _least_reduced_gradient(M, nobj, z, free,
                                            free | capped | refused)
        if grad_t >= -tol:
            break
        free[t] = True
        w = _free_least_squares(M, nobj, free, capped)
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
            w = _free_least_squares(M, nobj, free, capped)
        z = w
    return z


def _least_reduced_gradient(M: np.ndarray, nobj: int, z: np.ndarray,
                            free: np.ndarray, skip: np.ndarray):
    """(t, gradient): the coordinate outside ``skip`` whose reduced gradient
    at z is least, and that gradient, inf when every coordinate is skipped.
    The simplex weights' gradient is taken less the simplex multiplier, the
    mean over the free ones; with one simplex weight that entry is free and
    skipped, and the subtraction is left out."""
    grad = M.dot(M.T.dot(z))
    if nobj > 1:
        used = grad[:nobj][free[:nobj]]
        # ndarray.mean's own arithmetic: the sum over the count
        grad[:nobj] -= used.sum() / len(used)
    grad[skip] = np.inf
    t = int(np.argmin(grad))
    return t, grad[t]


def _free_least_squares(M: np.ndarray, nobj: int, free: np.ndarray,
                        capped: np.ndarray) -> np.ndarray:
    """Least squares over the free weights, the rest held at 0 or LAM_CAP.
    The simplex weights sum to one, so at least one of them is free.  One
    free simplex weight is held at 1 by the KKT system of the normal
    equations, whose simplex row pins it.  Two or more, nf of them, sum to
    one by construction: they are 1/nf each plus Q y, Q an orthonormal
    basis of the directions whose entries sum to 0 (``_zero_sum_basis``,
    one QR for each nf), and y with the free row weights solves the least
    squares of M's columns in those coordinates.  The shift 1/nf is
    orthogonal to Q, so the least-norm y that ``_lstsq`` returns gives the
    least-norm weights, and tied generators share their weight evenly.
    There the KKT system put a Gram block of size c^2 beside the unit
    simplex row, and at a gain c of 1e-6 its weights came back off by
    2e-6.  The one-weight case keeps the KKT arithmetic: the flows amplify
    a one-ulp change of it, and the catalog's exact optima (example 6's
    among them) are reached with it."""
    w = np.where(capped, LAM_CAP, 0.0)
    r0 = M.T.dot(w)
    idx = np.flatnonzero(free)
    nf = np.count_nonzero(free[:nobj])
    if nf == 1:
        Mf = M[idx]
        f = len(Mf)
        kkt = np.zeros((f + 1, f + 1))
        kkt[:f, :f] = 2.0 * Mf.dot(Mf.T)
        kkt[0, f] = kkt[f, 0] = 1.0
        rhs = np.empty(f + 1)
        rhs[:f] = -2.0 * Mf.dot(r0)
        rhs[f] = 1.0
        w[idx] = _lstsq(kkt, rhs)[:-1]
    else:
        gens = idx[:nf]
        w[gens] = 1.0 / nf
        q = _zero_sum_basis(nf)
        cols = np.vstack([q.T.dot(M[gens]), M[idx[nf:]]])
        y = _lstsq(cols.T, -(r0 + M[gens].T.dot(w[gens])))
        w[gens] += q.dot(y[:nf - 1])
        w[idx[nf:]] = y[nf - 1:]
    return w


@functools.lru_cache(maxsize=None)
def _zero_sum_basis(nf: int) -> np.ndarray:
    """An orthonormal basis of the directions in R^nf whose entries sum to
    0: the complement of the all-ones column in its complete QR, computed
    once for each nf and read only."""
    q = np.linalg.qr(np.ones((nf, 1)), mode="complete")[0][:, 1:]
    q.flags.writeable = False
    return q


def band_members(pairs, band: float):
    """(top, [j, ...]) of (value, gradient) branch pairs: branch j is in the
    band when ``top - f_j <= band * max(1, |grad f_j|)``.  The band is a
    distance in x, as for the constraint rows, so a steep branch joins the
    balance as close to its kink as a flat one.  For a band > 0, as every
    caller passes, band * max(1, |g|) >= band for every g (max(1, nan) is
    1), so a branch within the band itself is a member without its norm."""
    top = max(v for v, _ in pairs)
    return top, [j for j, (v, g) in enumerate(pairs)
                 if top - v <= band or top - v <= band * max(1.0, _norm(g))]


def _objective_generators(objective, x, band: float, pairs=None):
    """(value, [generator, ...], [branch, ...]) at x: the gradients of the
    objective's branches within ``band_members``'s band, listed by their
    indices.  ``pairs`` are the objective's branch pairs at x when the
    caller has them."""
    if pairs is None:
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

def _band(norm: float) -> float:
    """The band of a row with gradient-norm estimate ``norm``, max(ZERO_BAND,
    CERT_BAND * norm) as np.maximum takes it: a NaN band stays NaN."""
    band = CERT_BAND * norm
    return ZERO_BAND if band < ZERO_BAND else band


def _escaped(vals: list, bands: list) -> bool:
    """Whether some row value in ``vals`` lies above its band in ``bands``,
    the flow's bands, in which the selection takes a row.  A NaN value
    counts as above its band."""
    return not all(map(operator.le, vals, bands))


def _selected_velocity(stack: RowSet, bands: list, objective, x,
                       vals: list, pairs=None):
    """Returns (velocity, r_value, kink) at x, whose row values are
    ``vals``, with the flow's row bands ``bands`` and the objective band
    CERT_BAND; ``pairs``, when given, are the objective's branch pairs at
    x.  Each row not below its band is active, and scales the
    objective's part by its smoothed gain, 0 from the top of the band up.
    kink lists the objective branches that carry weight in the selection
    when two or more do, else it is None."""
    act_gens = []
    c_gain = 1.0
    for i, (v, band) in enumerate(zip(vals, bands)):
        # rows below their band contribute nothing
        if not v >= -band:
            continue
        act_gens.append(stack.row_grad(i, x, bands))
        # the gain's band is the one row_grad just recorded
        band = bands[i]
        # smoothed Psi on the band: 0.5 at the boundary itself
        c_gain *= 1.0 - min(1.0, max(0.0, 0.5 + v / (2.0 * band)))
    r_val, obj_gens, members = _objective_generators(objective, x, CERT_BAND,
                                                     pairs)
    vel, mu = _min_norm_combo(obj_gens, c_gain, act_gens)
    kink = None
    if len(members) >= 2:
        # a branch the selection gives no weight is leaving the kink
        kink = [j for j, w in zip(members, mu) if w > 0.0]
        if len(kink) < 2:
            kink = None
    return vel, r_val, kink


def solve_flow(objective, rows: RowSet, x0) -> FlowResult:
    """Integrate the inclusion from ``x0`` until stationarity, divergence or
    the step budget ``MAX_STEPS`` runs out.  ``x0`` is the caller's: a ray
    flow starts at its vertex's MP minimizer, or at the end point of the
    parent vertex's converged ray flow when that point's ray objective is
    strictly lower (``outcome.solve_ray``).  Stationarity is relative to
    the objective's scale: a velocity of at most ``STATIONARITY_TOL`` times
    max(1, max_j |grad r_j(x0)|) over its branches at the start point,
    fixed for the flow, at a point whose S is at most ``FEASIBILITY_TOL``.
    The bands of the nonlinear rows start at their gradients' norms at
    ``x0``.  A start with a row above its band (``_escaped``) is
    polished once; one the polish cannot mend fails the certification
    at its first selection.  Each step's first trial is twice the last
    accepted length, ``DT`` at the first step; a trial is accepted when
    it lowers r by the Armijo margin and has no row above its band.  Each
    point is evaluated once: the row values of the current x and their S
    come from the start, then from the accepted trial or the polish.
    Every selection is made at the band CERT_BAND, and the flow is
    certified right after it and nowhere else: a stationary velocity at
    a point with no row above its band ends the flow ``Converged`` there.
    The first time 100 accepted steps in a row have stalled, the flow
    moves to the midpoint of its last two accepted points, polishes there
    when S > ZERO_BAND (so also when a row is above its band), and selects
    again.  Every other end leaves the flow ``Unconverged`` at the point
    last selected, with that selection's r and velocity: a zero velocity,
    a second run of 100 stalled steps or the selection after the
    ``MAX_STEPS``-th Euler step, each tested right after the selection, or
    31 failed halvings.  ``steps`` counts the selections.  An accepted step
    stalls when it is shorter than 1e-12 max(1, |x|) or sets no new least
    r.
    Inside a ``recording`` every selection appends a row to it.  A branch
    value or gradient norm at ``x0`` that is not finite raises FlowError."""
    x = np.asarray(x0, dtype=float).copy()
    # the first selection reads these pairs, unless the start is polished
    pairs = objective.branch_pairs(x)
    # a gradient above about 1e154 has an inf norm, which the test below
    # reports, without an overflow warning first
    with np.errstate(over="ignore"):
        bands = rows.norm_estimates(x)
        norms = [_norm(g) for _, g in pairs]
    # max(1.0, nan) is 1.0, so tol alone would hide a NaN
    if not all(map(math.isfinite, [v for v, _ in pairs] + norms)):
        raise FlowError(f"the objective is not finite at the start "
                        f"{tuple(x.tolist())}")
    tol = STATIONARITY_TOL * max(1.0, max(norms))
    record = _recording
    flow_id = record[-1][0] + 1 if record else 1

    vals, s_cur = rows.evaluate(x)
    if _escaped(vals, bands):
        x, vals, s_cur = _polish_feasibility(rows, bands, x, vals, s_cur)
        pairs = None
    xnorm = _norm(x)

    dt = DT
    # arc length, for the recording only
    t = 0.0
    r_least = math.inf
    stalls = 0
    # the point accepted before x, and whether the flow has moved to the
    # midpoint of a cycle
    x_prev = x
    cycled = False
    for steps in range(1, MAX_STEPS + 2):
        vel, r_val, kink = _selected_velocity(rows, bands, objective, x, vals,
                                              pairs)
        pairs = None
        vnorm = _norm(vel)
        if record is not None:
            record.append((flow_id, t, tuple(x.tolist()), r_val, s_cur,
                           vnorm))
        # a small velocity at an infeasible point, or with a row above its
        # band, is the band's gain and the row cone cancelling, not
        # stationarity
        if (vnorm <= tol and s_cur <= FEASIBILITY_TOL
                and not _escaped(vals, bands)):
            return FlowResult(x, float(r_val), s_cur, FlowStatus.CONVERGED,
                              steps, vnorm)
        if (vnorm == 0.0 or (stalls >= 100 and cycled)
                or steps > MAX_STEPS):
            break
        if stalls >= 100:
            # the stationary point of a two-point cycle lies between its
            # points: select once more at their midpoint, polished
            cycled = True
            stalls = 0
            x = 0.5 * (x_prev + x)
            x, vals, s_cur = _polish_feasibility(rows, bands, x,
                                                 *rows.evaluate(x))
            xnorm = _norm(x)
            continue
        # explicit Euler on the unit-speed reparameterization: the gain
        # product shrinks the velocity near active constraints without
        # changing the path, so each step moves x by its trial length
        direction = vel / vnorm
        trial = dt
        accepted = False
        x_floats = x.tolist()
        for _ in range(31):
            xn = x + trial * direction
            if xn.tolist() == x_floats:
                # motion below float resolution: numeric stationarity
                break
            if kink is not None:
                # land on the kink the selection balanced, before the row
                # polish and the descent test (see the module docstring)
                xn = _kink_step(objective, kink, xn)
            vals_n, s_n = rows.evaluate(xn)
            # project the candidate back onto the boundary first: judging
            # descent on a point that will be pulled back afterwards admits
            # a limit cycle where the pullback undoes the decrease
            if s_n > ZERO_BAND:
                xn, vals_n, s_n = _polish_feasibility(rows, bands, xn,
                                                      vals_n, s_n, vals)
            # Armijo margin: plain non-increase admits exact two-point cycles
            # across kinks where the objective is symmetric; and no escape
            # beyond the band, else the flow limit-cycles across the
            # boundary (r can decrease there)
            r_n = objective.value(xn)
            if (r_n <= r_val - 1e-4 * trial * vnorm
                    + 1e-15 * max(1.0, abs(r_val))
                    and not _escaped(vals_n, bands)):
                accepted = True
                break
            trial *= 0.5
        if not accepted:
            # no step descends: the flow ends at the point just selected
            break
        # displacement equals trial (unit direction); a run of vanishing
        # steps, or of steps that set no new least r (a cycle the margin's
        # slack admits), is numeric stagnation
        if trial < 1e-12 * max(1.0, xnorm) or not r_n < r_least:
            stalls += 1
        else:
            stalls = 0
        r_least = min(r_least, r_n)
        x_prev = x
        x, vals, s_cur = xn, vals_n, s_n
        xnorm = _norm(x)
        t += trial
        # the next step first tries twice this accepted length: one doubling
        # past a clean step, and after a backtracked one the last length
        # that failed, so a step accepted after two halvings costs the next
        # one halving, not the same two again
        dt = 2.0 * trial
        if xnorm > DIVERGENCE_RADIUS:
            return FlowResult(x, math.nan, s_cur, FlowStatus.DIVERGED,
                              steps, vnorm)

    return FlowResult(x, float(r_val), s_cur, FlowStatus.UNCONVERGED, steps,
                      vnorm)


def _polish_feasibility(stack: RowSet, bands: list, x: np.ndarray,
                        vals: list, s: float, origin: Optional[list] = None):
    """Gauss-Newton descent on S until S <= ZERO_BAND, the level at which the
    trial loop of ``solve_flow`` calls it.  A looser target leaves a sliding
    flow parked at that target, where any tangent step that raises S by one
    ulp triggers a full normal pull whose cost in r Armijo then rejects.
    One violated row with gradient g takes the minimum-norm step
    (r_i - l) g / (g.g) in closed form, the step least squares gives; more
    rows, or one row the step pushed others through, are solved by least
    squares onto level 0.  l is 0, except for a nonlinear row when the row
    values ``origin`` of the trial's origin are given: then l is that row's
    level there, max(0, min(origin_i, ZERO_BAND)).  A tangent step moves
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
        rows = [i for i, v in enumerate(vals) if v > 0.0]
        while True:
            if len(rows) == 1:
                i = rows[0]
                g = stack.row_grad(i, x, bands)
                gg = float(g.dot(g))
                if gg <= 1e-24:
                    return x, vals, s
                level = 0.0
                if origin is not None and i >= stack.na:
                    level = max(0.0, min(origin[i], ZERO_BAND))
                full = ((vals[i] - level) * g) / gg
            else:
                G = np.array([stack.row_grad(i, x, bands) for i in rows])
                if float((G * G).sum()) <= 1e-24:
                    return x, vals, s
                full = _lstsq(G, np.array([vals[i] for i in rows]))
            delta = full
            pushed = None
            for _ in range(8):
                xn = x - delta
                vals_n, s_n = stack.evaluate(xn)
                if s_n < s:
                    break
                if pushed is None:
                    pushed = vals_n  # the values at x - full
                delta = 0.5 * delta
            else:
                # the step pushed through rows at their bound: hold those at
                # the bound as well and solve again
                grown = [i for i, v in enumerate(pushed)
                         if v > 0.0 and i not in rows]
                if not grown:
                    return x, vals, s
                rows += grown
                continue
            break
        x, vals, s = xn, vals_n, s_n
    return x, vals, s


def find_feasible(rows: RowSet, x0) -> Optional[np.ndarray]:
    """Penalty-descent flow over ``rows``; returns a point whose S is at
    most ``FEASIBILITY_TOL``, or None when the descent stalls at positive
    penalty.  None does not prove the rows empty: the summed-gradient step
    can stall at a point that is not stationary for S, and on example 1 at
    epsilon 1e-5 it does at three feasible MP(z) (ROADMAP item 11,
    ``tests/test_outcome.py::TestFalseInfeasibleVertices``).  A start
    with a row, or S, not finite raises FlowError naming the first such
    row (the largest if S overflows), with its label if it has one."""
    x = np.asarray(x0, dtype=float).copy()
    vals, s = rows.evaluate(x)
    if not (math.isfinite(s) and all(map(math.isfinite, vals))):
        bad = [i for i, v in enumerate(vals) if not math.isfinite(v)]
        i = bad[0] if bad else vals.index(max(vals))
        label = rows.labels[i] if rows.labels else ""
        name = f"row {i} {label!r}" if label else f"row {i}"
        raise FlowError(f"{name} is {vals[i]} at the start "
                        f"{tuple(x.tolist())}")
    for _ in range(MAX_STEPS):
        if s <= FEASIBILITY_TOL:
            return x
        g = np.zeros(rows.n)
        norm_sq = 0.0
        for i, v in enumerate(vals):
            if v > ZERO_BAND:
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
            vals_n, s_n = rows.evaluate(xn)
            if s_n < s * (1.0 + 1e-12) + 1e-15 and s_n != s:
                break
            trial *= 0.5
        else:
            return None
        x, vals, s = xn, vals_n, s_n
        if _norm(x) > DIVERGENCE_RADIUS:
            raise FlowError("feasibility flow diverged")
    return x if s <= FEASIBILITY_TOL else None
