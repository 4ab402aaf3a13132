"""Co-proper vertex lists for inner copolyblock approximation.

A copolyblock is the union of the boxes [m, v] over a finite vertex set V
inside an outcome box [m, M]; it covers every weakly nondominated outcome,
so the least phi over V bounds the optimum from below.  V is a plain list
of vertices in the order they were made.  The solver shrinks the
approximation by a cutting-cone update: a vertex v is replaced by the p
points obtained by sliding one coordinate of v down to the frontier point w
found on the ray through v.  A vertex below another vertex, or equal to an
earlier one, adds nothing to the union and is pruned.  A vertex's record
is its MP solve, set when phi is evaluated there, whose flow gives the
vertex's bound, and ``x_parent``, the end point of its parent's ray flow
when that flow converged.  Both points lie in X, and the vertex's own ray
starts at whichever of them is nearer the frontier (``outcome.solve_ray``):
a child differs from its parent in one coordinate only, so its ray meets
the frontier near the weakly efficient point its parent's ray reached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .outcome import MpSolution

# Coordinates within COORD_TOL are equal.
COORD_TOL = 1e-9


@dataclass(eq=False)
class Vertex:
    z: np.ndarray
    mp: Optional[MpSolution] = None
    x_parent: Optional[np.ndarray] = None


def cut(V: list[Vertex], vertex: Vertex, w, x_ray=None) -> None:
    """Replace ``vertex`` in V by its p cutting-cone children z^i, where
    z^i equals v except coordinate i is lowered to w_i, appended in order
    of i; each child's ``x_parent`` is ``x_ray``, the end point of the
    vertex's converged ray flow, or None.  Every child is kept: which
    vertices the box's lower faces make redundant is the driver's one rule
    (``bnb._evaluate_pending``)."""
    w = np.asarray(w, dtype=float)
    if np.any(w > vertex.z + COORD_TOL):
        raise ValueError("cut point must satisfy w <= v componentwise")
    V.remove(vertex)
    for i in range(len(w)):
        z = vertex.z.copy()
        z[i] = w[i]
        V.append(Vertex(z, x_parent=x_ray))


def prune(V: list[Vertex]) -> None:
    """Drop from V, in place, the vertices that add nothing to the union:
    a vertex below another vertex (v <= v', v != v') and a vertex equal to
    an earlier one (each coordinate within ``COORD_TOL``).  The box [m, v]
    of a dropped vertex lies inside [m, v'], so the cover is kept.  An
    infeasible MP never reaches here: ``bnb`` drops its vertex at once.
    One test over all pairs: diff[i, k] = z_k - z_i."""
    if not V:
        return
    Z = np.array([v.z for v in V])
    diff = Z[None, :, :] - Z[:, None, :]
    above = (diff >= -COORD_TOL).all(axis=2)
    within = (diff <= COORD_TOL).all(axis=2)
    # of two equal vertices only the later one drops, and none for itself
    later = np.triu(np.ones((len(V), len(V)), dtype=bool))
    dropped = (above & ~(within & later)).any(axis=1)
    V[:] = [v for v, drop in zip(V, dropped) if not drop]


def select_min_phi(V: list[Vertex]):
    """First vertex of V with the least evaluated phi, and that value;
    raises on an empty list, which signals exhaustion upstream."""
    if not V:
        raise ValueError("empty vertex list")
    if any(v.mp is None for v in V):
        raise ValueError("a vertex has no evaluated phi")
    best = min(V, key=lambda v: v.mp.phi)
    return best, float(best.mp.phi)
