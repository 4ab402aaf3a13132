"""Co-proper vertex lists for inner copolyblock approximation.

A copolyblock is the union of the boxes [m, v] over a finite vertex set V
inside an outcome box [m, M]; it covers every weakly nondominated outcome,
so the least phi over V bounds the optimum from below.  V is a plain list
of vertices in the order they were made.  The solver shrinks the
approximation by a cutting-cone update: a vertex v is replaced by the p
points obtained by sliding one coordinate of v down to the frontier point w
found on the ray through v.  A vertex below another vertex, or equal to an
earlier one, adds nothing to the union and is pruned.  A vertex's one
record is its MP solve, set when phi is evaluated there: its flow gives
the vertex's bound, and its end point the start of its ray.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .outcome import MpSolution

# Coordinates within COORD_TOL are equal; an outcome within it of a lower
# face z_i = m_i is the face probes' to cover.
COORD_TOL = 1e-9


@dataclass(eq=False)
class Vertex:
    z: np.ndarray
    mp: Optional[MpSolution] = None


def cut(V: list[Vertex], vertex: Vertex, w, m) -> None:
    """Replace ``vertex`` in V by its cutting-cone children z^i, where z^i
    equals v except coordinate i is lowered to w_i, appended in order of i.
    Children landing on the lower face z^i_i = m_i are skipped: outcomes
    there are already covered by the initialization subproblems."""
    w = np.asarray(w, dtype=float)
    if np.any(w > vertex.z + COORD_TOL):
        raise ValueError("cut point must satisfy w <= v componentwise")
    V.remove(vertex)
    for i in range(len(w)):
        if abs(w[i] - m[i]) <= COORD_TOL:
            continue
        z = vertex.z.copy()
        z[i] = w[i]
        V.append(Vertex(z))


def prune(V: list[Vertex]) -> None:
    """Drop from V, in place, the vertices that add nothing to the union:
    a vertex below another vertex (v <= v', v != v'), a vertex equal to an
    earlier one (each coordinate within ``COORD_TOL``), and a vertex whose
    MP turned out infeasible.  The box [m, v] of a dropped vertex lies
    inside [m, v'], so the cover is kept.  One test over all pairs:
    diff[i, k] = z_k - z_i."""
    if not V:
        return
    Z = np.array([v.z for v in V])
    diff = Z[None, :, :] - Z[:, None, :]
    above = (diff >= -COORD_TOL).all(axis=2)
    within = (diff <= COORD_TOL).all(axis=2)
    # of two equal vertices only the later one drops, and none for itself
    later = np.triu(np.ones((len(V), len(V)), dtype=bool))
    dropped = (above & ~(within & later)).any(axis=1)
    V[:] = [v for v, drop in zip(V, dropped)
            if not drop and (v.mp is None or v.mp.feasible)]


def select_min_phi(V: list[Vertex]):
    """First vertex of V with the least evaluated phi, and that value;
    raises on an empty list, which signals exhaustion upstream."""
    if not V:
        raise ValueError("empty vertex list")
    if any(v.mp is None for v in V):
        raise ValueError("a vertex has no evaluated phi")
    best = min(V, key=lambda v: v.mp.phi)
    return best, float(best.mp.phi)
