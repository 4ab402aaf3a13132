"""Co-proper vertex sets for inner copolyblock approximation.

A copolyblock is the union of the boxes [m, v] over a finite vertex set V
inside an outcome box [m, M]; it covers every weakly nondominated outcome,
so the least phi over V bounds the optimum from below.  The solver shrinks
the approximation by a cutting-cone update: a vertex v is replaced by the p
points obtained by sliding one coordinate of v down to the frontier point w
found on the ray through v.  A vertex below another vertex adds nothing to
the union and is pruned.  A vertex's one record is its MP solution, set
when phi is evaluated there: its bound, and the start of its ray.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .outcome import MpSolution

COORD_TOL = 1e-9


@dataclass(eq=False)
class Vertex:
    z: np.ndarray
    id: int
    mp: Optional[MpSolution] = None


class VertexSet:
    """Ordered collection of co-proper vertices with deterministic ids
    above the lower corner m of the outcome box."""

    def __init__(self, m):
        self.m = m
        self.vertices: list[Vertex] = []
        self._next_id = 0

    def __len__(self):
        return len(self.vertices)

    def add(self, z) -> Optional[Vertex]:
        """Insert a vertex unless an equal one (per-coordinate 1e-9) exists;
        returns the new vertex or None on duplicate."""
        z = np.asarray(z, dtype=float).copy()
        for v in self.vertices:
            if np.all(np.abs(v.z - z) <= COORD_TOL):
                return None
        vert = Vertex(z=z, id=self._next_id)
        self._next_id += 1
        self.vertices.append(vert)
        return vert

    def remove(self, vertex: Vertex) -> None:
        self.vertices.remove(vertex)

    def pending(self) -> list:
        return [v for v in self.vertices if v.mp is None]


def cut(vset: VertexSet, vertex: Vertex, w) -> VertexSet:
    """Replace ``vertex`` by its cutting-cone children z^i, where z^i equals
    v except coordinate i is lowered to w_i.  Children landing on the lower
    face z^i_i = m_i are filtered out: outcomes there are already covered by
    the initialization subproblems."""
    w = np.asarray(w, dtype=float)
    if vertex not in vset.vertices:
        raise ValueError("vertex not in set")
    if np.any(w > vertex.z + COORD_TOL):
        raise ValueError("cut point must satisfy w <= v componentwise")
    vset.remove(vertex)
    m = vset.m
    for i in range(len(w)):
        z = vertex.z.copy()
        z[i] = w[i]
        if abs(z[i] - m[i]) <= COORD_TOL:
            continue
        vset.add(z)
    return vset


def prune(vset: VertexSet) -> VertexSet:
    """Drop vertices that lie below another vertex (v <= v', v != v') and
    vertices whose MP turned out infeasible.  The box [m, v] of a dropped
    vertex lies inside [m, v'], so the cover is kept.  One dominance test
    over all pairs: diff[i, k] = z_k - z_i."""
    verts = vset.vertices
    if not verts:
        return vset
    Z = np.array([v.z for v in verts])
    diff = Z[None, :, :] - Z[:, None, :]
    # a vertex never dominates itself: its diff row is all zeros
    dominated = ((diff >= -COORD_TOL).all(axis=2)
                 & (diff > COORD_TOL).any(axis=2)).any(axis=1)
    vset.vertices = [v for v, dom in zip(verts, dominated)
                     if not dom and (v.mp is None or v.mp.feasible)]
    return vset


def select_min_phi(vset: VertexSet):
    """Vertex with the least evaluated phi (ties to the lowest id) and that
    value; raises on an empty set, which signals exhaustion upstream."""
    best = None
    for v in vset.vertices:
        if v.mp is None:
            raise ValueError(f"vertex {v.id} has no evaluated phi")
        if best is None or (v.mp.phi, v.id) < (best.mp.phi, best.id):
            best = v
    if best is None:
        raise ValueError("empty vertex set")
    return best, float(best.mp.phi)
