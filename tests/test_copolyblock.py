import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svbilevel.copolyblock import (
    COORD_TOL, Vertex, VertexSet, cut, prune, select_min_phi,
)
from svbilevel.outcome import MpSolution


def evaluated(v, phi):
    """Record a feasible MP solution with value ``phi`` at vertex v."""
    v.mp = MpSolution(z=v.z, phi=phi, x=None, y=None, feasible=True)


def zs(vset):
    return sorted(tuple(v.z) for v in vset.vertices)


class TestVertexSet:
    def test_ids_are_monotone(self):
        vs = VertexSet([0, 0])
        a = vs.add([1.0, 1.0])
        b = vs.add([0.5, 1.0])
        assert (a.id, b.id) == (0, 1)

    def test_duplicate_suppressed(self):
        vs = VertexSet([0, 0])
        vs.add([0.5, 0.5])
        assert vs.add([0.5, 0.5 + 1e-10]) is None
        assert len(vs) == 1

    def test_pending_tracks_phi(self):
        vs = VertexSet([0, 0])
        a = vs.add([1.0, 1.0])
        vs.add([0.5, 1.0])
        evaluated(a, 2.0)
        assert [v.id for v in vs.pending()] == [1]


class TestCut:
    def test_two_children(self):
        vs = VertexSet([0, 0])
        v = vs.add([1.0, 1.0])
        cut(vs, v, [0.3, 0.4])
        assert zs(vs) == [(0.3, 1.0), (1.0, 0.4)]

    def test_lower_face_child_filtered(self):
        vs = VertexSet([0, 0])
        v = vs.add([1.0, 1.0])
        cut(vs, v, [0.0, 0.4])
        assert zs(vs) == [(1.0, 0.4)]

    def test_three_dimensional_children(self):
        vs = VertexSet([0, 0, 0])
        v = vs.add([1.0, 1.0, 1.0])
        cut(vs, v, [0.5, 0.5, 0.5])
        assert len(vs) == 3
        for child in vs.vertices:
            diffs = np.isclose(child.z, [1, 1, 1])
            assert diffs.sum() == 2

    def test_children_nest_below_parent(self):
        vs = VertexSet([0, 0])
        v = vs.add([1.5, 1.8])
        parent = v.z.copy()
        cut(vs, v, [0.6, 0.9])
        for child in vs.vertices:
            assert np.all(child.z <= parent + 1e-12)
            assert np.sum(~np.isclose(child.z, parent)) == 1

    def test_cardinality_bound(self):
        vs = VertexSet([0, 0])
        v = vs.add([1.0, 1.0])
        vs.add([0.9, 0.2])
        before = len(vs)
        cut(vs, v, [0.3, 0.4])
        assert len(vs) <= before - 1 + 2

    def test_vertex_not_in_set(self):
        vs = VertexSet([0, 0])
        v = vs.add([1.0, 1.0])
        other = VertexSet([0, 0])
        w = other.add([1.0, 1.0])
        with pytest.raises(ValueError):
            cut(vs, w, [0.3, 0.4])

    def test_w_above_v_rejected(self):
        vs = VertexSet([0, 0])
        v = vs.add([0.5, 0.5])
        with pytest.raises(ValueError):
            cut(vs, v, [0.6, 0.4])


class TestPrune:
    def test_dominated_removed(self):
        vs = VertexSet([0, 0])
        vs.add([1.0, 1.0])
        vs.add([0.5, 0.5])
        prune(vs)
        # [m, (0.5, 0.5)] lies inside [m, (1, 1)]
        assert zs(vs) == [(1.0, 1.0)]

    def test_incomparable_unchanged(self):
        vs = VertexSet([0, 0])
        vs.add([1.0, 0.2])
        vs.add([0.2, 1.0])
        prune(vs)
        assert len(vs) == 2

    def test_common_lower_bound_dropped(self):
        vs = VertexSet([0, 0])
        vs.add([1.0, 2.0])
        vs.add([2.0, 1.0])
        vs.add([1.0, 1.0])
        prune(vs)
        assert zs(vs) == [(1.0, 2.0), (2.0, 1.0)]

    def test_infeasible_mp_removed(self):
        vs = VertexSet([0, 0])
        a = vs.add([1.0, 0.2])
        vs.add([0.2, 1.0])
        a.mp = MpSolution(z=a.z, phi=float("inf"), x=None, y=None,
                          feasible=False)
        prune(vs)
        assert zs(vs) == [(0.2, 1.0)]

    def test_idempotent(self):
        vs = VertexSet([0, 0])
        for z in ([1, 2], [2, 1], [1, 1], [0.5, 2.5]):
            vs.add(z)
        prune(vs)
        once = zs(vs)
        prune(vs)
        assert zs(vs) == once


def _pairwise_prune(verts):
    """Survivors of ``prune`` by the pairwise loop it replaced."""
    keep = []
    for v in verts:
        if v.mp is not None and not v.mp.feasible:
            continue
        dominated = False
        for u in verts:
            if u is v:
                continue
            diff = u.z - v.z
            if np.all(diff >= -COORD_TOL) and np.any(diff > COORD_TOL):
                dominated = True
                break
        if not dominated:
            keep.append(v)
    return keep


# coordinates 0.5e-9, exactly 1e-9 and 2e-9 apart, plus far ones; 1e-9 - 0
# and 0 - 1e-9 are exact, so the tolerance itself is hit
PRUNE_COORDS = st.sampled_from(
    [0.0, 5e-10, 1e-9, 2e-9, -1e-9, 0.3, 1.0, 1.0 + 1e-9, 1.0 - 1e-9])


class TestPruneMatchesPairwise:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_same_survivors_in_the_same_order(self, data):
        p = data.draw(st.sampled_from([2, 3, 4]))
        points = data.draw(st.lists(
            st.lists(PRUNE_COORDS, min_size=p, max_size=p), max_size=12))
        # duplicates on purpose: ``add`` would suppress them
        if points:
            points += data.draw(st.lists(st.sampled_from(points), max_size=3))
        verts = []
        for i, z in enumerate(points):
            v = Vertex(z=np.array(z), id=i)
            feasible = data.draw(st.sampled_from([None, True, False]))
            if feasible is not None:
                v.mp = MpSolution(z=v.z, phi=0.0, x=None, y=None,
                                  feasible=feasible)
            verts.append(v)
        expected = _pairwise_prune(verts)
        vs = VertexSet(np.zeros(p))
        vs.vertices = list(verts)
        prune(vs)
        assert [v.id for v in vs.vertices] == [v.id for v in expected]


SLOPES = st.sampled_from([0.0, -0.25, -0.5, -1.0, -2.0, -4.0])
STEEP = st.sampled_from([-0.25, -0.5, -1.0, -2.0, -4.0])
LENGTHS = st.sampled_from([0.1, 0.25, 0.5, 0.75, 1.0])


@st.composite
def frontiers(draw):
    """Knots of a nonincreasing piecewise-linear frontier z2 = F(z1) on
    [0, L] with a flat piece between two strictly decreasing ones.  Points
    of the flat piece are weakly but not properly nondominated."""
    slopes = (draw(st.lists(SLOPES, max_size=2))
              + [draw(STEEP), 0.0, draw(STEEP)]
              + draw(st.lists(SLOPES, max_size=2)))
    lengths = draw(st.lists(LENGTHS, min_size=len(slopes),
                            max_size=len(slopes)))
    knots = np.concatenate([[0.0], np.cumsum(lengths)])
    drops = -np.array(slopes) * np.array(lengths)
    values = np.concatenate([[0.0], -np.cumsum(drops)]) + drops.sum()
    return knots, values


def ray_exit(knots, values, v, d):
    """Last point of the segment v - s*d, s >= 0, that lies on or above the
    frontier: the frontier point an exact ray flow from v finds."""
    def above(s):
        z = v - s * d
        return z[0] >= knots[0] and z[1] >= np.interp(z[0], knots, values)

    lo, hi = 0.0, (v[0] - knots[0]) / d[0] + 1.0
    # 64 halvings reach the resolution of a float
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if above(mid) else (lo, mid)
    return v - lo * d


class TestCoverInvariant:
    """After every cut and prune each weakly nondominated point z* > m lies
    below some vertex, so min phi over the vertices stays a lower bound."""

    @given(frontiers(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_frontier_stays_covered(self, frontier, data):
        knots, values = frontier
        m = np.array([knots[0], values[-1]])
        M = np.array([knots[-1], values[0]])
        vs = VertexSet(m)
        vs.add(M)
        z1 = np.concatenate([np.linspace(m[0], M[0], 301), knots])
        points = np.column_stack([z1, np.interp(z1, knots, values)])
        points = points[(points > m + 1e-6).all(axis=1)]
        for _ in range(12):
            if not len(vs):
                break
            vertex = vs.vertices[data.draw(
                st.integers(0, len(vs) - 1), label="vertex")]
            # the driver's adaptive direction: from the vertex toward m
            d = np.maximum(vertex.z - m, 1e-6 * (M - m))
            w = np.clip(ray_exit(knots, values, vertex.z, d), m, vertex.z)
            cut(vs, vertex, w)
            prune(vs)
            Z = np.array([v.z for v in vs.vertices]).reshape(-1, 2)
            covered = (points[:, None, :] <= Z[None, :, :] + 1e-9).all(
                axis=2).any(axis=1)
            assert covered.all(), points[~covered][0]


class TestSelectMinPhi:
    def test_single_vertex(self):
        vs = VertexSet([0, 0])
        v = vs.add([2.0, 2.0])
        evaluated(v, 1.25)
        best, beta = select_min_phi(vs)
        assert best is v and beta == 1.25

    def test_minimum_wins(self):
        vs = VertexSet([0, 0])
        a = vs.add([1.0, 0.2])
        b = vs.add([0.2, 1.0])
        evaluated(a, 0.7)
        evaluated(b, 0.3)
        best, beta = select_min_phi(vs)
        assert best is b and beta == 0.3

    def test_tie_breaks_to_lower_id(self):
        vs = VertexSet([0, 0])
        a = vs.add([1.0, 0.2])
        b = vs.add([0.2, 1.0])
        evaluated(a, 0.5)
        evaluated(b, 0.5)
        best, _ = select_min_phi(vs)
        assert best is a

    def test_empty_set_raises(self):
        vs = VertexSet([0, 0])
        with pytest.raises(ValueError):
            select_min_phi(vs)

    def test_unevaluated_vertex_raises(self):
        vs = VertexSet([0, 0])
        vs.add([1.0, 1.0])
        with pytest.raises(ValueError):
            select_min_phi(vs)
