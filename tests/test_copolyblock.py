import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svbilevel import neurodynamic as nd
from svbilevel.copolyblock import (
    COORD_TOL, Vertex, cut, prune, select_min_phi,
)
from svbilevel.outcome import MpSolution


def mp_solution(phi):
    """A feasible MP solution: a converged flow that ends with value phi."""
    return MpSolution(flow=nd.FlowResult(np.zeros(2), phi, 0.0,
                                         nd.FlowStatus.CONVERGED, 1, 0.0))


def evaluated(v, phi):
    """Record a feasible MP solution with value ``phi`` at vertex v."""
    v.mp = mp_solution(phi)


def vertices(*points):
    """A vertex list in creation order, one vertex per point."""
    return [Vertex(np.array(z, dtype=float)) for z in points]


def zs(V):
    return sorted(tuple(v.z) for v in V)


class TestCut:
    def test_two_children(self):
        V = vertices([1.0, 1.0])
        cut(V, V[0], [0.3, 0.4])
        assert zs(V) == [(0.3, 1.0), (1.0, 0.4)]

    def test_lower_face_child_kept(self):
        # w_1 = 0 is the lower face of a box with m = 0: the child there
        # stays, for the driver to drop by its MP minimizer
        V = vertices([1.0, 1.0])
        cut(V, V[0], [0.0, 0.4])
        assert [tuple(v.z) for v in V] == [(0.0, 1.0), (1.0, 0.4)]

    def test_three_dimensional_children(self):
        V = vertices([1.0, 1.0, 1.0])
        cut(V, V[0], [0.5, 0.5, 0.5])
        assert len(V) == 3
        for child in V:
            diffs = np.isclose(child.z, [1, 1, 1])
            assert diffs.sum() == 2

    def test_children_nest_below_parent(self):
        V = vertices([1.5, 1.8])
        parent = V[0].z.copy()
        cut(V, V[0], [0.6, 0.9])
        for child in V:
            assert np.all(child.z <= parent + 1e-12)
            assert np.sum(~np.isclose(child.z, parent)) == 1

    def test_children_follow_creation_order(self):
        # the children go after every older vertex, child i in place i
        V = vertices([1.0, 1.0], [0.9, 0.2])
        older = V[1]
        cut(V, V[0], [0.3, 0.4])
        assert V[0] is older
        assert [tuple(v.z) for v in V[1:]] == [(0.3, 1.0), (1.0, 0.4)]
        assert all(v.mp is None for v in V[1:])

    def test_cardinality_bound(self):
        V = vertices([1.0, 1.0], [0.9, 0.2])
        before = len(V)
        cut(V, V[0], [0.3, 0.4])
        assert len(V) <= before - 1 + 2

    def test_vertex_not_in_set(self):
        V = vertices([1.0, 1.0])
        other = vertices([1.0, 1.0])
        with pytest.raises(ValueError):
            cut(V, other[0], [0.3, 0.4])

    def test_w_above_v_rejected(self):
        V = vertices([0.5, 0.5])
        with pytest.raises(ValueError):
            cut(V, V[0], [0.6, 0.4])


class TestPrune:
    def test_dominated_removed(self):
        V = vertices([1.0, 1.0], [0.5, 0.5])
        prune(V)
        # [m, (0.5, 0.5)] lies inside [m, (1, 1)]
        assert zs(V) == [(1.0, 1.0)]

    def test_incomparable_unchanged(self):
        V = vertices([1.0, 0.2], [0.2, 1.0])
        prune(V)
        assert len(V) == 2

    def test_common_lower_bound_dropped(self):
        V = vertices([1.0, 2.0], [2.0, 1.0], [1.0, 1.0])
        prune(V)
        assert zs(V) == [(1.0, 2.0), (2.0, 1.0)]

    def test_prune_drops_a_vertex_equal_to_an_earlier_one(self):
        # equal within COORD_TOL in every coordinate: the earlier vertex,
        # the one that may already carry phi, is kept
        V = vertices([0.5, 0.5], [1.0, 0.2], [0.5, 0.5 + 1e-10])
        first = V[0]
        prune(V)
        assert len(V) == 2 and V[0] is first

    def test_a_cut_child_equal_to_an_evaluated_vertex_is_not_kept(self):
        # the child (0.3, 1) is the older vertex, whose phi is known: the
        # child goes, so no phi is solved twice at one z
        V = vertices([1.0, 1.0], [0.3, 1.0])
        older = V[1]
        evaluated(older, 0.5)
        cut(V, V[0], [0.3, 0.4])
        prune(V)
        assert V[0] is older
        assert [tuple(v.z) for v in V if v.mp is None] == [(1.0, 0.4)]

    def test_idempotent(self):
        V = vertices([1, 2], [2, 1], [1, 1], [0.5, 2.5], [1, 1])
        prune(V)
        once = list(V)
        prune(V)
        assert V == once


def _pairwise_prune(verts):
    """Survivors of ``prune`` by a loop over pairs: a vertex goes if it is
    below another vertex or equal to an earlier one, whatever its MP."""
    keep = []
    for i, v in enumerate(verts):
        dropped = False
        for k, u in enumerate(verts):
            if u is v:
                continue
            diff = u.z - v.z
            if np.all(diff >= -COORD_TOL) and (np.any(diff > COORD_TOL)
                                               or k < i):
                dropped = True
                break
        if not dropped:
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
        # duplicates on purpose: only the first of them survives
        if points:
            points += data.draw(st.lists(st.sampled_from(points), max_size=3))
        verts = []
        for z in points:
            v = Vertex(z=np.array(z))
            feasible = data.draw(st.sampled_from([None, True, False]))
            if feasible is not None:
                v.mp = mp_solution(0.0) if feasible else MpSolution(flow=None)
            verts.append(v)
        expected = _pairwise_prune(verts)
        V = list(verts)
        prune(V)
        assert [id(v) for v in V] == [id(v) for v in expected]


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
        V = [Vertex(M)]
        z1 = np.concatenate([np.linspace(m[0], M[0], 301), knots])
        points = np.column_stack([z1, np.interp(z1, knots, values)])
        points = points[(points > m + 1e-6).all(axis=1)]
        for _ in range(12):
            if not V:
                break
            vertex = V[data.draw(st.integers(0, len(V) - 1), label="vertex")]
            # the driver's adaptive direction: from the vertex toward m
            d = np.maximum(vertex.z - m, 1e-6 * (M - m))
            w = np.clip(ray_exit(knots, values, vertex.z, d), m, vertex.z)
            cut(V, vertex, w)
            prune(V)
            Z = np.array([v.z for v in V]).reshape(-1, 2)
            covered = (points[:, None, :] <= Z[None, :, :] + 1e-9).all(
                axis=2).any(axis=1)
            assert covered.all(), points[~covered][0]


class TestSelectMinPhi:
    def test_single_vertex(self):
        V = vertices([2.0, 2.0])
        evaluated(V[0], 1.25)
        best, beta = select_min_phi(V)
        assert best is V[0] and beta == 1.25

    def test_minimum_wins(self):
        V = vertices([1.0, 0.2], [0.2, 1.0])
        evaluated(V[0], 0.7)
        evaluated(V[1], 0.3)
        best, beta = select_min_phi(V)
        assert best is V[1] and beta == 0.3

    def test_tie_breaks_to_the_earliest_vertex(self):
        V = vertices([1.0, 0.2], [0.2, 1.0], [0.5, 0.5])
        for v, phi in zip(V, (0.6, 0.5, 0.5)):
            evaluated(v, phi)
        best, _ = select_min_phi(V)
        assert best is V[1]

    def test_empty_set_raises(self):
        with pytest.raises(ValueError):
            select_min_phi([])

    def test_unevaluated_vertex_raises(self):
        V = vertices([1.0, 1.0], [0.2, 1.5])
        evaluated(V[0], 0.5)
        with pytest.raises(ValueError):
            select_min_phi(V)
