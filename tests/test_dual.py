import itertools

import pytest
from hypothesis import given, settings

from conftest import connected_simple_maps, make_cube, relabel_darts
from ormaps.core import (
    canonical_code,
    face_size_multiset,
    from_rotations,
    genus,
    parse,
    validate,
)
from ormaps.dual import CutDecomposition, cut_to_edge_cut, dual, doubly_intersecting, is_dual_separating
from ormaps.surgery import wheel


def make_octahedron():
    # poles 0 and 5, equator 1-4 clockwise seen from the north pole
    rots = [[1, 2, 3, 4]]
    for i in range(1, 5):
        nxt = 1 + (i % 4)
        prv = 1 + ((i - 2) % 4)
        rots.append([0, prv, 5, nxt])
    rots.append([1, 4, 3, 2])
    return from_rotations(rots)


def make_bowtie():
    # two triangles sharing vertex 0
    return from_rotations([[1, 2, 3, 4], [0, 2], [0, 1], [0, 4], [0, 3]])


def make_dumbbell():
    # triangles {0,1,2} and {3,4,5} joined by the bridge 2-3
    return from_rotations([[1, 2], [2, 0], [0, 1, 3], [2, 4, 5], [3, 5], [3, 4]])


def make_shared_edge_triangles():
    # triangles 0-1-2 and 0-1-3 sharing the edge 0-1
    return from_rotations([[1, 2, 3], [0, 3, 2], [0, 1], [0, 1]])


def codes_up_to_mirror(m):
    return {canonical_code(m), canonical_code(m.mirror())}


class TestDualConstruction:
    def test_tetrahedron_is_self_dual(self, tetrahedron):
        report = dual(tetrahedron)
        assert report.verdict == "simple"
        assert validate(report.dual).ok
        assert canonical_code(report.dual) in codes_up_to_mirror(tetrahedron)

    def test_counts_swap(self, tetrahedron, cube):
        for m in (tetrahedron, cube, make_octahedron(), make_dumbbell()):
            d = dual(m).dual
            assert d.vertex_count == len(m.faces)
            assert len(d.faces) == m.vertex_count
            assert genus(d) == genus(m)

    def test_cube_dual_is_octahedron(self, cube):
        report = dual(cube)
        assert report.verdict == "simple"
        assert canonical_code(report.dual) in codes_up_to_mirror(make_octahedron())

    def test_dual_rotation_follows_facial_walks(self, tetrahedron):
        report = dual(tetrahedron)
        for f in tetrahedron.faces:
            k = len(f.darts)
            for i, d in enumerate(f.darts):
                assert report.dual.next_in_rotation[d] == f.darts[(i + 1) % k]

    def test_dual_keeps_every_dart_and_edge_id(self, cube):
        report = dual(cube)
        assert report.dual.dart_count == cube.dart_count
        assert report.dual.reverse == cube.reverse

    def test_involution_is_exact_on_fresh_maps(self, tetrahedron, cube):
        for m in (tetrahedron, cube, make_octahedron(), make_bowtie(), make_dumbbell()):
            again = dual(dual(m).dual).dual
            assert (again.vertex_of, again.next_in_rotation, again.reverse) == (
                m.vertex_of,
                m.next_in_rotation,
                m.reverse,
            )


class TestSimplicityVerdicts:
    def test_shared_edge_triangles_make_dual_multi(self):
        m = make_shared_edge_triangles()
        report = dual(m)
        assert report.verdict == "multi"
        assert not report.loops
        # each triangle shares two edges with the outer 4-walk
        assert len(report.multi_pairs) == 2

    def test_bridge_makes_dual_loop(self):
        m = make_dumbbell()
        report = dual(m)
        assert report.verdict == "loop"
        bridge = next(
            e for e in m.edge_ids if {m.vertex_of[e], m.vertex_of[m.reverse[e]]} == {2, 3}
        )
        assert report.loops == (bridge,)

    def test_toroidal_theta_dual_is_all_loops(self):
        m = parse("vertices: 2\n1: 2 2 2\n2: 1 1 1\n")
        report = dual(m)
        assert report.verdict == "loop"
        assert len(report.loops) == 3


def dual_separating_oracle(m, K):
    """Brute force over all face bipartitions: is K exactly one side's boundary?"""
    kset = set(K)
    n_faces = len(m.faces)
    fidx = m.face_index_of
    for bits in range(1, 2 ** (n_faces - 1)):
        X = {f for f in range(n_faces) if bits >> f & 1}
        crossing = {
            e
            for e in m.edge_ids
            if (fidx[e] in X) != (fidx[m.reverse[e]] in X)
        }
        if crossing == kset:
            return True
    return False


def check_decomposition(m, K, dec: CutDecomposition):
    fidx = m.face_index_of
    assert dec.K == tuple(sorted(K))
    # (i) every K edge borders both sides
    for e in dec.K:
        assert (fidx[e] in dec.X_f) != (fidx[m.reverse[e]] in dec.X_f)
    # (iii) walks partition the chosen darts and chain head-to-tail
    chosen = [e if fidx[e] in dec.X_f else m.reverse[e] for e in dec.K]
    seen = [d for walk in dec.walks for d in walk]
    assert sorted(seen) == sorted(chosen)
    for walk in dec.walks:
        for i, d in enumerate(walk):
            nxt = walk[(i + 1) % len(walk)]
            assert m.vertex_of[nxt] == m.vertex_of[m.reverse[d]]
    # (iv)
    assert len(dec.V_of_K) <= len(dec.K)
    ends = {m.vertex_of[d] for e in dec.K for d in (e, m.reverse[e])}
    assert dec.V_of_K == ends


class TestIsDualSeparating:
    def test_tetra_face_triangle(self, tetrahedron):
        K = [tetrahedron.edge_id(d) for d in tetrahedron.faces[0].darts]
        dec = is_dual_separating(tetrahedron, K)
        assert dec is not None
        check_decomposition(tetrahedron, K, dec)
        assert len(dec.walks) == 1
        assert len(dec.walks[0]) == 3
        assert len(dec.V_of_K) == 3

    def test_tetra_single_edge(self, tetrahedron):
        assert is_dual_separating(tetrahedron, [tetrahedron.edge_ids[0]]) is None

    def test_tetra_matching_is_not_separating(self, tetrahedron):
        e1 = next(
            e
            for e in tetrahedron.edge_ids
            if {tetrahedron.vertex_of[e], tetrahedron.vertex_of[tetrahedron.reverse[e]]}
            == {0, 1}
        )
        e2 = next(
            e
            for e in tetrahedron.edge_ids
            if {tetrahedron.vertex_of[e], tetrahedron.vertex_of[tetrahedron.reverse[e]]}
            == {2, 3}
        )
        assert is_dual_separating(tetrahedron, [e1, e2]) is None

    def test_bridge_alone_is_not_separating(self):
        m = make_dumbbell()
        bridge = next(
            e for e in m.edge_ids if {m.vertex_of[e], m.vertex_of[m.reverse[e]]} == {2, 3}
        )
        assert is_dual_separating(m, [bridge]) is None

    def test_dumbbell_triangle(self):
        m = make_dumbbell()
        tri = next(f for f in m.faces if f.size == 3 and 0 in {m.vertex_of[d] for d in f.darts})
        K = sorted(m.edge_id(d) for d in tri.darts)
        dec = is_dual_separating(m, K)
        assert dec is not None
        check_decomposition(m, K, dec)
        assert len(dec.walks) == 1

    def test_side_parameter(self, tetrahedron):
        K = [tetrahedron.edge_id(d) for d in tetrahedron.faces[0].darts]
        dec = is_dual_separating(tetrahedron, K)
        other = frozenset(range(len(tetrahedron.faces))) - dec.X_f
        flipped = is_dual_separating(tetrahedron, K, side=other)
        assert flipped.X_f == other
        check_decomposition(tetrahedron, K, flipped)
        with pytest.raises(ValueError, match="bipartition"):
            is_dual_separating(tetrahedron, K, side=frozenset({0, 99}))

    def test_unknown_edge_rejected(self, tetrahedron):
        with pytest.raises(ValueError, match="not edges"):
            is_dual_separating(tetrahedron, [999])

    def test_empty_set_is_not_separating(self, tetrahedron):
        assert is_dual_separating(tetrahedron, []) is None

    @given(connected_simple_maps(max_vertices=5, max_extra_edges=3))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_bipartition_bruteforce(self, m):
        edges = m.edge_ids
        for r in range(1, min(len(edges), 4) + 1):
            for K in itertools.combinations(edges, r):
                dec = is_dual_separating(m, K)
                assert (dec is not None) == dual_separating_oracle(m, K)
                if dec is not None:
                    check_decomposition(m, K, dec)


class TestCutToEdgeCut:
    def test_dumbbell_outer_face_is_a_dual_cut_vertex(self):
        m = make_dumbbell()
        g = dual(m).dual
        outer = next(f.index for f in m.faces if f.size == 8)
        X, K = cut_to_edge_cut(g, {outer})
        assert outer in X
        assert len(K) <= g.degree(outer) // 2
        assert len(K) == 3
        for e in K:
            assert outer in (g.vertex_of[e], g.vertex_of[g.reverse[e]])

    def test_non_cut_rejected(self, tetrahedron):
        g = dual(tetrahedron).dual
        for v in range(g.vertex_count):
            with pytest.raises(ValueError, match="not a cut"):
                cut_to_edge_cut(g, {v})

    def test_whole_vertex_set_rejected(self, tetrahedron):
        g = dual(tetrahedron).dual
        with pytest.raises(ValueError, match="every vertex"):
            cut_to_edge_cut(g, set(range(g.vertex_count)))

    @given(connected_simple_maps(max_vertices=6, max_extra_edges=4))
    @settings(max_examples=60, deadline=None)
    def test_bound_and_exactness_on_dual_cuts(self, m):
        g = dual(m).dual
        n = g.vertex_count
        for size in (1, 2):
            if n - size < 2:
                continue
            for C in itertools.combinations(range(n), size):
                reachable = _components_without(g, set(C))
                if len(reachable) < 2:
                    continue
                X, K = cut_to_edge_cut(g, set(C))
                assert set(C) <= X
                assert len(K) <= sum(g.degree(v) for v in C) // 2
                crossing = {
                    e
                    for e in g.edge_ids
                    if (g.vertex_of[e] in X) != (g.vertex_of[g.reverse[e]] in X)
                }
                assert crossing == set(K)


def _components_without(g, removed):
    comps = []
    seen = set(removed)
    for v in range(g.vertex_count):
        if v in seen:
            continue
        comp = {v}
        seen.add(v)
        stack = [v]
        while stack:
            u = stack.pop()
            for w in g.adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(comp)
    return comps


class TestDoublyIntersecting:
    def test_shared_edge_triangles(self):
        m = make_shared_edge_triangles()
        tris = [f for f in m.faces if f.size == 3]
        assert doubly_intersecting(m, tris[0], tris[1])

    def test_bowtie_triangles_meet_once(self):
        m = make_bowtie()
        tris = [f for f in m.faces if f.size == 3]
        assert len(tris) == 2
        assert not doubly_intersecting(m, tris[0], tris[1])

    def test_bowtie_outer_face_revisits_the_wedge_vertex(self):
        m = make_bowtie()
        outer = next(f for f in m.faces if f.size == 6)
        tri = next(f for f in m.faces if f.size == 3)
        assert doubly_intersecting(m, outer, tri)

    def test_disjoint_faces(self):
        m = make_dumbbell()
        tris = [f for f in m.faces if f.size == 3]
        assert not doubly_intersecting(m, tris[0], tris[1])

    def test_accepts_indices(self, tetrahedron):
        assert doubly_intersecting(tetrahedron, 0, 1)

    def test_same_face_rejected(self, tetrahedron):
        with pytest.raises(ValueError, match="distinct"):
            doubly_intersecting(tetrahedron, 0, 0)

    @pytest.mark.parametrize("index", [-1, 99])
    def test_index_out_of_range_rejected(self, index):
        with pytest.raises(ValueError, match=f"no face with index {index}"):
            doubly_intersecting(wheel(5), index, 0)

    def test_face_of_another_map_rejected(self):
        # index 0 exists in both wheels, with different darts
        with pytest.raises(ValueError, match="does not belong"):
            doubly_intersecting(wheel(5), wheel(6).faces[0], 1)


@given(connected_simple_maps())
@settings(max_examples=60, deadline=None)
def test_dual_involution_up_to_codes(m):
    back = dual(dual(m).dual).dual
    assert canonical_code(back) == canonical_code(m)
    assert (back.vertex_of, back.next_in_rotation, back.reverse) == (
        m.vertex_of,
        m.next_in_rotation,
        m.reverse,
    )


@given(connected_simple_maps(), )
@settings(max_examples=40, deadline=None)
def test_dual_genus_matches(m):
    report = dual(m)
    assert validate(report.dual).ok
    assert genus(report.dual) == genus(m)
    assert face_size_multiset(report.dual) == tuple(
        sorted(m.degree(v) for v in range(m.vertex_count))
    )
