"""Tests for cut-and-paste operations and the witness pipelines."""

import hashlib
import itertools
from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_cube, torus_grid
from ormaps.bounds import one_cut_genus_bounds
from ormaps.connectivity import adjacency_of, find_cutsets, vertex_connectivity
from ormaps.core import emit, face_size_multiset, genus, parse, validate, walk_vertices
from ormaps.dual import dual, is_dual_separating
from ormaps.search import enumerate_connected_maps
from ormaps.surgery import (
    FillResult,
    GlueResult,
    InsertResult,
    PipelineOutcome,
    SurgeryError,
    build_one_cut_witness,
    check_fill_ingredient,
    cycle_square_gadget,
    cycle_square_gadget_raw,
    delete_vertex,
    find_disjoint_triangles,
    glue_faces,
    glue_faces_self,
    insert_cycle_in_triangles,
    interior_fill,
    k4_wedge,
    one_cut_witness_problems,
    stack_vertex,
    stacked_triangulation,
    subdivide_edges,
    wedge_at_vertex,
    wheel,
)


class TestDeleteVertex:
    def test_tetrahedron_minus_vertex_is_a_triangle(self, tetrahedron):
        m = delete_vertex(tetrahedron, 3)
        assert m.vertex_count == 3
        assert m.edge_count == 3
        assert face_size_multiset(m) == (3, 3)
        assert genus(m) == 0

    def test_cube_minus_vertex_opens_a_hexagon(self, cube):
        m = delete_vertex(cube, 0)
        assert m.vertex_count == 7
        assert m.edge_count == 9
        assert face_size_multiset(m) == (4, 4, 4, 6)
        assert genus(m) == 0

    def test_wheel_minus_hub_is_a_cycle(self):
        m = delete_vertex(wheel(5), 0)
        assert m.vertex_count == 5
        assert face_size_multiset(m) == (5, 5)

    def test_every_single_deletion_keeps_euler(self, cube, tetrahedron):
        for host in (cube, tetrahedron, wheel(5)):
            for v in range(host.vertex_count):
                m = delete_vertex(host, v)
                assert validate(m).ok
                assert m.vertex_count == host.vertex_count - 1
                assert m.edge_count == host.edge_count - host.degree(v)

    def test_bad_index_raises(self, tetrahedron):
        with pytest.raises(SurgeryError, match="no vertex"):
            delete_vertex(tetrahedron, 9)

    def test_isolating_deletion_raises(self, k2):
        with pytest.raises(SurgeryError, match="isolates"):
            delete_vertex(k2, 0)

    def test_disconnecting_deletion_raises(self):
        with pytest.raises(SurgeryError, match="disconnects"):
            delete_vertex(k4_wedge(), 0)


class TestSubdivide:
    def test_one_edge_of_the_tetrahedron(self, tetrahedron):
        m = subdivide_edges(tetrahedron, [0])
        assert m.vertex_count == 5
        assert m.edge_count == 7
        assert face_size_multiset(m) == (3, 3, 4, 4)
        assert genus(m) == 0

    def test_all_cube_edges_at_once(self, cube):
        m = subdivide_edges(cube, list(cube.edge_ids))
        assert m.vertex_count == 20
        assert m.edge_count == 24
        assert face_size_multiset(m) == (8,) * 6
        assert genus(m) == 0

    def test_either_dart_names_the_edge(self, tetrahedron):
        a = subdivide_edges(tetrahedron, [0])
        b = subdivide_edges(tetrahedron, [tetrahedron.reverse[0]])
        assert a == b

    def test_repeating_an_edge_raises(self, tetrahedron):
        with pytest.raises(SurgeryError, match="twice"):
            subdivide_edges(tetrahedron, [0, tetrahedron.reverse[0]])

    def test_bad_dart_raises(self, tetrahedron):
        with pytest.raises(SurgeryError, match="no dart"):
            subdivide_edges(tetrahedron, [99])


class TestWheel:
    def test_three_spokes_give_the_tetrahedron(self, tetrahedron):
        assert wheel(3) == tetrahedron

    def test_six_spokes(self):
        m = wheel(6)
        assert m.vertex_count == 7
        assert m.edge_count == 12
        assert face_size_multiset(m) == (3, 3, 3, 3, 3, 3, 6)
        assert genus(m) == 0
        assert vertex_connectivity(m) == 3

    def test_too_small_raises(self):
        with pytest.raises(SurgeryError):
            wheel(2)


class TestWedge:
    def test_k4_wedge_shape(self):
        m = k4_wedge()
        assert m.vertex_count == 7
        assert m.edge_count == 12
        assert face_size_multiset(m) == (3, 3, 3, 3, 3, 3, 6)
        assert genus(m) == 0
        assert vertex_connectivity(m) == 1

    def test_k4_wedge_dual_has_a_cut_vertex_at_the_merged_face(self):
        m = k4_wedge()
        report = dual(m)
        assert report.simple
        hexagon = next(f.index for f in m.faces if f.size == 6)
        assert frozenset({hexagon}) in find_cutsets(adjacency_of(report.dual), 1)

    def test_face_count_and_genus_add(self, cube, tetrahedron):
        m = wedge_at_vertex(cube, 2, tetrahedron, 1)
        assert m.vertex_count == 11
        assert len(m.faces) == 9
        assert genus(m) == 0
        g = wedge_at_vertex(cycle_square_gadget(5), 0, cycle_square_gadget(5), 4)
        assert genus(g) == 4

    def test_bad_vertex_raises(self, cube, tetrahedron):
        with pytest.raises(SurgeryError):
            wedge_at_vertex(cube, 11, tetrahedron, 0)


class TestGadget:
    def test_face_multisets(self):
        assert face_size_multiset(cycle_square_gadget(3)) == (3, 6, 9)
        assert face_size_multiset(cycle_square_gadget(5)) == (5, 5, 10)
        assert face_size_multiset(cycle_square_gadget(6)) == (3, 3, 6, 12)
        assert face_size_multiset(cycle_square_gadget(7)) == (7, 7, 14)

    def test_counts_and_genus(self):
        m3 = cycle_square_gadget(3)
        assert (m3.vertex_count, m3.edge_count, genus(m3)) == (6, 9, 1)
        m5 = cycle_square_gadget(5)
        assert (m5.vertex_count, m5.edge_count, genus(m5)) == (5, 10, 2)
        m6 = cycle_square_gadget(6)
        assert (m6.vertex_count, m6.edge_count, genus(m6)) == (6, 12, 2)
        m7 = cycle_square_gadget(7)
        assert (m7.vertex_count, m7.edge_count, genus(m7)) == (7, 14, 3)

    @pytest.mark.parametrize("c", [3, 5, 6, 7])
    def test_satellites_touch_only_the_big_face(self, c):
        m = cycle_square_gadget(c)
        big = max(m.faces, key=lambda f: f.size).index
        for e in m.edge_ids:
            assert big in {m.face_index_of[e], m.face_index_of[m.reverse[e]]}

    def test_gadgets_are_simple(self):
        for c in (3, 5, 6, 7):
            assert cycle_square_gadget(c).is_simple_graph()

    def test_unsupported_sizes_raise(self):
        for c in (2, 4, 8):
            with pytest.raises(SurgeryError, match="no gadget"):
                cycle_square_gadget(c)

    def test_raw_small_gadgets_have_parallel_edges(self):
        assert not cycle_square_gadget_raw(3).is_simple_graph()
        assert not cycle_square_gadget_raw(4).is_simple_graph()
        assert cycle_square_gadget_raw(5).is_simple_graph()


def _diamond():
    """A square with one diagonal; the outer 4-gon has a chord."""
    from ormaps.core import from_rotations

    return from_rotations([[3, 2, 1], [0, 2], [1, 0, 3], [0, 2]])


class TestGlueFaces:
    def test_two_tetrahedra_make_a_bipyramid(self, tetrahedron):
        res = glue_faces(tetrahedron, tetrahedron, 0, 0)
        m = res.map
        assert m.vertex_count == 5
        assert m.edge_count == 9
        assert face_size_multiset(m) == (3,) * 6
        assert genus(m) == 0
        assert len(res.seam_edges) == 3
        assert m.is_simple_graph()

    def test_two_cubes_share_a_square(self, cube):
        res = glue_faces(cube, cube, 0, 0, offset=1)
        m = res.map
        assert m.vertex_count == 12
        assert m.edge_count == 20
        assert len(m.faces) == 10
        assert genus(m) == 0

    def test_vertex_maps_track_the_identification(self, tetrahedron):
        res = glue_faces(tetrahedron, tetrahedron, 0, 0)
        assert res.vertex_map_a == {v: v for v in range(4)}
        walk = set(walk_vertices(tetrahedron, tetrahedron.faces[0].darts))
        for w, target in res.vertex_map_b.items():
            if w in walk:
                assert target < 4
            else:
                assert target >= 4

    def test_seam_separates_the_two_ingredients(self, tetrahedron, cube):
        for ingredient, faces in ((tetrahedron, (0, 0)), (cube, (2, 4))):
            res = glue_faces(ingredient, ingredient, *faces)
            dec = is_dual_separating(res.map, res.seam_edges)
            assert dec is not None
            sides = {len(dec.X_f), len(res.map.faces) - len(dec.X_f)}
            assert sides == {len(ingredient.faces) - 1}

    def test_mirrored_gluing_also_adds_genus(self, tetrahedron):
        res = glue_faces(tetrahedron, tetrahedron, 1, 2, offset=2, mirror_b=True)
        assert genus(res.map) == 0
        assert face_size_multiset(res.map) == (3,) * 6

    def test_size_mismatch_raises(self, tetrahedron, cube):
        with pytest.raises(SurgeryError, match="cannot glue"):
            glue_faces(tetrahedron, cube, 0, 0)

    def test_foreign_face_object_raises(self, tetrahedron, cube):
        with pytest.raises(SurgeryError, match="does not belong"):
            glue_faces(tetrahedron, cube, cube.faces[0], 0)

    def test_chords_collide_or_complete_depending_on_alignment(self):
        diamond = _diamond()
        assert face_size_multiset(diamond) == (3, 3, 4)
        square = next(f.index for f in diamond.faces if f.size == 4)
        outcomes = {"parallel": 0, "k4": 0}
        for offset in range(4):
            for mirror in (False, True):
                try:
                    res = glue_faces(diamond, diamond, square, square, offset, mirror)
                except SurgeryError:
                    outcomes["parallel"] += 1
                    continue
                m = res.map
                assert m.vertex_count == 4 and m.edge_count == 6
                assert m.is_simple_graph()
                assert genus(m) == 0
                outcomes["k4"] += 1
        assert outcomes["parallel"] > 0
        assert outcomes["k4"] > 0

    def test_require_simple_off_returns_the_multigraph(self):
        diamond = _diamond()
        square = next(f.index for f in diamond.faces if f.size == 4)
        seen_multi = False
        for offset in range(4):
            res = glue_faces(
                diamond, diamond, square, square, offset, require_simple=False
            )
            assert validate(res.map).ok
            assert genus(res.map) == 0
            seen_multi = seen_multi or not res.map.is_simple_graph()
        assert seen_multi


def _disjoint_face_pair(m):
    for fa, fb in itertools.combinations(m.faces, 2):
        a = set(walk_vertices(m, fa.darts))
        b = set(walk_vertices(m, fb.darts))
        if not a & b:
            return fa.index, fb.index
    raise AssertionError("no disjoint faces")


class TestGlueSelf:
    def test_cube_self_glue_always_collides(self, cube):
        # every alignment pairs former vertical edges with seam edges or
        # with each other; 8 edges on 4 vertices can never be simple
        top, bottom = _disjoint_face_pair(cube)
        for offset in range(4):
            with pytest.raises(SurgeryError):
                glue_faces_self(cube, top, bottom, offset)

    def test_cube_self_glue_is_still_a_torus(self, cube):
        top, bottom = _disjoint_face_pair(cube)
        for offset in range(4):
            res = glue_faces_self(cube, top, bottom, offset, require_simple=False)
            m = res.map
            assert m.vertex_count == 4
            assert m.edge_count == 8
            assert len(m.faces) == 4
            assert genus(m) == 1
            assert not m.is_simple_graph()

    def test_triangulation_self_glue_adds_a_handle(self):
        # identified corners must not share neighbors either, so scan
        # face pairs and offsets until an alignment survives the checks
        host = stacked_triangulation(33)
        hit = None
        for fa, fb in itertools.combinations(host.faces, 2):
            a = set(walk_vertices(host, fa.darts))
            b = set(walk_vertices(host, fb.darts))
            if a & b:
                continue
            for offset in range(3):
                try:
                    hit = glue_faces_self(host, fa.index, fb.index, offset)
                except SurgeryError:
                    continue
                break
            if hit is not None:
                break
        assert hit is not None
        m = hit.map
        assert m.vertex_count == host.vertex_count - 3
        assert m.edge_count == host.edge_count - 3
        assert len(m.faces) == len(host.faces) - 2
        assert genus(m) == 1
        assert m.is_simple_graph()
        assert len(hit.seam_edges) == 3
        # a handle-forming cycle does not separate the dual
        assert is_dual_separating(m, hit.seam_edges) is None

    def test_same_face_raises(self, cube):
        with pytest.raises(SurgeryError, match="itself"):
            glue_faces_self(cube, 0, 0)

    def test_touching_faces_raise(self, cube):
        with pytest.raises(SurgeryError, match="share vertices"):
            glue_faces_self(cube, 0, 1)

    def test_size_mismatch_raises(self):
        m = wheel(6)
        hexagon = next(f.index for f in m.faces if f.size == 6)
        triangle = next(f.index for f in m.faces if f.size == 3)
        with pytest.raises(SurgeryError, match="cannot glue"):
            glue_faces_self(m, hexagon, triangle)


def _glue_pool():
    return [
        wheel(3),
        wheel(4),
        wheel(5),
        wheel(6),
        make_cube(),
        cycle_square_gadget(3),
        cycle_square_gadget(5),
        stacked_triangulation(6),
    ]


def _equal_size_face_pairs(pool):
    combos = []
    for ia, a in enumerate(pool):
        for ib, b in enumerate(pool):
            for fa in a.faces:
                for fb in b.faces:
                    if fa.size != fb.size:
                        continue
                    if len(set(walk_vertices(a, fa.darts))) != fa.size:
                        continue
                    if len(set(walk_vertices(b, fb.darts))) != fb.size:
                        continue
                    combos.append((ia, fa.index, ib, fb.index, fa.size))
    return combos


_POOL = _glue_pool()
_COMBOS = _equal_size_face_pairs(_POOL)


class TestGlueAdditivity:
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_alignment_adds_counts_and_genus(self, data):
        ia, fa, ib, fb, size = data.draw(st.sampled_from(_COMBOS))
        offset = data.draw(st.integers(min_value=0, max_value=size - 1))
        mirror = data.draw(st.booleans())
        a, b = _POOL[ia], _POOL[ib]
        res = glue_faces(a, b, fa, fb, offset, mirror, require_simple=False)
        m = res.map
        assert validate(m).ok
        assert m.vertex_count == a.vertex_count + b.vertex_count - size
        assert m.edge_count == a.edge_count + b.edge_count - size
        assert len(m.faces) == len(a.faces) + len(b.faces) - 2
        assert genus(m) == genus(a) + genus(b)
        assert len(res.seam_edges) == size


class TestInteriorFill:
    def test_triangle_in_a_hexagon(self):
        host = wheel(6)
        hexagon = next(f.index for f in host.faces if f.size == 6)
        res = interior_fill(host, hexagon, c=2, l=3)
        m = res.map
        assert m.vertex_count == 10
        assert m.edge_count == 24
        assert len(m.faces) == 16
        assert face_size_multiset(m) == (3,) * 16
        assert genus(m) == 0
        assert m.faces[res.inner_face_index].size == 3

    def test_square_in_an_octagon(self):
        host = wheel(8)
        octagon = next(f.index for f in host.faces if f.size == 8)
        res = interior_fill(host, octagon, c=3, l=4)
        m = res.map
        assert m.vertex_count == 13
        assert m.edge_count == 32
        assert len(m.faces) == 21
        assert face_size_multiset(m).count(4) == 1
        assert genus(m) == 0
        inner = m.faces[res.inner_face_index]
        assert inner.size == 4
        assert vertex_connectivity(m) >= 3
        # the fresh square stays chordless
        iv = walk_vertices(m, inner.darts)
        assert iv[2] not in m.adjacency[iv[0]]
        assert iv[3] not in m.adjacency[iv[1]]

    def test_new_interior_degrees_follow_the_target(self):
        host = wheel(8)
        octagon = next(f.index for f in host.faces if f.size == 8)
        res = interior_fill(host, octagon, c=3, l=4)
        fresh = range(host.vertex_count, res.map.vertex_count)
        degrees = sorted(res.map.degree(w) for w in fresh)
        # all but the remainder-absorbing vertex sit at c + 2
        assert degrees[:-1] == [5, 5, 5]

    def test_too_small_face_raises(self):
        host = wheel(6)
        hexagon = next(f.index for f in host.faces if f.size == 6)
        with pytest.raises(SurgeryError, match="too small"):
            interior_fill(host, hexagon, c=3, l=4)

    def test_chorded_face_raises(self):
        diamond = _diamond()
        square = next(f.index for f in diamond.faces if f.size == 4)
        with pytest.raises(SurgeryError, match="chord"):
            interior_fill(diamond, square, c=2, l=3)

    def test_degenerate_parameters_raise(self):
        host = wheel(6)
        hexagon = next(f.index for f in host.faces if f.size == 6)
        with pytest.raises(SurgeryError, match="at least 3"):
            interior_fill(host, hexagon, c=2, l=2)
        with pytest.raises(SurgeryError, match="at least 2"):
            interior_fill(host, hexagon, c=1, l=3)

    def test_underconnected_host_raises(self, tetrahedron):
        host = subdivide_edges(tetrahedron, [d for d in tetrahedron.faces[0].darts])
        hexagon = next(f.index for f in host.faces if f.size == 6)
        assert vertex_connectivity(host) == 2
        with pytest.raises(SurgeryError, match="not 3-connected"):
            interior_fill(host, hexagon, c=3, l=3)

    def test_pinched_face_raises(self):
        m = k4_wedge()
        hexagon = next(f.index for f in m.faces if f.size == 6)
        with pytest.raises(SurgeryError, match="simple cycle"):
            interior_fill(m, hexagon, c=2, l=3)


class TestInsertCycle:
    def test_on_a_stacked_triangulation(self):
        host = stacked_triangulation(33)
        found = find_disjoint_triangles(host)
        assert found is not None
        triangles, pivots = found
        res = insert_cycle_in_triangles(host, triangles, pivots)
        m = res.map
        assert m.vertex_count == host.vertex_count
        assert m.edge_count == host.edge_count + 6
        assert len(m.faces) == len(host.faces) - 4
        assert genus(m) == genus(host) + 5
        sizes = face_size_multiset(m)
        assert sizes.count(24) == 1 and sizes.count(6) == 1
        assert sizes.count(3) == len(sizes) - 2

    def test_hexagon_borders_only_the_big_face(self):
        host = stacked_triangulation(33)
        triangles, pivots = find_disjoint_triangles(host)
        res = insert_cycle_in_triangles(host, triangles, pivots)
        m = res.map
        small = m.faces[res.small_face_index]
        assert small.size == 6
        for d in small.darts:
            assert m.face_index_of[m.reverse[d]] == res.big_face_index

    def test_wrong_count_raises(self):
        host = stacked_triangulation(33)
        triangles, pivots = find_disjoint_triangles(host)
        with pytest.raises(SurgeryError, match="exactly six"):
            insert_cycle_in_triangles(host, triangles[:5], pivots[:5])

    def test_shared_vertices_raise(self):
        host = stacked_triangulation(33)
        triangles, pivots = find_disjoint_triangles(host)
        doubled = (triangles[0],) * 6
        with pytest.raises(SurgeryError, match="share a vertex"):
            insert_cycle_in_triangles(host, doubled, pivots)

    def test_non_triangle_raises(self, cube):
        with pytest.raises(SurgeryError, match="not a triangle"):
            insert_cycle_in_triangles(cube, list(range(6)), [0, 1, 2, 3, 4, 5])

    def test_off_triangle_pivot_raises(self):
        host = stacked_triangulation(33)
        triangles, pivots = find_disjoint_triangles(host)
        bad = list(pivots)
        bad[0] = pivots[1]
        with pytest.raises(SurgeryError, match="not on triangle"):
            insert_cycle_in_triangles(host, triangles, bad)

    def test_adjacent_pivots_raise(self):
        host = stacked_triangulation(40)
        triangles, pivots = find_disjoint_triangles(host)
        spoiled = None
        for i in range(6):
            nxt = (i + 1) % 6
            for v in walk_vertices(host, triangles[nxt].darts):
                if v in host.adjacency[pivots[i]]:
                    candidate = list(pivots)
                    candidate[nxt] = v
                    spoiled = candidate
                    break
            if spoiled:
                break
        assert spoiled is not None, "expected some adjacent spoiler to exist"
        with pytest.raises(SurgeryError, match="adjacent"):
            insert_cycle_in_triangles(host, triangles, spoiled)


class TestStacking:
    def test_stack_in_a_tetrahedron_face(self, tetrahedron):
        m = stack_vertex(tetrahedron, 0)
        assert m.vertex_count == 5
        assert m.edge_count == 9
        assert face_size_multiset(m) == (3,) * 6
        assert genus(m) == 0
        assert m.is_simple_graph()

    def test_stack_needs_a_triangle(self, cube):
        with pytest.raises(SurgeryError, match="triangle"):
            stack_vertex(cube, 0)

    def test_smallest_triangulation_is_the_tetrahedron(self, tetrahedron):
        assert stacked_triangulation(4) == tetrahedron

    @pytest.mark.parametrize("n", [5, 9, 12, 33])
    def test_growth_keeps_the_triangulation_shape(self, n):
        m = stacked_triangulation(n)
        assert m.vertex_count == n
        assert m.edge_count == 3 * n - 6
        assert all(f.size == 3 for f in m.faces)
        assert genus(m) == 0
        assert m.is_simple_graph()

    def test_too_small_raises(self):
        with pytest.raises(SurgeryError):
            stacked_triangulation(3)

    @pytest.mark.parametrize("n", [4.5, 5.0, True])
    def test_non_integer_size_raises(self, n):
        with pytest.raises(SurgeryError, match="vertex count must be an integer"):
            stacked_triangulation(n)


class TestFindDisjointTriangles:
    def test_finds_six_on_a_big_host(self):
        host = stacked_triangulation(33)
        found = find_disjoint_triangles(host)
        assert found is not None
        triangles, pivots = found
        seen = set()
        for f in triangles:
            vs = set(walk_vertices(host, f.darts))
            assert len(vs) == 3 and not vs & seen
            seen |= vs
        for i in range(6):
            assert pivots[i] in walk_vertices(host, triangles[i].darts)
            assert pivots[(i + 1) % 6] not in host.adjacency[pivots[i]]

    def test_separated_mode_keeps_neighbor_faces_apart(self):
        host = stacked_triangulation(40)
        found = find_disjoint_triangles(host, separated=True)
        assert found is not None
        triangles, _ = found
        footprints = []
        for f in triangles:
            nbrs = {host.face_index_of[host.reverse[d]] for d in f.darts}
            footprints.append(nbrs | {f.index})
        for i in range(6):
            for j in range(i + 1, 6):
                assert not footprints[i] & footprints[j]

    def test_no_triangles_means_none(self, cube):
        assert find_disjoint_triangles(cube) is None

    def test_too_few_triangles_means_none(self, tetrahedron):
        assert find_disjoint_triangles(tetrahedron) is None


class TestIngredientCheck:
    def test_wheel_six_fits_the_three_connected_slot(self):
        assert check_fill_ingredient(wheel(6), 6, 3) == ()

    def test_tetrahedron_is_an_all_triangle_ingredient(self, tetrahedron):
        assert check_fill_ingredient(tetrahedron, 3, 3) == ()

    def test_wheel_five_misses_high_connectivity(self):
        problems = check_fill_ingredient(wheel(5), 5, 5)
        assert any("connectivity" in p for p in problems)

    def test_cube_has_the_wrong_faces(self, cube):
        problems = check_fill_ingredient(cube, 4, 3)
        assert any("4-gon" in p for p in problems)

    def test_two_quads_are_one_too_many(self, tetrahedron):
        m = subdivide_edges(tetrahedron, [0, tetrahedron.faces[0].darts[1]])
        problems = check_fill_ingredient(m, 4, 2)
        assert problems


class TestWitnessProblems:
    def test_k4_wedge_certifies_for_one(self):
        assert one_cut_witness_problems(k4_wedge(), 1) == ()

    def test_connectivity_mismatch_is_reported(self):
        problems = one_cut_witness_problems(k4_wedge(), 2)
        assert any("connectivity" in p for p in problems)

    def test_wrong_face_shape_is_reported(self, tetrahedron):
        problems = one_cut_witness_problems(tetrahedron, 3)
        assert any("face sizes" in p for p in problems)


class TestBuildWitness:
    def test_connectivity_one(self):
        outcome = build_one_cut_witness(1)
        m = outcome.map
        assert face_size_multiset(m) == (3, 3, 3, 3, 3, 3, 6)
        assert genus(m) == 0
        assert vertex_connectivity(m) == 1
        assert "connectivity: 1" in outcome.report
        assert any(line.startswith("checks:") for line in outcome.report)

    def test_connectivity_three(self):
        outcome = build_one_cut_witness(3)
        m = outcome.map
        assert m.vertex_count == 8
        assert m.edge_count == 18
        assert face_size_multiset(m) == (3,) * 9 + (9,)
        assert genus(m) == 1
        assert vertex_connectivity(m) == 3
        assert one_cut_witness_problems(m, 3) == ()

    @pytest.mark.parametrize("c", [1, 3])
    def test_witness_genus_is_the_table_value(self, c):
        exact = [e.value for e in one_cut_genus_bounds(c) if e.status == "exact"]
        assert exact == [genus(build_one_cut_witness(c).map)]

    def test_explicit_ingredients_match_the_default(self):
        default = build_one_cut_witness(3)
        explicit = build_one_cut_witness(3, (wheel(6), wheel(3)))
        assert default.map == explicit.map

    def test_connectivity_one_rejects_ingredients(self, tetrahedron):
        with pytest.raises(SurgeryError, match="no ingredients"):
            build_one_cut_witness(1, (tetrahedron,))

    @pytest.mark.parametrize("c", [5, 6, 7])
    def test_missing_ingredients_raise(self, c):
        with pytest.raises(SurgeryError, match="missing ingredients"):
            build_one_cut_witness(c)

    def test_weak_pentagon_ingredients_are_rejected(self):
        with pytest.raises(SurgeryError, match="connectivity"):
            build_one_cut_witness(5, (wheel(5), wheel(5)))

    def test_mismatched_glue_faces_are_rejected(self, tetrahedron):
        with pytest.raises(SurgeryError, match="do not match"):
            build_one_cut_witness(5, (tetrahedron, tetrahedron))

    def test_weak_hexagon_ingredient_for_six_is_rejected(self, tetrahedron):
        with pytest.raises(SurgeryError, match="hexagon ingredient"):
            build_one_cut_witness(6, (wheel(6), tetrahedron))

    def test_torus_ingredient_for_six_is_checked_as_a_fill_ingredient(
        self, cube, monkeypatch
    ):
        # pass the hexagon check so that the torus, a cube here, is the one refused
        from ormaps import surgery

        check = surgery.check_fill_ingredient
        monkeypatch.setattr(
            surgery, "check_fill_ingredient", lambda m, l, c: () if l == 6 else check(m, l, c)
        )
        with pytest.raises(
            SurgeryError, match="torus ingredient: faces other than triangles present"
        ):
            build_one_cut_witness(6, (wheel(6), cube))

    def test_six_glues_a_hexagon_wheel_and_a_torus_grid(self, monkeypatch):
        # wheel(6) is only 3-connected, so pass the ingredient checks; the
        # certificate still demands connectivity 6 of the glued map
        from ormaps import connectivity, surgery

        monkeypatch.setattr(surgery, "check_fill_ingredient", lambda m, l, c: ())
        m = build_one_cut_witness(6, (wheel(6), torus_grid(4, 4))).map
        assert one_cut_witness_problems(m, 6) == ()
        assert (m.vertex_count, m.edge_count, genus(m)) == (17, 60, 4)
        assert connectivity.vertex_connectivity_bruteforce(m) == 6
        digest = hashlib.sha1(emit(m).encode()).hexdigest()
        assert digest == "8ef592d87f1193047287edc32dc3139296e1baa1"

    @pytest.mark.parametrize("c", [2, 4, 8])
    def test_unsupported_targets_raise(self, c):
        with pytest.raises(SurgeryError, match="no witness construction"):
            build_one_cut_witness(c)

    @pytest.mark.parametrize("c", [True, 3.0, "3"])
    def test_non_integer_targets_raise(self, c):
        # True == 1, but a bool is no connectivity
        with pytest.raises(SurgeryError, match="connectivity must be an integer"):
            build_one_cut_witness(c)


@pytest.fixture(scope="module")
def hexagon_cap():
    from ormaps.surgery import _torus_hexagon_cap

    return _torus_hexagon_cap()


class TestTorusCapPipeline:
    """The thread-and-cap pipeline on a triangulated host (heavier tests)."""

    def test_hexagon_cap_shape(self, hexagon_cap):
        assert hexagon_cap.vertex_count == 6
        assert hexagon_cap.edge_count == 15
        assert face_size_multiset(hexagon_cap) == (3,) * 8 + (6,)
        assert genus(hexagon_cap) == 1
        assert hexagon_cap.is_simple_graph()

    def test_cap_hexagon_is_a_simple_cycle(self, hexagon_cap):
        hexa = next(f for f in hexagon_cap.faces if f.size == 6)
        verts = walk_vertices(hexagon_cap, hexa.darts)
        assert len(set(verts)) == 6

    def test_pipeline_on_a_stacked_host(self):
        from ormaps.surgery import one_cut_witness_from_triangulation

        host = stacked_triangulation(33)
        outcome = one_cut_witness_from_triangulation(host, expect_connectivity=3)
        out = outcome.map
        assert validate(out).ok
        assert genus(out) == genus(host) + 6
        sizes = face_size_multiset(out)
        assert sizes.count(24) == 1
        assert all(s in (3, 24) for s in sizes)
        rep = dual(out)
        assert rep.simple
        big = next(f.index for f in out.faces if f.size == 24)
        assert frozenset({big}) in find_cutsets(adjacency_of(rep.dual), 1)
        assert "checks: passed" in outcome.report

    def test_pipeline_rejects_non_triangulations(self, cube):
        from ormaps.surgery import one_cut_witness_from_triangulation

        with pytest.raises(SurgeryError, match="not a triangulation"):
            one_cut_witness_from_triangulation(cube, expect_connectivity=3)


# -- golden fingerprint of every surgery outcome -----------------------------------


def _raw_outcome(result):
    """A hashable record of an operation's result; maps as raw dart arrays.

    Raw arrays rather than emit(): glued multigraphs have no .rot text.
    """
    if isinstance(result, GlueResult):
        return (
            _raw_outcome(result.map),
            result.seam_edges,
            sorted(result.vertex_map_a.items()),
            sorted(result.vertex_map_b.items()),
        )
    if isinstance(result, FillResult):
        return (_raw_outcome(result.map), result.inner_face_index)
    if isinstance(result, InsertResult):
        return (_raw_outcome(result.map), result.big_face_index, result.small_face_index)
    if isinstance(result, PipelineOutcome):
        return (_raw_outcome(result.map), list(result.report))
    return (result.vertex_of, result.next_in_rotation, result.reverse)


def _two_faces_per_size(m):
    picked: dict[int, list] = {}
    for f in m.faces:
        picked.setdefault(f.size, [])
        if len(picked[f.size]) < 2:
            picked[f.size].append(f.index)
    return [i for indices in picked.values() for i in indices]


# The glue operations' keys print as the gluing arguments did when
# SURGERY_GOLDEN was recorded: GlueSpec(face_a=.., face_b=.., offset=.., mirror_b=..).
_GlueKey = namedtuple("GlueSpec", "face_a face_b offset mirror_b")


def _surgery_operations():
    """(key, thunk) for a fixed set of surgery calls, refusals included."""
    from ormaps.surgery import one_cut_witness_from_triangulation

    pool = [
        wheel(3),
        wheel(4),
        wheel(5),
        wheel(6),
        make_cube(),
        cycle_square_gadget(3),
        stacked_triangulation(6),
        k4_wedge(),
    ]
    for (ia, a), (ib, b) in itertools.product(enumerate(pool), repeat=2):
        for fa, fb in itertools.product(_two_faces_per_size(a), _two_faces_per_size(b)):
            size = a.faces[fa].size
            offsets = range(size) if size == b.faces[fb].size else (0,)
            for offset, mirror, simple in itertools.product(
                offsets, (False, True), (True, False)
            ):
                spec = _GlueKey(fa, fb, offset, mirror)
                yield ("glue", ia, ib, spec, simple), (
                    lambda a=a, b=b, spec=spec, simple=simple: glue_faces(
                        a, b, *spec, require_simple=simple
                    )
                )
    yield ("glue", "no face"), lambda: glue_faces(pool[0], pool[1], 9, 0)
    yield ("glue", "foreign"), lambda: glue_faces(pool[0], pool[4], pool[4].faces[0], 0)

    for name, m in (("stack12", stacked_triangulation(12)), ("cube", make_cube())):
        for fa, fb in itertools.product(range(len(m.faces)), repeat=2):
            for offset, simple in itertools.product(
                range(m.faces[fa].size), (True, False)
            ):
                yield ("self", name, fa, fb, offset, simple), (
                    lambda m=m, fa=fa, fb=fb, offset=offset, simple=simple: glue_faces_self(
                        m, fa, fb, offset, require_simple=simple
                    )
                )

    for c in (1, 2, 3, 5, 6):
        yield ("witness", c), lambda c=c: build_one_cut_witness(c)
    yield ("witness", 1, "ingredients"), lambda: build_one_cut_witness(1, (wheel(3),))
    yield ("witness", 3, "weak"), lambda: build_one_cut_witness(3, (wheel(5), wheel(3)))
    yield ("witness", 5, "weak"), lambda: build_one_cut_witness(5, (wheel(5), wheel(5)))

    host = stacked_triangulation(33)
    separated = find_disjoint_triangles(host, separated=True)
    yield ("pipeline", 33), lambda: one_cut_witness_from_triangulation(
        host, expect_connectivity=3
    )
    yield ("pipeline", 33, "kappa"), lambda: one_cut_witness_from_triangulation(
        host, expect_connectivity=4
    )
    yield ("pipeline", 12), lambda: one_cut_witness_from_triangulation(
        stacked_triangulation(12), expect_connectivity=3
    )
    yield ("pipeline", "cube"), lambda: one_cut_witness_from_triangulation(
        make_cube(), expect_connectivity=3
    )

    triangles, pivots = find_disjoint_triangles(host)
    yield ("insert",), lambda: insert_cycle_in_triangles(host, triangles, pivots)
    yield ("insert", "separated"), lambda: insert_cycle_in_triangles(host, *separated)
    yield ("insert", "five"), lambda: insert_cycle_in_triangles(host, triangles[:5], pivots[:5])
    yield ("insert", "shared"), lambda: insert_cycle_in_triangles(
        host, (triangles[0],) * 6, pivots
    )
    yield ("insert", "off"), lambda: insert_cycle_in_triangles(
        host, triangles, (pivots[1],) + pivots[1:]
    )
    yield ("insert", "cube"), lambda: insert_cycle_in_triangles(make_cube(), range(6), range(6))

    tetra = wheel(3)
    pinched = subdivide_edges(tetra, list(tetra.faces[0].darts))
    for name, m, c, l in (
        ("wheel6", wheel(6), 2, 3),
        ("wheel6", wheel(6), 2, 6),
        ("wheel6", wheel(6), 3, 4),
        ("wheel8", wheel(8), 3, 4),
        ("wheel8", wheel(8), 1, 3),
        ("wheel8", wheel(8), 2, 2),
        ("pinched", pinched, 3, 3),
        ("k4-wedge", k4_wedge(), 2, 3),
        ("diamond", _diamond(), 2, 3),
    ):
        for face in range(len(m.faces)):
            yield ("fill", name, face, c, l), (
                lambda m=m, face=face, c=c, l=l: interior_fill(m, face, c, l)
            )

    small = [wheel(3), wheel(5), make_cube(), cycle_square_gadget(5)]
    for (ia, a), (ib, b) in itertools.product(enumerate(small), repeat=2):
        for va, vb in ((0, 0), (1, 2), (a.vertex_count - 1, 0), (0, b.vertex_count)):
            yield ("wedge", ia, ib, va, vb), lambda a=a, b=b, va=va, vb=vb: wedge_at_vertex(
                a, va, b, vb
            )

    cube = make_cube()
    yield ("subdivide", "cube"), lambda: subdivide_edges(cube, list(cube.edge_ids))
    yield ("subdivide", "three"), lambda: subdivide_edges(tetra, [5, 0, 2])
    yield ("subdivide", "twice"), lambda: subdivide_edges(tetra, [0, tetra.reverse[0]])
    yield ("subdivide", "none"), lambda: subdivide_edges(tetra, [99])


# SHA-1 over every record of _surgery_operations; a change here means some
# map, seam, vertex map, report line or refusal text moved.
SURGERY_GOLDEN = "58d4c747f9b16e0923633d54152eeedf3308f409"


@pytest.mark.golden
def test_surgery_outcomes_match_the_golden_fingerprint():
    h = hashlib.sha1()
    for key, thunk in _surgery_operations():
        try:
            record = ("ok", _raw_outcome(thunk()))
        except SurgeryError as exc:
            record = ("refused", str(exc))
        h.update(repr((key, record)).encode())
    assert h.hexdigest() == SURGERY_GOLDEN


# SHA-1 over the raw arrays of every subdivision of 1-3 edges (each named by
# its larger dart) of every connected map with at most 6 edges, read back
# through .rot text.
SUBDIVIDE_GOLDEN = "8735973d22e462fb309b129c5d4773fe8130d896"


@pytest.mark.golden
def test_subdivisions_match_the_golden_fingerprint():
    maps = [parse(emit(m)) for m in enumerate_connected_maps(6)]
    h = hashlib.sha1()
    calls = 0
    for m in maps:
        larger = [m.reverse[e] for e in m.edge_ids]
        for r in (1, 2, 3):
            for edges in itertools.combinations(larger, r):
                out = subdivide_edges(m, edges)
                h.update(repr((out.vertex_of, out.next_in_rotation, out.reverse)).encode())
                calls += 1
    assert (len(maps), calls, h.hexdigest()) == (89, 3078, SUBDIVIDE_GOLDEN)
