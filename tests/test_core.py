import itertools
import random
import re
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    TETRA_TEXT,
    connected_maps,
    connected_simple_maps,
    relabel_darts,
    rotation_system,
    torus_grid,
)
from ormaps.core import (
    Map,
    RotParseError,
    _pack,
    _root_code,
    assemble,
    canonical,
    canonical_code,
    canonical_form,
    degree_multiset,
    emit,
    euler_characteristic,
    face_size_multiset,
    facial_walks,
    from_rotations,
    genus,
    maps_isomorphic_bruteforce,
    parse,
    validate,
)
from ormaps.dual import dual
from ormaps.search import enumerate_connected_maps, triangular_complete_map
from ormaps.surgery import stacked_triangulation, wheel


class TestTetrahedron:
    def test_counts(self, tetrahedron):
        report = validate(tetrahedron)
        assert report.ok

    def test_all_triangles(self, tetrahedron):
        assert face_size_multiset(tetrahedron) == (3, 3, 3, 3)

    def test_round_trip_is_byte_exact(self, tetrahedron):
        assert emit(tetrahedron) == TETRA_TEXT

    def test_relabelings_share_canonical_code(self, tetrahedron):
        base = canonical_code(tetrahedron)
        for perm in itertools.permutations(range(4)):
            text = "vertices: 4\n"
            for v in range(4):
                old = perm.index(v)
                nbrs = [perm[w] for w in range(4) if w != old]
                text += f"{v + 1}: " + " ".join(str(w + 1) for w in nbrs) + "\n"
            other = parse(text)
            if validate(other).ok and genus(other) == 0:
                assert canonical_code(other) == base


def test_k2_has_one_face_of_size_two(k2):
    assert validate(k2).ok
    assert face_size_multiset(k2) == (2,)
    assert genus(k2) == 0


def test_cube_is_spherical_quadrangulation(cube):
    assert validate(cube).ok
    assert face_size_multiset(cube) == (4,) * 6
    assert genus(cube) == 0
    assert degree_multiset(cube) == (3,) * 8


class TestParseErrors:
    def test_missing_header(self):
        with pytest.raises(RotParseError, match="header"):
            parse("1: 2\n2: 1\n")

    def test_empty_input(self):
        with pytest.raises(RotParseError, match="empty input"):
            parse("# only a comment\n")

    def test_bad_token_reports_position(self):
        with pytest.raises(RotParseError) as exc:
            parse("vertices: 2\n1: 2\n2: 1 x\n")
        assert exc.value.line == 3
        assert exc.value.column == 6

    def test_neighbor_out_of_range(self):
        with pytest.raises(RotParseError, match="outside"):
            parse("vertices: 2\n1: 3\n2: 1\n")

    def test_duplicate_vertex_line(self):
        with pytest.raises(RotParseError, match="twice"):
            parse("vertices: 2\n1: 2\n1: 2\n")

    def test_missing_vertex_line(self):
        with pytest.raises(RotParseError, match="vertex 2"):
            parse("vertices: 2\n1: 2\n")

    def test_empty_rotation(self):
        with pytest.raises(RotParseError, match="no neighbors"):
            parse("vertices: 2\n1:\n2: 1\n")

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("vertices: 0\n", "vertex count must be positive"),
            ("vertices: 2\n1 2\n2: 1\n", "expected 'v: n1 n2 ...' rotation line"),
            ("vertices: 2\n3: 1\n", "vertex id 3 outside 1..2"),
        ],
    )
    def test_refusal_texts(self, text, fragment):
        with pytest.raises(RotParseError, match=re.escape(fragment)):
            parse(text)


@pytest.mark.parametrize(
    "rotations, mate, fragment",
    [
        ({0: ["a"], 2: ["b"]}, {"a": "b", "b": "a"}, "vertex ids must be dense integers"),
        ({0: ["a", "a"]}, {"a": "a"}, "dart token 'a' appears twice"),
        ({0: ["a"], 1: ["b"]}, {"a": "b"}, "dart token 'b' has no mate"),
        ({0: ["a"], 1: ["b"]}, {"a": "b", "b": "z"}, "mate of 'b' is not a known dart token"),
        (
            {0: ["a", "c"], 1: ["b"]},
            {"a": "b", "b": "c", "c": "a"},
            "mate table is not a fixed-point-free involution",
        ),
    ],
)
def test_assemble_refusal_texts(rotations, mate, fragment):
    with pytest.raises(ValueError, match=re.escape(fragment)):
        assemble(rotations, mate)


def test_comments_and_blank_lines_ignored():
    text = "# a map\n\nvertices: 2\n1: 2  # only edge\n\n2: 1\n"
    m = parse(text)
    assert validate(m).ok
    assert emit(m) == "vertices: 2\n1: 2\n2: 1\n"


class TestMultigraphs:
    def test_occurrence_paired_triple_edge_is_toroidal(self):
        # pairing i-th with i-th crosses the bands: one hexagonal face
        m = parse("vertices: 2\n1: 2 2 2\n2: 1 1 1\n")
        assert validate(m).ok
        assert not m.is_simple_graph()
        assert face_size_multiset(m) == (6,)
        assert genus(m) == 1
        assert emit(m) == "vertices: 2\n1: 2 2 2\n2: 1 1 1\n"

    def test_planar_triple_edge_not_representable(self):
        # three bigon faces require a pairing the occurrence rule cannot give
        for rev in itertools.permutations(range(3)):
            pairing = tuple(3 + rev[d] for d in range(3)) + tuple(
                d for d in range(3) for _ in [0]
            )
            rev_arr = [0] * 6
            for d in range(3):
                rev_arr[d] = 3 + rev[d]
                rev_arr[3 + rev[d]] = d
            m = Map((0, 0, 0, 1, 1, 1), (1, 2, 0, 4, 5, 3), tuple(rev_arr))
            if validate(m).ok and face_size_multiset(m) == (2, 2, 2):
                with pytest.raises(ValueError, match="not representable"):
                    emit(m)
                return
        pytest.fail("no planar pairing of the triple edge found")

    def test_loop_map(self):
        m = parse("vertices: 1\n1: 1 1\n")
        assert validate(m).ok
        assert face_size_multiset(m) in ((1, 1), (2,))


class TestValidateRejections:
    def test_dangling_dart(self):
        m = parse("vertices: 2\n1: 2 2\n2: 1\n")
        report = validate(m)
        assert not report.ok
        assert any("dangling" in p for p in report.problems)

    def test_unanswered_dart_dangles(self):
        # dart d points at a vertex that lists no dart back to it; it has no
        # far end, so neither endpoints nor emit may invent a loop for it
        for text, d in (
            ("vertices: 2\n1: 1 1\n2: 1\n", 2),
            ("vertices: 3\n1: 2\n2: 1 3\n3: 2 1\n", 4),
            ("vertices: 2\n1: 2 2\n2: 1\n", 1),
        ):
            m = parse(text)
            assert m.reverse[d] == d
            assert all(0 <= r < m.dart_count for r in m.reverse)
            problems = validate(m).problems
            dangling = f"dart {d} at vertex {m.vertex_of[d]} is dangling (paired with itself)"
            assert dangling in problems
            assert not any("out of range" in p for p in problems)
            with pytest.raises(ValueError, match=re.escape(dangling)):
                m.endpoints(d)
            with pytest.raises(ValueError, match=re.escape(dangling)):
                emit(m)

    def test_odd_dart_count(self):
        m = parse("vertices: 2\n1: 2\n2: 1 1\n")
        report = validate(m)
        assert any("odd" in p for p in report.problems)

    def test_disconnected(self):
        m = parse("vertices: 4\n1: 2\n2: 1\n3: 4\n4: 3\n")
        report = validate(m)
        assert any("disconnected" in p for p in report.problems)

    def test_broken_rotation_cycle(self):
        # two separate rotation 2-cycles at one vertex
        m = Map((0, 0, 0, 0, 1, 1, 2, 2), (1, 0, 3, 2, 5, 4, 7, 6), (4, 6, 5, 7, 0, 2, 1, 3))
        report = validate(m)
        assert any("rotation cycles" in p for p in report.problems)


def test_face_walks_are_normalized(tetrahedron, cube):
    for m in (tetrahedron, cube):
        faces = facial_walks(m)
        starts = [f.darts[0] for f in faces]
        assert all(f.darts[0] == min(f.darts) for f in faces)
        assert starts == sorted(starts)
        assert [f.index for f in faces] == list(range(len(faces)))


def test_validate_walks_the_faces_once(monkeypatch):
    """``validate`` counts faces through ``m.faces``, so what reads them
    next walks nothing."""
    from ormaps import core

    calls = []
    walk = core.facial_walks
    monkeypatch.setattr(core, "facial_walks", lambda m: calls.append(m) or walk(m))
    m = parse(TETRA_TEXT)
    assert validate(m).ok
    assert len(m.faces) == 4
    assert calls == [m]


def test_genus_raises_on_inconsistent_input():
    # self-paired dart breaks the orbit count; chi comes out odd
    m = parse("vertices: 2\n1: 2 2\n2: 1\n")
    with pytest.raises(ValueError):
        genus(m)


@given(connected_simple_maps())
@settings(max_examples=120)
def test_handshake_identities(m):
    assert validate(m).ok
    two_e = 2 * m.edge_count
    assert sum(f.size for f in m.faces) == two_e
    assert sum(m.degree(v) for v in range(m.vertex_count)) == two_e
    assert euler_characteristic(m) % 2 == 0
    assert genus(m) >= 0


@given(connected_simple_maps())
@settings(max_examples=80)
def test_round_trip_identities(m):
    text = emit(m)
    back = parse(text)
    assert emit(back) == text
    assert canonical_code(back) == canonical_code(m)


@given(connected_simple_maps(), st.randoms())
@settings(max_examples=80)
def test_canonical_code_ignores_dart_labels(m, rng):
    perm = list(range(m.dart_count))
    rng.shuffle(perm)
    shuffled = relabel_darts(m, perm)
    assert canonical(shuffled) == canonical(m)  # the same code and the same form


@given(connected_simple_maps())
@settings(max_examples=80)
def test_canonical_form_is_canonical(m):
    cf = canonical_form(m)
    assert canonical_code(cf) == canonical_code(m)
    assert genus(cf) == genus(m)
    assert face_size_multiset(cf) == face_size_multiset(m)
    assert degree_multiset(cf) == degree_multiset(m)
    # idempotent: the canonical form of the canonical form is itself
    assert canonical_form(cf) == cf


@pytest.mark.parametrize("n, word", [(32_767, ">H"), (32_768, ">I")])
def test_code_word_width_follows_the_dart_count(n, word):
    # 16-bit words up to 65,535 darts, 32-bit words from 65,536 on
    cycle = from_rotations([[(i - 1) % n, (i + 1) % n] for i in range(n)])
    words, order = _root_code(
        cycle.next_in_rotation, cycle.reverse, 0, [-1] * cycle.dart_count
    )
    code = _pack(words)
    assert len(order) == cycle.dart_count == 2 * n
    assert len(code) == struct.calcsize(word) * (2 * cycle.dart_count + 1)
    assert struct.unpack_from(word, code)[0] == cycle.dart_count
    assert canonical_code(cycle) == code  # every root ties with root 0


def full_scan_canonical(m: Map) -> tuple[bytes, Map]:
    """Reference: pack the whole traversal code from every root, take the min."""
    sigma, alpha = m.next_in_rotation, m.reverse
    width = "H" if m.dart_count <= 0xFFFF else "I"
    scans = []
    for root in range(m.dart_count):
        newid = {root: 0}
        order = [root]
        for d in order:
            for e in (sigma[d], alpha[d]):
                if e not in newid:
                    newid[e] = len(order)
                    order.append(e)
        words = [len(order)]
        for d in order:
            words += (newid[sigma[d]], newid[alpha[d]])
        scans.append((struct.pack(f">{len(words)}{width}", *words), order))
    code, order = min(scans, key=lambda t: t[0])
    pos = {d: i for i, d in enumerate(order)}
    vmap: dict[int, int] = {}
    for d in order:
        vmap.setdefault(m.vertex_of[d], len(vmap))
    return code, Map(
        tuple(vmap[m.vertex_of[d]] for d in order),
        tuple(pos[sigma[d]] for d in order),
        tuple(pos[alpha[d]] for d in order),
    )


def cycle_map(n: int) -> Map:
    return from_rotations([[(i - 1) % n, (i + 1) % n] for i in range(n)])


def root_rule(m: Map) -> str:
    """Which rule of ``core._least_root`` picks the candidate roots of m."""
    sigma, alpha = m.next_in_rotation, m.reverse
    darts = range(m.dart_count)
    if any(sigma[d] == d for d in darts):
        return "leaves"
    if any(alpha[d] == sigma[d] for d in darts):
        return "adjacent loop"
    if any(sigma[sigma[d]] == d for d in darts):
        return "degree 2"
    return "all darts"


class TestCanonicalMatchesFullScan:
    """The pruned root scan gives the code and form of the full scan."""

    def test_small_map_corpus_and_mirrors(self):
        for m in enumerate_connected_maps(7):
            for x in (m, m.mirror()):
                assert canonical(x) == full_scan_canonical(x)

    @pytest.mark.parametrize("n", range(6, 101))
    def test_stacked_triangulations_and_duals(self, n):
        m = stacked_triangulation(n)
        for x in (m, dual(m).dual):
            assert canonical(x) == full_scan_canonical(x)

    @pytest.mark.parametrize(
        "build, args",
        [(triangular_complete_map, (7,)), (wheel, (6,)), (wheel, (8,))]
        + [(cycle_map, (n,)) for n in range(3, 61)]
        + [(torus_grid, (p, q)) for p in range(3, 7) for q in range(3, 7)],
        ids=["K7-torus", "W6", "W8"]
        + [f"cycle{n}" for n in range(3, 61)]
        + [f"T{p}x{q}" for p in range(3, 7) for q in range(3, 7)],
    )
    def test_named_maps(self, build, args):
        # on the cycles, K7 and the square torus grids every root ties: the
        # first tie's automorphism covers the other roots, and the first
        # one stays the best
        m = build(*args)
        for x in (m, m.mirror()):
            assert canonical(x) == full_scan_canonical(x)

    def test_seeded_maps_with_loops_and_parallel_edges(self):
        rng = random.Random(2024)
        rules = []
        for _ in range(2000):
            darts = range(2 * rng.randint(1, 9))
            m = rotation_system(rng.sample(darts, len(darts)), rng.sample(darts, len(darts)))
            if m is None:
                continue
            rules.append(root_rule(m))
            for x in (m, m.mirror()):
                assert canonical(x) == full_scan_canonical(x)
        # every candidate rule is exercised, and the fallback to all darts
        # when a loop's darts are adjacent in a rotation
        assert set(rules) == {"leaves", "adjacent loop", "degree 2", "all darts"}
        assert min(rules.count(rule) for rule in set(rules)) >= 50

    @given(connected_maps())
    @settings(max_examples=200)
    def test_random_rotation_systems(self, m):
        assert canonical(m) == full_scan_canonical(m)

    def test_adjacent_loop_beats_degree_two(self):
        # a loop at the ends of the path 0 - 1 - 2: vertices 0 and 2 have
        # degree 3, vertex 1 degree 2; a loop dart d with reverse[d] ==
        # next_in_rotation[d] starts its code (1, 1), below the (1, 2) of
        # every degree-2 root
        m = from_rotations([[0, 0, 1], [0, 2], [1, 2, 2]])
        assert root_rule(m) == "adjacent loop"
        assert sorted(m.degree(v) for v in range(3)) == [2, 3, 3]
        code, form = canonical(m)
        assert (code, form) == full_scan_canonical(m)
        assert struct.unpack_from(">3H", code)[1:] == (1, 1)


def one_loop_root_code(sigma, alpha, root, newid, best=None):
    """Reference: the traversal ``_root_code`` made before its two phases, one
    loop that tests a tie flag and builds a (sigma, alpha) pair at every dart."""
    newid[root] = 0
    order = [root]
    words = [0]
    tied = best is not None
    try:
        for d in order:
            for e in (sigma[d], alpha[d]):
                w = newid[e]
                if w < 0:
                    w = newid[e] = len(order)
                    order.append(e)
                if tied:
                    b = best[len(words)]
                    if w > b:
                        return None
                    tied = w == b
                words.append(w)
    finally:
        for d in order:
            newid[d] = -1
    if tied:
        return best, order
    words[0] = len(order)
    return words, order


def chorded_cycle(n: int) -> Map:
    """The n-cycle with the chord 0 - n/2."""
    rotations = [[(i - 1) % n, (i + 1) % n] for i in range(n)]
    rotations[0].append(n // 2)
    rotations[n // 2].append(0)
    return from_rotations(rotations)


def assert_two_phase_root_code_matches_one_loop(m: Map, against: int | None = None) -> None:
    """Every root without ``best`` and with ``best`` the words of each other
    root (of ``against`` other roots, evenly spaced, when given): the same
    None, words and order as the one-loop traversal, and a tie returns
    ``best`` itself."""
    sigma, alpha = m.next_in_rotation, m.reverse
    D = m.dart_count
    newid, ids = [-1] * D, [-1] * D
    words = []
    for r in range(D):
        got = _root_code(sigma, alpha, r, newid)
        assert got == one_loop_root_code(sigma, alpha, r, ids)
        words.append(got[0])
    for r in range(D):
        others = range(D) if against is None else range(r + 1, r + 1 + D, D // against)
        for s in others:
            best = words[s % D]
            if best is words[r]:
                continue
            got = _root_code(sigma, alpha, r, newid, best)
            want = one_loop_root_code(sigma, alpha, r, ids, best)
            assert got == want
            if want is not None:
                assert (got[0] is best) == (want[0] is best)
    assert newid == [-1] * D


class TestTwoPhaseRootCode:
    """``_root_code`` compares only while it ties, as the one-loop traversal did."""

    def test_small_map_corpus_and_mirrors(self):
        for m in enumerate_connected_maps(7):
            for x in (m, m.mirror()):
                assert_two_phase_root_code_matches_one_loop(x)

    @pytest.mark.parametrize("n", range(10, 41))
    def test_stacked_triangulations(self, n):
        assert_two_phase_root_code_matches_one_loop(stacked_triangulation(n), against=16)

    def test_cycle_with_one_chord(self):
        # long near-ties: a root runs far before its first differing word
        assert_two_phase_root_code_matches_one_loop(chorded_cycle(200), against=16)


def test_canonical_rejects_a_disconnected_map():
    # an edge and a disjoint triangle: the old scan coded the edge alone
    m = from_rotations([[1], [0], [3, 4], [2, 4], [2, 3]])
    with pytest.raises(ValueError, match="connected"):
        canonical(m)


@pytest.mark.parametrize(
    "build, args",
    [(cycle_map, (50_000,)), (torus_grid, (100, 100))],
    ids=["cycle-100k-darts", "T100x100"],
)
def test_canonical_of_symmetric_maps_at_scale_ignores_dart_labels(build, args):
    # every root ties; the orbit pruning keeps these to a few traversals
    m = build(*args)
    perm = list(range(m.dart_count))
    random.Random(m.dart_count).shuffle(perm)
    assert canonical(relabel_darts(m, perm)) == canonical(m)


def test_canonical_at_scale_ignores_dart_labels():
    m = stacked_triangulation(400)
    perm = list(range(m.dart_count))
    random.Random(400).shuffle(perm)
    assert m.dart_count == 2388
    assert canonical(relabel_darts(m, perm)) == canonical(m)


@given(connected_simple_maps())
@settings(max_examples=60)
def test_mirror_is_an_involution(m):
    assert m.mirror().mirror() == m
    assert genus(m.mirror()) == genus(m)


@given(connected_simple_maps(max_vertices=4, max_extra_edges=3), st.randoms())
@settings(max_examples=60)
def test_bruteforce_iso_matches_codes_on_relabelings(m, rng):
    perm = list(range(m.dart_count))
    rng.shuffle(perm)
    other = relabel_darts(m, perm)
    assert maps_isomorphic_bruteforce(m, other)
    assert canonical_code(m) == canonical_code(other)


@given(
    connected_simple_maps(max_vertices=4, max_extra_edges=2),
    connected_simple_maps(max_vertices=4, max_extra_edges=2),
)
@settings(max_examples=80)
def test_bruteforce_iso_agrees_with_codes(a, b):
    assert maps_isomorphic_bruteforce(a, b) == (canonical_code(a) == canonical_code(b))


@given(
    st.integers(1, 7).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=6), min_size=n, max_size=n
        )
    )
)
@settings(max_examples=300)
def test_from_rotations_pairs_darts_by_occurrence(neighbor_lists):
    """The i-th dart u->w pairs with the i-th w->u, loop darts pair 1st with
    2nd, 3rd with 4th and so on, and only the darts left over are fixed."""
    m = from_rotations(neighbor_lists)
    occurrences: dict[tuple[int, int], list[int]] = {}
    for d, w in enumerate(w for nbrs in neighbor_lists for w in nbrs):
        occurrences.setdefault((m.vertex_of[d], w), []).append(d)
    for (u, w), darts in occurrences.items():
        partners = darts if u == w else occurrences.get((w, u), [])
        for rank, d in enumerate(darts):
            mate = rank ^ 1 if u == w else rank
            assert m.reverse[d] == (partners[mate] if mate < len(partners) else d)


def test_from_rotations_rejects_bad_input():
    with pytest.raises(ValueError, match="isolated"):
        from_rotations([[1], []])
    with pytest.raises(ValueError, match="unknown neighbor"):
        from_rotations([[5], [0]])
