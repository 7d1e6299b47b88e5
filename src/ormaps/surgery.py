"""Cut-and-paste operations on maps.

Every operation rebuilds the rotation system through core.assemble and then
checks its own arithmetic (vertex, edge, face and genus deltas), so a bug
cannot silently hand back a surface of the wrong kind.  The module ends with
two composite pipelines that manufacture certified witnesses: maps whose
simple dual has a cut vertex.
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from typing import NamedTuple

from .bounds import one_cut_size_threshold
from .connectivity import _disconnects, vertex_connectivity
from .core import (
    Face,
    Map,
    _face_of,
    _invariant,
    assemble,
    face_size_multiset,
    from_rotations,
    genus,
    validate,
    walk_vertices,
)
from .dual import dual


class SurgeryError(ValueError):
    """A surgery precondition failed or a construction missed its target."""


class GlueResult(NamedTuple):
    map: Map
    seam_edges: tuple[int, ...]
    vertex_map_a: dict[int, int]
    vertex_map_b: dict[int, int]


class FillResult(NamedTuple):
    map: Map
    inner_face_index: int


class InsertResult(NamedTuple):
    map: Map
    big_face_index: int
    small_face_index: int


class PipelineOutcome(NamedTuple):
    """A certified witness and its provenance as ``key: value`` lines."""

    map: Map
    report: tuple[str, ...]


# -- small helpers ---------------------------------------------------------------


def _require_simple_cycle(m: Map, f: Face) -> tuple[int, ...]:
    verts = walk_vertices(m, f.darts)
    if f.size < 3 or len(set(verts)) != f.size:
        raise SurgeryError(f"face {f.index} is not a simple cycle")
    return verts


def _rotation_from(m: Map, d: int) -> list[int]:
    """Darts at d's vertex in rotation order, starting just after d, without d."""
    cyc = m.rotations[m.vertex_of[d]]
    i = cyc.index(d)
    return list(cyc[i + 1 :] + cyc[:i])


def _editable(m: Map) -> tuple[dict[int, list], dict]:
    """m's rotations and mates as assemble input, to be edited before reassembly."""
    return {u: list(rot) for u, rot in enumerate(m.rotations)}, dict(enumerate(m.reverse))


def _simple_triangles(m: Map) -> list[Face]:
    return [f for f in m.faces if f.size == 3 and len(set(walk_vertices(m, f.darts))) == 3]


def _insert_before(cycle: Sequence, anchor, new: Sequence) -> list:
    out: list = []
    for d in cycle:
        if d == anchor:
            out.extend(new)
        out.append(d)
    return out


def _require_counts(out: Map, V: int, E: int, F: int, g: int) -> None:
    """Raise unless out has V vertices, E edges, F faces and genus g."""
    got = (out.vertex_count, out.edge_count, len(out.faces))
    _invariant(
        got == (V, E, F) and genus(out) == g,
        f"surgery broke its counts: (V, E, F) = {got}, expected {(V, E, F)} at genus {g}",
    )


def _disjoint_union(a: Map, b: Map) -> Map:
    """a and b side by side; b's darts and vertices follow a's."""
    Da, Va = a.dart_count, a.vertex_count
    return Map(
        a.vertex_of + tuple(v + Va for v in b.vertex_of),
        a.next_in_rotation + tuple(d + Da for d in b.next_in_rotation),
        a.reverse + tuple(d + Da for d in b.reverse),
    )


def _has_chord(m: Map, verts: Sequence[int]) -> bool:
    """Whether two vertices of the cycle verts are adjacent off the cycle."""
    vset, k = set(verts), len(verts)
    return any(
        (m.adjacency[v] & vset) - {verts[j - 1], verts[(j + 1) % k]} for j, v in enumerate(verts)
    )


def _faces_with_vertices(m: Map, size: int, vset: set[int]) -> list[int]:
    return [
        f.index
        for f in m.faces
        if f.size == size and set(walk_vertices(m, f.darts)) == vset
    ]


# -- elementary operations -------------------------------------------------------


def delete_vertex(m: Map, v: int) -> Map:
    """Remove one vertex with its edges, keeping the remaining rotations.

    The corners that met at v open into a hole; when they belonged to
    pairwise distinct faces those faces merge into one and the genus is
    unchanged, otherwise Euler's formula decides.
    """
    if not 0 <= v < m.vertex_count:
        raise SurgeryError(f"no vertex {v}")
    vertex_of, alpha = m.vertex_of, m.reverse
    kept = {d for d in range(m.dart_count) if vertex_of[d] != v and vertex_of[alpha[d]] != v}
    rotations: dict[int, list] = {}
    for u in range(m.vertex_count):
        if u == v:
            continue
        rot = [d for d in m.rotations[u] if d in kept]
        if not rot:
            raise SurgeryError(f"deleting vertex {v} isolates vertex {u}")
        rotations[u - 1 if u > v else u] = rot
    if not rotations:
        raise SurgeryError("cannot delete the only vertex")
    mate = {d: alpha[d] for d in kept}
    out, _ = assemble(rotations, mate)
    if not validate(out).ok:
        raise SurgeryError(f"deleting vertex {v} disconnects the map")
    return out


def subdivide_edges(m: Map, edges: Sequence[int]) -> Map:
    """Subdivide several distinct edges of the original map.

    New vertex V + i lies on the i-th edge in ascending order of smaller
    dart, and its first dart faces that smaller dart.
    """
    for e in edges:
        if not 0 <= e < m.dart_count:
            raise SurgeryError(f"no dart {e}")
    pending = sorted({m.edge_id(e) for e in edges})
    if len(pending) != len(edges):
        raise SurgeryError("edge list names an edge twice")
    if not pending:
        return m
    rotations, mate = _editable(m)
    for i, d0 in enumerate(pending):
        mids = [("mid", i, 0), ("mid", i, 1)]
        rotations[m.vertex_count + i] = mids
        for d, mid in zip((d0, m.reverse[d0]), mids):
            mate[d] = mid
            mate[mid] = d
    return assemble(rotations, mate)[0]


def wedge_at_vertex(a: Map, va: int, b: Map, vb: int) -> Map:
    """One-point union: b's rotation at vb is spliced after a's at va.

    Exactly one face of each map merges with one of the other (the two
    faces whose corner sits at the splice point), so F = Fa + Fb - 1 and
    the genus adds.
    """
    if not 0 <= va < a.vertex_count:
        raise SurgeryError(f"no vertex {va} in the first map")
    if not 0 <= vb < b.vertex_count:
        raise SurgeryError(f"no vertex {vb} in the second map")
    u = _disjoint_union(a, b)
    # b's vertex vb merges into va; b's other vertices keep their order after a's
    rotations = [list(rot) for rot in u.rotations]
    rotations[va] += rotations.pop(a.vertex_count + vb)
    out, _ = assemble(dict(enumerate(rotations)), dict(enumerate(u.reverse)))
    V, E = a.vertex_count + b.vertex_count - 1, a.edge_count + b.edge_count
    _require_counts(out, V, E, len(a.faces) + len(b.faces) - 1, genus(a) + genus(b))
    return out


def wheel(rim: int) -> Map:
    """Plane wheel: hub 0 joined to the rim cycle 1..rim."""
    if rim < 3:
        raise SurgeryError("a wheel needs at least three rim vertices")
    rots: list[list[int]] = [list(range(1, rim + 1))]
    for v in range(1, rim + 1):
        prv = (v - 2) % rim + 1
        nxt = v % rim + 1
        rots.append([0, prv, nxt])
    return from_rotations(rots)


def k4_wedge() -> Map:
    """Two plane complete maps on four vertices sharing a single vertex."""
    return wedge_at_vertex(wheel(3), 0, wheel(3), 0)


# -- the witness core ------------------------------------------------------------

_GADGET_FACES = {3: (3, 6, 9), 5: (5, 5, 10), 6: (3, 3, 6, 12), 7: (7, 7, 14)}


def cycle_square_gadget_raw(c: int) -> Map:
    """Cycle plus chords to both second neighbors, with one fixed rotation.

    Vertex i's clockwise order is i-2, i-1, i+1, i+2 (mod c), and dart
    4*i+s is slot s of that list.  For c = 3 and c = 4 the chord family
    collides with cycle edges, producing parallel pairs; callers subdivide
    those away.
    """
    if c < 3:
        raise SurgeryError("the gadget needs at least three vertices")
    rotations = {i: [(i, s) for s in range(4)] for i in range(c)}
    mate: dict = {}
    for i in range(c):
        step = (i + 1) % c
        jump = (i + 2) % c
        mate[(i, 2)] = (step, 1)
        mate[(step, 1)] = (i, 2)
        mate[(i, 3)] = (jump, 0)
        mate[(jump, 0)] = (i, 3)
    out, _ = assemble(rotations, mate)
    return out


def cycle_square_gadget(c: int) -> Map:
    """The core of the one-cut witness: one big face plus small satellite faces.

    Face sizes come out as {9,6,3} for c=3, {2c,c,c} for c in {5,7} and
    {12,6,3,3} for c=6, with every small face sharing edges only with the
    big one.  Both properties are re-checked here after construction.
    """
    if c not in _GADGET_FACES:
        raise SurgeryError(f"no gadget for connectivity {c}; supported: 3, 5, 6, 7")
    out = cycle_square_gadget_raw(c)
    if c == 3:
        out = subdivide_edges(out, [4 * i + 3 for i in range(3)])
    _invariant(face_size_multiset(out) == _GADGET_FACES[c], "gadget face sizes are off")
    big = max(out.faces, key=lambda f: f.size).index
    fidx, alpha = out.face_index_of, out.reverse
    for e in out.edge_ids:
        sides = {fidx[e], fidx[alpha[e]]}
        _invariant(big in sides, "a satellite face touched something other than the core")
    return out


# -- gluing ----------------------------------------------------------------------


def glue_faces(
    a: Map,
    b: Map,
    face_a: Face | int,
    face_b: Face | int,
    offset: int = 0,
    mirror_b: bool = False,
    *,
    require_simple: bool = True,
) -> GlueResult:
    """Remove one face from each map and sew the boundaries together.

    The maps are treated as disjoint copies (passing the same object twice
    glues two copies).  Both boundaries must be simple cycles of equal
    length m; afterwards V = Va+Vb-m, E = Ea+Eb-m, F = Fa+Fb-2, so the
    genus adds.  Every seam edge separates a former a-face from a former
    b-face.

    ``offset`` rotates the second walk: vertex i of ``face_a``'s walk lands
    on vertex (offset - i) of ``face_b``'s.  The subtraction keeps the two
    orientations consistent across the seam; ``mirror_b`` flips ``b``
    first, reaching the alignments the subtraction alone cannot.
    """
    fa = _face_of(a, face_a, SurgeryError)
    fb = _face_of(b, face_b, SurgeryError)
    if mirror_b:
        d0 = fb.darts[0]
        b = b.mirror()
        fb = b.faces[b.face_index_of[b.reverse[d0]]]
    _require_simple_cycle(a, fa)
    _require_simple_cycle(b, fb)
    if fb.size != fa.size:
        raise SurgeryError(f"cannot glue a {fa.size}-gon to a {fb.size}-gon")
    # a's faces keep their indices in the union; b's follow them
    u = _disjoint_union(a, b)
    fb = u.faces[len(a.faces) + fb.index]
    res = _sew(u, u.faces[fa.index], fb, offset, genus(a) + genus(b), require_simple)
    vmap, Va = res.vertex_map_a, a.vertex_count
    vmap_b = {w: vmap[Va + w] for w in range(b.vertex_count)}
    return GlueResult(res.map, res.seam_edges, {v: vmap[v] for v in range(Va)}, vmap_b)


def glue_faces_self(
    m: Map, face_a: Face | int, face_b: Face | int, offset: int = 0, *, require_simple: bool = True
) -> GlueResult:
    """Sew two vertex-disjoint faces of one map together, adding a handle.

    Same walk alignment rule as glue_faces; V and E drop by the face size,
    F drops by 2, and the genus rises by exactly one.
    """
    fa = _face_of(m, face_a, SurgeryError)
    fb = _face_of(m, face_b, SurgeryError)
    if fa.index == fb.index:
        raise SurgeryError("cannot glue a face to itself")
    ua = _require_simple_cycle(m, fa)
    ub = _require_simple_cycle(m, fb)
    if fb.size != fa.size:
        raise SurgeryError(f"cannot glue a {fa.size}-gon to a {fb.size}-gon")
    if set(ua) & set(ub):
        raise SurgeryError("the faces share vertices")
    return _sew(m, fa, fb, offset, genus(m) + 1, require_simple)


def _sew(m: Map, fa: Face, fb: Face, offset: int, g: int, require_simple: bool) -> GlueResult:
    """Drop two vertex-disjoint, equal-size simple faces of m and identify their walks.

    Vertex i of fa's walk lands on vertex (offset - i) of fb's, and fb's
    vertices disappear into fa's.  The result must come out with genus g.
    Both vertex maps of the GlueResult are the same map from m's vertices.
    """
    darts_a, darts_b = fa.darts, fb.darts
    ua = walk_vertices(m, darts_a)
    ub = walk_vertices(m, darts_b)
    size = fa.size
    psi = [(offset - i) % size for i in range(size)]

    gone = set(ub)
    kept = [u for u in range(m.vertex_count) if u not in gone]
    newid = {u: i for i, u in enumerate(kept)}
    vmap = dict(newid)
    for i in range(size):
        vmap[ub[psi[i]]] = newid[ua[i]]

    on_a = set(ua)
    rotations = {newid[u]: list(m.rotations[u]) for u in kept if u not in on_a}
    for i in range(size):
        rotations[newid[ua[i]]] = _rotation_from(m, darts_a[i]) + _rotation_from(
            m, darts_b[psi[i]]
        )

    # the faces' own darts sit in no rotation, so assemble never reads their
    # mates; the darts facing them across the boundary pair up along the seam
    alpha = m.reverse
    mate = dict(enumerate(alpha))
    seam_darts = []
    for i in range(size):
        ra = alpha[darts_a[i]]
        rb = alpha[darts_b[(psi[i] - 1) % size]]
        mate[ra] = rb
        mate[rb] = ra
        seam_darts.append(ra)

    out, ids = assemble(rotations, mate)
    _require_counts(out, m.vertex_count - size, m.edge_count - size, len(m.faces) - 2, g)
    _invariant(validate(out).ok, "sewing produced an invalid map")
    if require_simple:
        if any(u == w for u, w in map(out.endpoints, out.edge_ids)):
            raise SurgeryError("gluing created a loop")
        if not out.is_simple_graph():
            raise SurgeryError("gluing created parallel edges")
    seam = tuple(sorted(out.edge_id(ids[d]) for d in seam_darts))
    return GlueResult(out, seam, vmap, vmap)


# -- filling a big face ----------------------------------------------------------


def interior_fill(host: Map, face: Face | int, c: int, l: int, *, verify: bool = True) -> FillResult:
    """Plant an l-cycle of new vertices inside a big face, fanned to the rim.

    The boundary, a chordless simple cycle of size at least l*(c-1), splits
    into l arcs; inner vertex i fans out to every vertex of arc i, with the
    last arc absorbing the remainder.  All created faces are triangles
    except the inner l-gon, which stays chordless and meets each face in at
    most one edge.  With ``verify`` the host must be c-connected and the
    result is checked to still be.
    """
    f = _face_of(host, face, SurgeryError)
    if l < 3:
        raise SurgeryError("the inner cycle needs length at least 3")
    if c < 2:
        raise SurgeryError("the connectivity target must be at least 2")
    verts = _require_simple_cycle(host, f)
    cp = f.size
    if cp < l * (c - 1):
        raise SurgeryError(f"face of size {cp} is too small; need {l * (c - 1)}")
    if _has_chord(host, verts):
        raise SurgeryError("face has a chord")
    if verify and vertex_connectivity(host) < c:
        raise SurgeryError(f"host is not {c}-connected")

    arcs = [list(range(i * (c - 1), (i + 1) * (c - 1) + 1)) for i in range(l - 1)]
    arcs.append(list(range((l - 1) * (c - 1), cp + 1)))  # index cp wraps to vertex 0

    inserts: dict[int, list] = {j: [] for j in range(cp)}
    for i, arc in enumerate(arcs):
        for j in arc:
            inserts[j % cp].append((i, j))
    for j, entries in inserts.items():
        if len(entries) == 2:
            # the arc that also covers the previous rim vertex owns the
            # incoming boundary edge and must come first in the corner
            entries.sort(key=lambda e: (e[1] - 1) not in arcs[e[0]])

    rotations, mate = _editable(host)
    for j in range(cp):
        new = [("naf", i, t) for i, t in inserts[j]]
        rotations[verts[j]] = _insert_before(rotations[verts[j]], f.darts[j], new)
    for i, arc in enumerate(arcs):
        w = host.vertex_count + i
        rotations[w] = (
            [("cw", i)] + [("fan", i, t) for t in reversed(arc)] + [("ccw", i)]
        )

    for i in range(l):
        mate[("cw", i)] = ("ccw", (i + 1) % l)
        mate[("ccw", (i + 1) % l)] = ("cw", i)
    for i, arc in enumerate(arcs):
        for t in arc:
            mate[("fan", i, t)] = ("naf", i, t)
            mate[("naf", i, t)] = ("fan", i, t)

    out, ids = assemble(rotations, mate)
    inner = out.face_index_of[ids[("cw", 0)]]
    V, E, F = host.vertex_count + l, host.edge_count + cp + 2 * l, len(host.faces) + cp + l
    _require_counts(out, V, E, F, genus(host))
    _invariant(out.faces[inner].size == l, "the filled face has the wrong size")
    expected = sorted([*face_size_multiset(host), l] + [3] * (cp + l))
    expected.remove(cp)
    _invariant(list(face_size_multiset(out)) == expected, "fill face sizes are off")
    # the inner face stays chordless and meets each neighbor face just once
    inner_verts = walk_vertices(out, out.faces[inner].darts)
    _invariant(not _has_chord(out, inner_verts), "the filled face has a chord")
    fidx, alpha = out.face_index_of, out.reverse
    outside = [fidx[alpha[d]] for d in out.faces[inner].darts]
    _invariant(len(set(outside)) == l, "the filled face meets a neighbor face twice")
    if verify:
        _invariant(vertex_connectivity(out) >= c, "fill lost the connectivity it promised")
    _invariant(validate(out).ok, "interior fill produced an invalid map")
    return FillResult(out, inner)


# -- threading a cycle through triangles ------------------------------------------

# the cycle length, and so the triangle and pivot count, of every threading
_THREADED = 6


def insert_cycle_in_triangles(
    m: Map, triangles: Sequence[Face | int], pivots: Sequence[int]
) -> InsertResult:
    """Thread a 6-cycle through six vertex-disjoint triangular faces.

    Each new edge runs pivot to pivot and both of its darts sit in the host
    triangle's corner there.  The six triangles open up into a single
    24-gon, a new hexagon appears inside the cycle sharing edges only with
    that 24-gon, F drops by 4 and the genus climbs by exactly 5.
    """
    if len(triangles) != _THREADED or len(pivots) != _THREADED:
        raise SurgeryError("need exactly six triangles and six pivots")
    faces = [_face_of(m, t, SurgeryError) for t in triangles]
    seen: set[int] = set()
    for f in faces:
        vs = walk_vertices(m, f.darts)
        if f.size != 3 or len(set(vs)) != 3:
            raise SurgeryError(f"face {f.index} is not a triangle")
        if set(vs) & seen:
            raise SurgeryError("the triangles share a vertex")
        seen |= set(vs)
    for i, f in enumerate(faces):
        if pivots[i] not in walk_vertices(m, f.darts):
            raise SurgeryError(f"pivot {pivots[i]} is not on triangle {f.index}")
    for i in range(6):
        p, q = pivots[i], pivots[(i + 1) % 6]
        if q in m.adjacency[p]:
            raise SurgeryError(f"pivots {p} and {q} are adjacent; the new edge would be doubled")

    rotations, mate = _editable(m)
    for i in range(6):
        dep = next(d for d in faces[i].darts if m.vertex_of[d] == pivots[i])
        rotations[pivots[i]] = _insert_before(
            rotations[pivots[i]], dep, [("out", i), ("back", i)]
        )
    for i in range(6):
        mate[("out", i)] = ("back", (i + 1) % 6)
        mate[("back", (i + 1) % 6)] = ("out", i)

    out, ids = assemble(rotations, mate)
    big = out.face_index_of[ids[("out", 0)]]
    small = out.face_index_of[ids[("back", 0)]]
    _invariant(
        (out.faces[big].size, out.faces[small].size) == (24, 6),
        "cycle insertion face sizes are off",
    )
    _require_counts(out, m.vertex_count, m.edge_count + 6, len(m.faces) - 4, genus(m) + 5)
    fidx, alpha = out.face_index_of, out.reverse
    for d in out.faces[small].darts:
        _invariant(fidx[alpha[d]] == big, "the hexagon meets a face other than the 24-gon")
    _invariant(validate(out).ok, "cycle insertion produced an invalid map")
    return InsertResult(out, big, small)


# -- triangulation growth ----------------------------------------------------------


def stack_vertex(m: Map, face: Face | int) -> Map:
    """Put one new vertex inside a triangular face, joined to its corners."""
    f = _face_of(m, face, SurgeryError)
    if f.size != 3:
        raise SurgeryError("can only stack inside a triangle")
    vs = _require_simple_cycle(m, f)
    rotations, mate = _editable(m)
    for j in range(3):
        rotations[vs[j]] = _insert_before(rotations[vs[j]], f.darts[j], [("up", j)])
    rotations[m.vertex_count] = [("down", 0), ("down", 2), ("down", 1)]
    for j in range(3):
        mate[("up", j)] = ("down", j)
        mate[("down", j)] = ("up", j)
    out, _ = assemble(rotations, mate)
    _require_counts(out, m.vertex_count + 1, m.edge_count + 3, len(m.faces) + 2, genus(m))
    return out


def stacked_triangulation(n: int) -> Map:
    """A plane triangulation on n vertices grown by breadth-first stacking.

    Faces are refined oldest-first, which spreads the new vertices out, so
    large instances contain many pairwise disjoint triangles.
    """
    if n < 4:
        raise SurgeryError("triangulations start at four vertices")
    m = wheel(3)
    queue = deque(frozenset(walk_vertices(m, f.darts)) for f in m.faces)
    while m.vertex_count < n:
        triple = queue.popleft()
        face = m.faces[_faces_with_vertices(m, 3, triple)[0]]
        vs = walk_vertices(m, face.darts)
        w = m.vertex_count
        m = stack_vertex(m, face.index)
        for pair in ((vs[0], vs[1]), (vs[1], vs[2]), (vs[2], vs[0])):
            queue.append(frozenset((*pair, w)))
    return m


def find_disjoint_triangles(
    m: Map, *, separated: bool = False
) -> tuple[tuple[Face, ...], tuple[int, ...]] | None:
    """Search for six vertex-disjoint triangular faces with a usable pivot cycle.

    Returns (faces, pivots) where consecutive pivots (cyclically) are never
    adjacent, or None.  With ``separated`` no two picked triangles may touch
    a common face (which later keeps any third face from sharing two edges
    with the opened-up 24-gon) and the pivots must be pairwise non-adjacent,
    so that a complete-graph cap can land on them without doubling an edge.
    """
    tris = _simple_triangles(m)
    tri_verts = {f.index: walk_vertices(m, f.darts) for f in tris}
    fidx, alpha = m.face_index_of, m.reverse
    nbr_faces = {f.index: frozenset(fidx[alpha[d]] for d in f.darts) for f in tris}

    def assign_pivots(chosen: list[Face]) -> tuple[int, ...] | None:
        pivots: list[int] = []

        def clashes(p: int, i: int) -> bool:
            if separated:
                return any(p in m.adjacency[q] for q in pivots)
            return bool(i) and p in m.adjacency[pivots[i - 1]]

        def go(i: int) -> bool:
            if i == _THREADED:
                return separated or pivots[0] not in m.adjacency[pivots[-1]]
            for p in tri_verts[chosen[i].index]:
                if clashes(p, i):
                    continue
                pivots.append(p)
                if go(i + 1):
                    return True
                pivots.pop()
            return False

        return tuple(pivots) if go(0) else None

    chosen: list[Face] = []
    used: set[int] = set()
    claimed: list[frozenset[int]] = []

    def pick(start: int) -> tuple[tuple[Face, ...], tuple[int, ...]] | None:
        if len(chosen) == _THREADED:
            pivots = assign_pivots(chosen)
            if pivots is not None:
                return tuple(chosen), pivots
            return None
        for idx in range(start, len(tris)):
            f = tris[idx]
            vs = set(tri_verts[f.index])
            if vs & used:
                continue
            footprint = nbr_faces[f.index] | {f.index}
            if separated and any(footprint & c for c in claimed):
                continue
            chosen.append(f)
            used.update(vs)
            claimed.append(footprint)
            hit = pick(idx + 1)
            if hit is not None:
                return hit
            chosen.pop()
            used.difference_update(vs)
            claimed.pop()
        return None

    return pick(0)


# -- witness pipelines --------------------------------------------------------------


def check_fill_ingredient(m: Map, l: int, c: int) -> tuple[str, ...]:
    """Problems keeping m from serving as the l-face gluing ingredient.

    Wanted: a simple c-connected map whose faces are all triangles except
    one chordless l-gon (for l = 3, all triangles).
    """
    report = validate(m)
    if not report.ok:
        return tuple(report.problems)
    problems: list[str] = []
    if not m.is_simple_graph():
        problems.append("graph is not simple")
    sizes = face_size_multiset(m)
    if l == 3:
        if any(s != 3 for s in sizes):
            problems.append("faces other than triangles present")
    elif sizes.count(l) != 1 or any(s not in (3, l) for s in sizes):
        problems.append(f"need exactly one {l}-gon among triangles, found {sizes}")
    else:
        f = next(f for f in m.faces if f.size == l)
        verts = walk_vertices(m, f.darts)
        if len(set(verts)) != l:
            problems.append("glue face is not a simple cycle")
        elif _has_chord(m, verts):
            problems.append("glue face has a chord")
    kappa = vertex_connectivity(m)
    if kappa < c:
        problems.append(f"connectivity {kappa} below {c}")
    return tuple(problems)


def _witness_problems(m: Map, size: int, c: int | None) -> list[str]:
    """Problems keeping m from certifying a dual cut vertex at one size-gon.

    Wanted: connectivity exactly c (unchecked when c is None), every face
    a triangle except one size-gon, a simple dual, and that face a cut
    vertex of the dual.
    """
    problems: list[str] = []
    if c is not None:
        kappa = vertex_connectivity(m)
        if kappa != c:
            problems.append(f"connectivity {kappa}, expected {c}")
    odd = [f for f in m.faces if f.size != 3]
    shaped = len(odd) == 1 and odd[0].size == size
    if not shaped:
        problems.append(
            f"face sizes {face_size_multiset(m)}; expected one {size}-gon among triangles"
        )
    d = dual(m)
    if not d.simple:
        problems.append(f"dual is not simple ({d.verdict})")
    elif shaped and not _disconnects(d.dual.adjacency, frozenset({odd[0].index})):
        problems.append(f"dual has no cut vertex at the {size}-gon")
    return problems


def one_cut_witness_problems(m: Map, c: int) -> tuple[str, ...]:
    """Everything keeping m from certifying the one-cut witness for c.

    Wanted: connectivity exactly c, a simple dual with a cut vertex at the
    unique non-triangle face, and that face of the threshold size.
    """
    report = validate(m)
    if not report.ok:
        return tuple(report.problems)
    return tuple(_witness_problems(m, one_cut_size_threshold(c), c))


def _alignments(a: Map, b: Map, fa: int, fb: int, size: int):
    """The gluings of a's face fa onto b's size-gon fb that succeed, in (offset, mirror) order."""
    for offset in range(size):
        for mirror in (False, True):
            try:
                res = glue_faces(a, b, fa, fb, offset, mirror)
            except SurgeryError:
                continue
            yield res


def _certified(
    candidates: Iterable[Map],
    size: int,
    c: int | None,
    failure: str,
    head: Sequence[str],
    genus_note: str = "",
    big_face: str = "the big face",
) -> PipelineOutcome:
    """The first candidate with no _witness_problems, reported after the head lines.

    With none, SurgeryError(failure) names the last candidate's problems.
    """
    problems: Sequence[str] = ()
    for m in candidates:
        problems = _witness_problems(m, size, c)
        if not problems:
            return PipelineOutcome(
                m,
                (
                    *head,
                    f"vertices: {m.vertex_count}",
                    f"edges: {m.edge_count}",
                    f"faces: {len(m.faces)}",
                    f"genus: {genus(m)}{genus_note}",
                    f"big-face-size: {size}",
                    f"dual: simple, cut vertex at {big_face}",
                    "checks: passed",
                ),
            )
    raise SurgeryError(failure + (f"; last attempt: {'; '.join(problems)}" if problems else ""))


def _glue_face_size(m: Map) -> int:
    sizes = {f.size for f in m.faces if f.size != 3}
    if not sizes:
        return 3
    if len(sizes) > 1:
        raise SurgeryError(f"ingredient has several non-triangle face sizes {sorted(sizes)}")
    return sizes.pop()


def _min_face_of_size(m: Map, size: int, *, skip: int | None = None) -> int:
    for f in m.faces:
        if f.size == size and f.index != skip:
            return f.index
    raise SurgeryError(f"no face of size {size} left to fill")


def build_one_cut_witness(c: int, ingredients: Sequence[Map] = ()) -> PipelineOutcome:
    """Manufacture a certified dual-one-cut witness of connectivity c.

    c=1 wedges two plane K4 copies; c=3 dresses the three-vertex gadget
    with a wheel and a K4.  For c in {5,6,7} the high-connectivity
    ingredients cannot be generated at this scale and must be supplied: two
    maps each carrying one chordless c-gon among triangles (c in {5,7}), or
    a hexagon ingredient plus a 6-connected torus triangulation owning two
    triangles at distance two or more (c=6).  Every candidate assembly is
    verified from scratch; alignments are tried until one passes.
    """
    if c == 1:
        if ingredients:
            raise SurgeryError("the c=1 witness takes no ingredients")
        candidates: Iterable[Map] = [k4_wedge()]
        construction = "two plane K4 copies wedged at a vertex"
    elif c in (3, 5, 7):
        if c == 3 and not ingredients:
            ingredients = (wheel(6), wheel(3))
        candidates = _fill_gadget(c, ingredients)
        construction = f"gadget on {c} vertices with both satellites glued over"
    elif c == 6:
        candidates = _cap_gadget_six(ingredients)
        construction = "six-vertex gadget capped by hexagon ingredient and doubled torus triangles"
    else:
        raise SurgeryError(f"no witness construction for connectivity {c}")
    failure = f"no gluing alignment certified the c={c} witness"
    head = (f"construction: {construction}", f"connectivity: {c}")
    return _certified(candidates, one_cut_size_threshold(c), c, failure, head)


def _fill_gadget(c: int, ingredients: Sequence[Map]) -> Iterator[Map]:
    if len(ingredients) != 2:
        raise SurgeryError(
            f"missing ingredients: the c={c} witness needs two maps with faces "
            f"{sorted(_GADGET_FACES[c])[:-1]} to glue over the gadget"
        )
    targets = list(_GADGET_FACES[c][:-1])  # satellite sizes, ascending
    # (glue face size, ingredient), ascending by size
    sized = sorted(((_glue_face_size(m), m) for m in ingredients), key=lambda p: p[0])
    if [size for size, _ in sized] != targets:
        raise SurgeryError(
            f"ingredient glue faces {[size for size, _ in sized]} "
            f"do not match the gadget satellites {targets}"
        )
    for size, ing in sized:
        problems = check_fill_ingredient(ing, size, c)
        if problems:
            raise SurgeryError(f"{size}-gon ingredient: " + "; ".join(problems))

    big_size = _GADGET_FACES[c][-1]

    def attempts(current: Map, step: int):
        if step == len(sized):
            yield current
            return
        size, ing = sized[step]
        target = _min_face_of_size(current, size, skip=_min_face_of_size(current, big_size))
        source = _min_face_of_size(ing, size)
        for res in _alignments(current, ing, target, source, size):
            yield from attempts(res.map, step + 1)

    return attempts(cycle_square_gadget(c), 0)


def _cap_gadget_six(ingredients: Sequence[Map]) -> Iterator[Map]:
    if len(ingredients) != 2:
        raise SurgeryError(
            "missing ingredients: the c=6 witness needs a hexagon ingredient and "
            "a 6-connected torus triangulation with two triangles at distance two"
        )
    hexing, torus = ingredients
    for name, m, l in (("hexagon", hexing, 6), ("torus", torus, 3)):
        problems = check_fill_ingredient(m, l, 6)
        if problems:
            raise SurgeryError(f"{name} ingredient: " + "; ".join(problems))
    pairs = list(_distant_triangle_pairs(torus))
    if not pairs:
        raise SurgeryError("torus ingredient has no two triangles at distance two")

    gadget = cycle_square_gadget(6)
    hex_face = _min_face_of_size(gadget, 6)
    tri_sets = [
        set(walk_vertices(gadget, f.darts)) for f in gadget.faces if f.size == 3
    ]
    hex_source = _min_face_of_size(hexing, 6)

    def attempts():
        for step1 in _alignments(gadget, hexing, hex_face, hex_source, 6):
            # gadget vertex ids survive both gluings, so the two satellite
            # triangles stay findable by their vertex sets
            for first in _faces_with_vertices(step1.map, 3, tri_sets[0]):
                for tf, tg in pairs:
                    for step2 in _alignments(step1.map, torus, first, tf.index, 3):
                        image = {step2.vertex_map_b[v] for v in walk_vertices(torus, tg.darts)}
                        seconds = _faces_with_vertices(step2.map, 3, image)
                        remaining = _faces_with_vertices(step2.map, 3, tri_sets[1])
                        for gi, ri, off3 in itertools.product(seconds, remaining, range(3)):
                            try:
                                res = glue_faces_self(step2.map, gi, ri, off3)
                            except SurgeryError:
                                continue
                            yield res.map

    return attempts()


def _distant_triangle_pairs(m: Map):
    for f, g in itertools.combinations(_simple_triangles(m), 2):
        a = set(walk_vertices(m, f.darts))
        b = set(walk_vertices(m, g.darts))
        if a & b:
            continue
        if any(w in m.adjacency[v] for v in a for w in b):
            continue
        yield f, g


def _torus_hexagon_cap() -> Map:
    # deferred import: the searcher has no reason to know about surgery
    from .search import triangular_complete_map

    k7 = triangular_complete_map(7)
    cap = delete_vertex(k7, 0)
    _require_counts(cap, 6, 15, 9, 1)
    _invariant(face_size_multiset(cap) == (3,) * 8 + (6,), "torus cap face sizes are off")
    return cap


def one_cut_witness_from_triangulation(
    host: Map,
    triangles: Sequence[Face | int] | None = None,
    pivots: Sequence[int] | None = None,
    expect_connectivity: int | None = None,
) -> PipelineOutcome:
    """Run the thread-a-cycle-then-cap-it pipeline on a triangulation.

    Six disjoint triangles of the simple triangular host (found
    automatically when not given) receive a new 6-cycle, opening them into
    a 24-gon plus a fresh hexagon; the hexagon is then capped with the
    one-big-face torus map cut out of the complete 7-vertex triangulation.
    The genus rises by exactly six and the dual of the result is simple
    with a cut vertex at the 24-gon; both facts are verified, not assumed.
    """
    report = validate(host)
    if not report.ok:
        raise SurgeryError("host: " + "; ".join(report.problems))
    if any(f.size != 3 for f in host.faces):
        raise SurgeryError("host is not a triangulation")
    if not host.is_simple_graph():
        raise SurgeryError("host has loops or parallel edges")
    if (triangles is None) != (pivots is None):
        raise SurgeryError("give both triangles and pivots, or neither")
    if triangles is None:
        found = find_disjoint_triangles(host, separated=True)
        if found is None:
            raise SurgeryError("no six well-separated triangles with a pivot cycle")
        triangles, pivots = found
    ins = insert_cycle_in_triangles(host, triangles, pivots)
    cap = _torus_hexagon_cap()
    caps = _alignments(ins.map, cap, ins.small_face_index, _min_face_of_size(cap, 6), 6)
    return _certified(
        (res.map for res in caps),
        24,
        expect_connectivity,
        "no cap alignment certified the pipeline output",
        (
            "construction: 6-cycle threaded through six triangles, hexagon capped",
            f"host-vertices: {host.vertex_count}",
            f"host-genus: {genus(host)}",
            f"pivots: {' '.join(map(str, pivots))}",
        ),
        " (host + 6)",
        "the 24-gon",
    )
