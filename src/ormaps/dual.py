"""Dual maps, their simplicity diagnosis, and cut structure.

The dual of a map keeps the same darts and the same edge involution; its
vertices are the faces of the original, and the rotation at a dual vertex
follows the facial walk.  Edge e and its dual e* therefore share one id,
which makes the edge bijection the identity.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .connectivity import _components
from .core import Face, Map, _face_of, _invariant


class DualReport(NamedTuple):
    dual: Map
    loops: tuple[int, ...]  # edge ids with the same face on both sides
    multi_pairs: tuple[tuple[int, int], ...]  # face index pairs sharing >= 2 edges

    @property
    def verdict(self) -> str:
        if self.loops:
            return "loop"
        if self.multi_pairs:
            return "multi"
        return "simple"

    @property
    def simple(self) -> bool:
        return not self.loops and not self.multi_pairs


class CutDecomposition(NamedTuple):
    """A dual-separating edge set with one chosen side and its closed walks.

    ``walks`` lists the facial walks of the embedded subgraph formed by K,
    restricted to the darts whose left face lies in ``X_f``; together they
    visit every K edge exactly once.
    """

    K: tuple[int, ...]
    X_f: frozenset[int]
    walks: tuple[tuple[int, ...], ...]
    V_of_K: frozenset[int]


def dual(m: Map) -> DualReport:
    """Construct the dual map and diagnose its simplicity.

    Loops and multi-edges are reported, never collapsed; downstream checks
    need to know exactly which faces cause them.
    """
    fidx = m.face_index_of
    sigma, alpha = m.next_in_rotation, m.reverse
    sigma_star = tuple(sigma[alpha[d]] for d in range(m.dart_count))
    dual_map = Map(fidx, sigma_star, alpha)

    loops = []
    between = Counter()
    for e in m.edge_ids:
        a, b = fidx[e], fidx[alpha[e]]
        if a == b:
            loops.append(e)
        else:
            between[(a, b) if a < b else (b, a)] += 1
    multi = tuple(sorted(pair for pair, k in between.items() if k >= 2))
    return DualReport(dual_map, tuple(loops), multi)


def is_dual_separating(m: Map, K, side: frozenset | set | None = None):
    """Decide whether K* is an edge cut of the dual; decompose it if so.

    Returns a CutDecomposition or None.  The chosen side defaults to the
    bipartition class containing face 0; pass ``side`` (a face index set
    equal to either class) to pick the other one.  Both the bipartition and
    the check that V(K) separates its sides come from
    ``connectivity._components``.
    """
    kset = set(K)
    if not kset <= set(m.edge_ids):
        raise ValueError("K contains ids that are not edges of the map")
    if not kset:
        return None
    K = tuple(sorted(kset))

    # K* is an edge cut exactly when the faces 2-colour so that the colour
    # changes across the edges of K and nowhere else.  Face f gets a copy
    # 2f + c for each colour c; an edge joins equal colours off K and
    # opposite ones on K.  The colouring exists unless some component holds
    # both copies of a face, and the dual is connected, so then face 0's.
    fidx = m.face_index_of
    sigma, alpha = m.next_in_rotation, m.reverse
    face_count = len(m.faces)
    copies: list[list[int]] = [[] for _ in range(2 * face_count)]
    for e in m.edge_ids:
        flip = e in kset
        for c in (0, 1):
            a, b = 2 * fidx[e] + c, 2 * fidx[alpha[e]] + (c ^ flip)
            copies[a].append(b)
            copies[b].append(a)
    colour_of_0 = _components(copies)[0]
    if 1 in colour_of_0:
        return None
    X_f = frozenset(f for f in range(face_count) if 2 * f in colour_of_0)

    if side is not None:
        side = frozenset(side)
        complement = frozenset(range(face_count)) - X_f
        if side == complement:
            X_f = side
        elif side != X_f:
            raise ValueError("side is not a class of the cut bipartition")

    k_darts = set()
    for e in K:
        k_darts.add(e)
        k_darts.add(alpha[e])
    chosen = {e if fidx[e] in X_f else alpha[e] for e in K}

    def walk_successor(d: int) -> int:
        x = sigma[alpha[d]]
        while x not in k_darts:
            x = sigma[x]
        return x

    walks = []
    visited = set()
    for d0 in sorted(chosen):
        if d0 in visited:
            continue
        walk = []
        d = d0
        while d not in visited:
            visited.add(d)
            walk.append(d)
            d = walk_successor(d)
            _invariant(d in chosen, "walk left the chosen dart set")
        _invariant(d == d0, "walk closed on a different dart")
        walks.append(tuple(walk))

    vertex_of = m.vertex_of
    v_of_k = frozenset(vertex_of[d] for d in k_darts)

    # separation property: with V(K) removed, no component of the primal
    # graph may touch faces on both sides of the bipartition
    for comp in _components(m.adjacency, v_of_k):
        sides = {fidx[d] in X_f for u in comp for d in m.rotations[u]}
        _invariant(len(sides) == 1, "V(K) fails to separate the sides")
    _invariant(len(v_of_k) <= len(K), "V(K) has more vertices than K has edges")

    return CutDecomposition(K, X_f, tuple(walks), v_of_k)


def cut_to_edge_cut(g: Map, cut_vertices) -> tuple[frozenset[int], tuple[int, ...]]:
    """Turn a vertex cut of (usually) a dual map into a small edge cut.

    Among all component splits of g minus the cut (the components come from
    ``connectivity._components``), returns the side X with the fewest
    crossing edges (ties: smaller X, then smallest sorted vertex
    ids).  Every crossing edge touches the cut, and the cut size never
    exceeds half the degree sum of the cut vertices; works on multigraphs,
    where the degree of a dual vertex is its face size.
    """
    C = frozenset(cut_vertices)
    vertices = set(range(g.vertex_count))
    if not C or not C <= vertices:
        raise ValueError("cut vertices outside the map")
    if C == vertices:
        raise ValueError("cut covers every vertex")

    components = _components(g.adjacency, C)
    if len(components) < 2:
        raise ValueError("vertex set is not a cut-set")

    vertex_of, alpha = g.vertex_of, g.reverse
    best = None
    for part in components:
        for X in (C | part, vertices - part):
            K = tuple(
                sorted(e for e in g.edge_ids if (vertex_of[e] in X) != (vertex_of[alpha[e]] in X))
            )
            key = (len(K), len(X), tuple(sorted(X)))
            if best is None or key < best[0]:
                best = (key, frozenset(X), K)

    _, X, K = best
    _invariant(
        all(vertex_of[e] in C or vertex_of[alpha[e]] in C for e in K),
        "a crossing edge misses the cut",
    )
    _invariant(
        len(K) <= sum(g.degree(v) for v in C) // 2,
        "the edge cut exceeds half the degree sum of the cut",
    )
    return X, K


def doubly_intersecting(m: Map, f: Face | int, f2: Face | int) -> bool:
    """Whether one face's walk meets the other's vertices at two places or more.

    A vertex visited twice counts twice; the test is applied in both
    directions, so a triangle against a large face revisiting one shared
    vertex still qualifies.  A face index out of range, or a Face of another
    map, raises ``ValueError``.
    """
    fa, fb = _face_of(m, f), _face_of(m, f2)
    if fa.index == fb.index:
        raise ValueError("doubly_intersecting needs two distinct faces")
    vertex_of = m.vertex_of
    va = {vertex_of[d] for d in fa.darts}
    vb = {vertex_of[d] for d in fb.darts}
    hits_ab = sum(1 for d in fa.darts if vertex_of[d] in vb)
    hits_ba = sum(1 for d in fb.darts if vertex_of[d] in va)
    return hits_ab >= 2 or hits_ba >= 2
