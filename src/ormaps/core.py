"""Dart-based rotation systems for maps on orientable surfaces.

A map is a connected (multi)graph with a cyclic clockwise order of edge
ends around every vertex.  Every edge contributes two oppositely directed
darts, and the whole embedding is three parallel arrays over dart ids
0..2E-1:

* ``vertex_of[d]``: origin vertex of dart ``d``
* ``next_in_rotation[d]``: the next dart clockwise around the same origin
* ``reverse[d]``: the other dart of the same edge

Faces are the orbits of ``d -> next_in_rotation[reverse[d]]``, the face on
the left of each dart, and the genus follows from Euler's formula.
"""

from __future__ import annotations

import itertools
import re
import struct
from collections import Counter, deque
from collections.abc import Hashable, Mapping, Sequence
from functools import cached_property
from typing import NamedTuple


class RotParseError(ValueError):
    """Syntax or consistency error in ``.rot`` text, with source location."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)
        self.line = line
        self.column = column


def _invariant(ok: bool, what: str) -> None:
    """Raise ``RuntimeError(what)`` unless ``ok``: a broken library invariant.

    Used instead of ``assert`` so the check survives ``python -O`` and the
    CLI reports it as an internal error (exit 4).
    """
    if not ok:
        raise RuntimeError(what)


def _require_int(value: object, name: str, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` naming ``name`` unless value is an int; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{name} must be an integer, got {value!r}")


class Face(NamedTuple):
    """One facial walk: ``darts`` in walk order, starting at the minimal dart."""

    index: int
    darts: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.darts)


def _face_of(m: Map, f: Face | int, error: type[ValueError] = ValueError) -> Face:
    """The face of ``m`` that ``f`` names; ``error`` if it names none."""
    if isinstance(f, Face):
        if f.index >= len(m.faces) or m.faces[f.index].darts != f.darts:
            raise error("face does not belong to this map")
        return m.faces[f.index]
    _require_int(f, "a face index", error)
    if not 0 <= f < len(m.faces):
        raise error(f"no face with index {f}")
    return m.faces[f]


class ValidationReport(NamedTuple):
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems


class _MapArrays(NamedTuple):
    vertex_of: tuple[int, ...]
    next_in_rotation: tuple[int, ...]
    reverse: tuple[int, ...]


class Map(_MapArrays):
    """An embedded (multi)graph as a rotation system over darts.

    Instances are immutable; derived structure (rotations, faces, adjacency)
    is computed lazily and cached in the instance ``__dict__``, which is why
    this subclass of the three arrays' named tuple sets no ``__slots__``.
    """

    # -- basic counts ------------------------------------------------------

    @property
    def dart_count(self) -> int:
        return len(self.vertex_of)

    @property
    def edge_count(self) -> int:
        return len(self.vertex_of) // 2

    @cached_property
    def vertex_count(self) -> int:
        return max(self.vertex_of) + 1

    # -- per-vertex structure ----------------------------------------------

    @cached_property
    def rotations(self) -> tuple[tuple[int, ...], ...]:
        """Clockwise dart cycle at each vertex, starting at its minimal dart."""
        first: dict[int, int] = {}
        for d, v in enumerate(self.vertex_of):
            if v not in first:
                first[v] = d
        sigma, D = self.next_in_rotation, self.dart_count
        rots = []
        for v in range(self.vertex_count):
            start = first[v]
            cyc = [start]
            d = sigma[start]
            # bounded walk so malformed rotations cannot loop forever
            while d != start and len(cyc) <= D:
                cyc.append(d)
                d = sigma[d]
            rots.append(tuple(cyc))
        return tuple(rots)

    def degree(self, v: int) -> int:
        return len(self.rotations[v])

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        """Neighbor sets (multiplicities and loops collapsed)."""
        nbrs: list[set[int]] = [set() for _ in range(self.vertex_count)]
        vertex_of, alpha = self.vertex_of, self.reverse
        for d in range(self.dart_count):
            u = vertex_of[d]
            w = vertex_of[alpha[d]]
            if u != w:
                nbrs[u].add(w)
        return tuple(frozenset(s) for s in nbrs)

    # -- edges ---------------------------------------------------------------

    def edge_id(self, d: int) -> int:
        return min(d, self.reverse[d])

    @cached_property
    def edge_ids(self) -> tuple[int, ...]:
        alpha = self.reverse
        return tuple(d for d in range(self.dart_count) if d < alpha[d])

    def endpoints(self, e: int) -> tuple[int, int]:
        u, r = self.vertex_of[e], self.reverse[e]
        if r == e:
            raise ValueError(f"dart {e} at vertex {u} is dangling (paired with itself)")
        return u, self.vertex_of[r]

    def is_simple_graph(self) -> bool:
        seen = set()
        vertex_of, alpha = self.vertex_of, self.reverse
        for e in self.edge_ids:  # no dangling darts: e < alpha[e]
            u, w = vertex_of[e], vertex_of[alpha[e]]
            if u == w:
                return False
            key = (u, w) if u < w else (w, u)
            if key in seen:
                return False
            seen.add(key)
        return True

    # -- faces ---------------------------------------------------------------

    @cached_property
    def faces(self) -> tuple[Face, ...]:
        return facial_walks(self)

    @cached_property
    def face_index_of(self) -> tuple[int, ...]:
        idx = [0] * self.dart_count
        for f in self.faces:
            i = f.index
            for d in f.darts:
                idx[d] = i
        return tuple(idx)

    # -- whole-map transforms -------------------------------------------------

    def mirror(self) -> "Map":
        """The same graph with every rotation reversed (orientation flip)."""
        prev = [0] * self.dart_count
        for d, nd in enumerate(self.next_in_rotation):
            prev[nd] = d
        return Map(self.vertex_of, tuple(prev), self.reverse)


def facial_walks(m: Map) -> tuple[Face, ...]:
    """All facial walks, ordered by minimal dart and started at it."""
    seen = [False] * m.dart_count
    sigma = m.next_in_rotation
    alpha = m.reverse
    faces = []
    for d0 in range(m.dart_count):
        if seen[d0]:
            continue
        walk = []
        d = d0
        while not seen[d]:
            seen[d] = True
            walk.append(d)
            d = sigma[alpha[d]]
        faces.append(Face(len(faces), tuple(walk)))
    return tuple(faces)


def walk_vertices(m: Map, darts: Sequence[int]) -> tuple[int, ...]:
    vertex_of = m.vertex_of
    return tuple(vertex_of[d] for d in darts)


def face_size_multiset(m: Map) -> tuple[int, ...]:
    return tuple(sorted(f.size for f in m.faces))


def degree_multiset(m: Map) -> tuple[int, ...]:
    return tuple(sorted(len(r) for r in m.rotations))


def euler_characteristic(m: Map) -> int:
    return m.vertex_count - m.edge_count + len(m.faces)


def genus(m: Map) -> int:
    if m.dart_count % 2:
        raise ValueError("odd dart count; edge set is ill-defined")
    chi = euler_characteristic(m)
    if chi % 2:
        raise ValueError(f"Euler characteristic {chi} is odd; not a valid rotation system")
    g = (2 - chi) // 2
    if g < 0:
        raise ValueError(f"negative genus {g}; not a valid rotation system")
    return g


def validate(m: Map) -> ValidationReport:
    """Check every structural invariant; never raises, reports instead."""
    problems: list[str] = []
    vertex_of, sigma, alpha = m.vertex_of, m.next_in_rotation, m.reverse
    D = len(vertex_of)
    if D == 0:
        return ValidationReport(("map has no darts",))
    if len(sigma) != D or len(alpha) != D:
        return ValidationReport(("dart arrays differ in length",))

    vmax = max(vertex_of)
    present = set(vertex_of)
    for v in range(vmax + 1):
        if v not in present:
            problems.append(f"vertex {v} has no darts")

    involution_ok = True
    for d in range(D):
        r = alpha[d]
        if not 0 <= r < D:
            problems.append(f"reverse of dart {d} out of range")
            involution_ok = False
        elif r == d:
            problems.append(f"dart {d} at vertex {vertex_of[d]} is dangling (paired with itself)")
            involution_ok = False
        elif alpha[r] != d:
            problems.append(f"reverse is not an involution at dart {d}")
            involution_ok = False

    rotation_ok = sorted(sigma) == list(range(D))
    if not rotation_ok:
        problems.append("next_in_rotation is not a permutation of the darts")
    else:
        for d in range(D):
            if vertex_of[sigma[d]] != vertex_of[d]:
                problems.append(f"rotation successor of dart {d} lies at a different vertex")
                rotation_ok = False
                break
        if rotation_ok:
            cycles = Counter()
            seen = [False] * D
            for d0 in range(D):
                if seen[d0]:
                    continue
                cycles[vertex_of[d0]] += 1
                d = d0
                while not seen[d]:
                    seen[d] = True
                    d = sigma[d]
            for v, k in sorted(cycles.items()):
                if k > 1:
                    problems.append(f"vertex {v} has {k} rotation cycles instead of one")

    if rotation_ok:
        # connectivity of the dart action under rotation and reverse
        seen = [False] * D
        stack = [0]
        seen[0] = True
        reached = 1
        while stack:
            d = stack.pop()
            for e in (sigma[d], alpha[d]):
                if 0 <= e < D and not seen[e]:
                    seen[e] = True
                    reached += 1
                    stack.append(e)
        if reached != D:
            problems.append(f"map is disconnected ({reached} of {D} darts reachable)")

    if D % 2:
        problems.append("odd number of darts")
    elif rotation_ok and involution_ok:
        chi = vmax + 1 - D // 2 + len(m.faces)
        if chi % 2:
            problems.append(f"Euler characteristic {chi} is odd")
        elif chi > 2:
            problems.append(f"negative genus {(2 - chi) // 2}")
    return ValidationReport(tuple(problems))


# -- construction --------------------------------------------------------------


def _number_darts(rotations: Sequence[Sequence]) -> tuple[list[int], list[int]]:
    """Dart ids for per-vertex clockwise lists, vertex by vertex in rotation
    order: ``vertex_of`` and ``next_in_rotation``.  ValueError on an empty list."""
    vertex_of: list[int] = []
    nxt: list[int] = []
    for v, rot in enumerate(rotations):
        if not rot:
            raise ValueError(f"vertex {v} has an empty rotation (isolated vertices unsupported)")
        start = len(vertex_of)
        vertex_of += [v] * len(rot)
        nxt += range(start + 1, len(vertex_of))
        nxt.append(start)
    return vertex_of, nxt


def from_rotations(neighbor_lists: Sequence[Sequence[int]]) -> Map:
    """Build a map from 0-based clockwise neighbor lists.

    Parallel edges are paired by order of occurrence: the i-th dart u->w
    matches the i-th dart w->u, and loop darts at a vertex pair up first
    with second, third with fourth, and so on.  One pass does both: a dart
    u->w takes the oldest waiting dart w->u, or else waits itself.  Darts
    left unpaired are marked dangling (reverse maps them to themselves) so
    that validate() rejects the map while parsing still succeeds.
    """
    n = len(neighbor_lists)
    vertex_of, nxt = _number_darts(neighbor_lists)
    rev = list(range(len(vertex_of)))
    waiting: dict[tuple[int, int], deque[int]] = {}
    for d, w in enumerate(itertools.chain.from_iterable(neighbor_lists)):
        u = vertex_of[d]
        if not 0 <= w < n:
            raise ValueError(f"vertex {u} lists unknown neighbor {w}")
        partners = waiting.get((w, u))
        if partners:
            e = partners.popleft()
            rev[d], rev[e] = e, d
        else:
            waiting.setdefault((u, w), deque()).append(d)
    return Map(tuple(vertex_of), tuple(nxt), tuple(rev))


def assemble(
    rotations: Mapping[int, Sequence[Hashable]],
    mate: Mapping[Hashable, Hashable],
) -> tuple[Map, dict[Hashable, int]]:
    """Number the darts of a token-level rotation system.

    ``rotations`` maps each vertex (dense ids 0..n-1) to its clockwise list
    of dart tokens; ``mate`` pairs each token with its reverse.  Returns the
    map and the token -> dart id table.  Strict: unlike from_rotations this
    refuses incomplete pairings.
    """
    vertices = sorted(rotations)
    if vertices != list(range(len(vertices))):
        raise ValueError("vertex ids must be dense integers 0..n-1")
    lists = [rotations[v] for v in vertices]
    vertex_of, nxt = _number_darts(lists)
    ids: dict[Hashable, int] = {}
    for tok in itertools.chain.from_iterable(lists):
        if tok in ids:
            raise ValueError(f"dart token {tok!r} appears twice")
        ids[tok] = len(ids)
    rev = [-1] * len(vertex_of)
    for tok, d in ids.items():
        other = mate.get(tok)
        if other is None:
            raise ValueError(f"dart token {tok!r} has no mate")
        o = ids.get(other)
        if o is None:
            raise ValueError(f"mate of {tok!r} is not a known dart token")
        rev[d] = o
    for d, r in enumerate(rev):
        if rev[r] != d or r == d:
            raise ValueError("mate table is not a fixed-point-free involution")
    return Map(tuple(vertex_of), tuple(nxt), tuple(rev)), ids


# -- text format ----------------------------------------------------------------

_HEADER_RE = re.compile(r"^\s*vertices\s*:\s*(\d+)\s*$")
_ROW_RE = re.compile(r"^\s*(\d+)\s*:(.*)$")


def parse(text: str) -> Map:
    """Read the ``.rot`` format.

    Syntax errors raise RotParseError with the source location.  Semantic
    map problems (dangling darts, disconnection, bad Euler count) do not:
    parsing succeeds and validate() reports them.
    """
    declared: int | None = None
    rows: dict[int, list[int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        hash_at = raw.find("#")
        body = raw if hash_at < 0 else raw[:hash_at]
        if not body.strip():
            continue
        if declared is None:
            match = _HEADER_RE.match(body)
            if not match:
                raise RotParseError("expected 'vertices: N' header", lineno, 1)
            declared = int(match.group(1))
            if declared < 1:
                raise RotParseError("vertex count must be positive", lineno, 1)
            continue
        match = _ROW_RE.match(body)
        if not match:
            raise RotParseError("expected 'v: n1 n2 ...' rotation line", lineno, 1)
        v = int(match.group(1))
        if not 1 <= v <= declared:
            raise RotParseError(f"vertex id {v} outside 1..{declared}", lineno, 1)
        if v in rows:
            raise RotParseError(f"vertex {v} listed twice", lineno, 1)
        nbrs = []
        rest_offset = match.start(2)
        for tok in re.finditer(r"\S+", match.group(2)):
            column = rest_offset + tok.start() + 1
            if not tok.group().isdigit():
                raise RotParseError(f"bad neighbor token {tok.group()!r}", lineno, column)
            w = int(tok.group())
            if not 1 <= w <= declared:
                raise RotParseError(f"neighbor {w} outside 1..{declared}", lineno, column)
            nbrs.append(w - 1)
        if not nbrs:
            raise RotParseError(f"vertex {v} lists no neighbors", lineno, 1)
        rows[v] = nbrs
    if declared is None:
        raise RotParseError("empty input: missing 'vertices: N' header")
    for v in range(1, declared + 1):
        if v not in rows:
            raise RotParseError(f"no rotation line for vertex {v}")
    return from_rotations([rows[v] for v in range(1, declared + 1)])


def emit(m: Map) -> str:
    """Write the ``.rot`` format, normalized for byte-exact round-trips.

    Vertices ascending, each rotation starting at its minimal dart, single
    spaces, trailing newline.  The output is re-parsed and compared before
    returning; a dangling dart, or a multigraph whose pairing the occurrence
    rule cannot express, raises ValueError instead of being silently corrupted.
    """
    lines = [f"vertices: {m.vertex_count}"]
    order: list[int] = []
    for v in range(m.vertex_count):
        rot = m.rotations[v]
        order.extend(rot)
        lines.append(f"{v + 1}: " + " ".join(str(m.endpoints(d)[1] + 1) for d in rot))
    text = "\n".join(lines) + "\n"

    pos = {d: i for i, d in enumerate(order)}
    vertex_of, sigma, alpha = m.vertex_of, m.next_in_rotation, m.reverse
    expected = (
        tuple(vertex_of[d] for d in order),
        tuple(pos[sigma[d]] for d in order),
        tuple(pos[alpha[d]] for d in order),
    )
    back = parse(text)
    if (back.vertex_of, back.next_in_rotation, back.reverse) != expected:
        raise ValueError("parallel-edge pairing not representable in occurrence-paired text")
    return text


# -- isomorphism ------------------------------------------------------------------


def _root_code(
    sigma: Sequence[int],
    alpha: Sequence[int],
    root: int,
    newid: list[int],
    best: list[int] | None = None,
) -> tuple[list[int], list[int]] | None:
    """Traversal words from one root dart, with the dart visit order.

    ``sigma`` and ``alpha`` are a map's rotation successor and reverse
    arrays.  The words are the number of darts reached, then, for each dart
    in breadth-first visit order, the new ids of its rotation successor and
    its reverse.  Each word is final once emitted, so with a ``best`` word
    list the traversal runs in two phases.  While the root ties ``best`` it
    compares each word with ``best``'s word at the same place and keeps no
    words of its own: they are ``best``'s.  At its first larger word the
    root is dropped (None).  At its first smaller word the root has won: it
    copies ``best``'s words up to the dart being visited and finishes the
    traversal without comparing.  Without ``best`` only the finishing phase
    runs.  A root that ties ``best`` to the end returns ``best`` itself, the
    same list object, with its own visit order; the caller tells a tie from
    a win by that identity.  The word count is not compared; it is the same
    for every root of a connected map.

    ``newid`` is scratch space of one entry per dart, all -1; the darts this
    root touched are reset before returning, so one array serves every root.
    """
    newid[root] = 0
    order = [root]
    append = order.append
    start = 0
    try:
        if best is not None:
            j = 0  # best[j] is the word just compared
            for d in order:  # grows while it is read: a breadth-first visit
                e = sigma[d]
                w = newid[e]
                if w < 0:
                    w = newid[e] = len(order)
                    append(e)
                j += 1
                if w != best[j]:
                    break
                e = alpha[d]
                w = newid[e]
                if w < 0:
                    w = newid[e] = len(order)
                    append(e)
                j += 1
                if w != best[j]:
                    break
            else:
                return best, order
            if w > best[j]:
                return None
            start = (j - 1) // 2  # d is order[start]; visit it again below
        words = [0] if best is None else best[: 2 * start + 1]
        emit = words.append
        for d in itertools.islice(order, start, None):
            e = sigma[d]
            w = newid[e]
            if w < 0:
                w = newid[e] = len(order)
                append(e)
            emit(w)
            e = alpha[d]
            w = newid[e]
            if w < 0:
                w = newid[e] = len(order)
                append(e)
            emit(w)
    finally:
        for d in order:
            newid[d] = -1
    words[0] = len(order)
    return words, order


def _least_root(sigma: Sequence[int], alpha: Sequence[int]) -> tuple[list[int], list[int]]:
    """The smallest root's traversal words and visit order; see ``canonical``.

    Only roots that can still change the result are traversed.

    Candidates.  Word 1 of root r is the new id of ``sigma[r]``: 0 when r's
    vertex has degree 1, else 1.  So if some dart is a fixed point of
    ``sigma``, only such darts can be least.  Otherwise word 1 is 1 for
    every root and word 2, the new id of ``alpha[r]``, is 1 when
    ``alpha[r] == sigma[r]`` (a loop whose darts are adjacent in the
    rotation) and 2 otherwise.  If no dart has ``alpha[d] == sigma[d]``,
    every root starts (1, 2), and word 3 is the new id of
    ``sigma[sigma[r]]``: 0 at degree 2, else 2 (it is ``alpha[r]``) or 3.
    So if some dart has ``sigma[sigma[d]] == d``, only such darts can be
    least.  In every other case every dart is a candidate.  The rule stops
    at degree 2.  Carried on to degree 3 it fails on maps with loops or
    parallel edges, and carried on to degree 4 and above it fails on simple
    maps too.

    Orbit pruning.  A root that ties the best to the end gives an
    orientation-preserving automorphism, ``order[i] -> tied_order[i]``.
    Its cycles are merged into a union-find over darts whose class root is
    the least dart of the class; it is allocated at the first tie, so maps
    without ties pay nothing.  A candidate that is not the root of its
    class is skipped.  That changes nothing: an automorphism preserves
    degree, so the class lies inside the candidates; they are scanned in
    ascending order, so a smaller member was scanned or skipped for a
    still smaller one; and every root of a class has the same code, so the
    skipped root could at most tie, and a tie keeps the earlier root.

    The first candidate's traversal checks connectivity: ValueError unless
    it reaches every dart.
    """
    D = len(sigma)
    roots: Sequence[int] = [d for d, s in enumerate(sigma) if s == d]
    if not roots and all(a != s for a, s in zip(alpha, sigma)):
        roots = [d for d, s in enumerate(sigma) if sigma[s] == d]
    if not roots:
        roots = range(D)
    newid = [-1] * D
    best, order = _root_code(sigma, alpha, roots[0], newid)
    if len(order) < D:
        raise ValueError(f"canonical needs a connected map ({len(order)} of {D} darts reachable)")
    rep: list[int] | None = None
    for r in roots[1:]:
        if rep is not None and rep[r] != r:
            continue  # an automorphism maps a smaller root onto r
        found = _root_code(sigma, alpha, r, newid, best)
        if found is None:
            continue
        if found[0] is not best:
            best, order = found
            continue
        if rep is None:
            rep = list(range(D))
        for a, b in zip(order, found[1]):
            while rep[a] != a:  # path halving
                rep[a] = rep[rep[a]]
                a = rep[a]
            while rep[b] != b:
                rep[b] = rep[rep[b]]
                b = rep[b]
            if a < b:
                rep[b] = a
            elif b < a:
                rep[a] = b
    return best, order


def _renumber(seq: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``seq`` relabelled by first occurrence, and the relabelling itself:
    vertex v becomes ``perm[v]``.  ``seq`` uses the labels 0..V-1."""
    table: dict[int, int] = {}
    for v in seq:
        if v not in table:
            table[v] = len(table)
    perm = [0] * len(table)
    for v, new in table.items():
        perm[v] = new
    return tuple([table[v] for v in seq]), tuple(perm)


def _relabel(vertex_of: Sequence[int], words: list[int], order: list[int]) -> Map:
    """The map with dart ``order[i]`` renamed i and vertices numbered by first
    visit; ``words`` and ``order`` are one root's traversal (``_root_code``),
    whose words are the new map's rotation and reverse arrays."""
    return Map(
        _renumber([vertex_of[d] for d in order])[0], tuple(words[1::2]), tuple(words[2::2])
    )


def _pack(words: list[int]) -> bytes:
    """Big-endian code bytes: 16-bit words up to 65,535 darts, 32-bit above.

    ``words[0]`` is the dart count, so the code never overflows.
    """
    width = "H" if words[0] <= 0xFFFF else "I"
    return struct.pack(f">{len(words)}{width}", *words)


def canonical(m: Map) -> tuple[bytes, Map]:
    """Canonical code and canonical form, from one scan over the root darts.

    The code is the smallest root traversal code.  Equal codes exactly when
    the maps differ by a relabeling of darts and vertices that preserves
    rotations.  A map and its mirror may get different codes; compare
    against ``canonical(m.mirror())`` to test equivalence up to orientation
    reversal.  The form is the map relabeled in the visit order of a root
    that attains the code.  The code fixes the form: the form's rotation
    and reverse arrays are the code's words (``words[1::2]`` and
    ``words[2::2]``), and its vertices are numbered by first visit, so
    ``_relabel`` builds it from the words and the visit order.

    The map must be connected; ValueError otherwise.  Then every root
    reaches all D darts, every root's code has 2D + 1 words of one width,
    and comparing word lists in order is comparing the packed big-endian
    bytes.  So each root is compared with the best root so far while it is
    traversed (``_root_code``).  At its first word above the best, its code
    is larger whatever follows, and it is dropped; at its first word below,
    its code is smaller whatever follows, so it becomes the best and the
    rest of its traversal is not compared.  What is left is the
    minimum over every root, and a tie keeps the earlier root, as ``min``
    does.  ``_least_root`` traverses only the roots whose first words can
    be least and skips roots that an automorphism found on an earlier tie
    maps onto a smaller one, so maps on which every root ties, such as long
    cycles and square torus grids, cost a few traversals.  Only the
    winner's words are packed.  What stays quadratic is a map with long
    near-ties but few automorphisms, such as a long cycle with one chord:
    each root runs far before its first differing word, and the few ties
    prune little.
    """
    sigma, alpha = m.next_in_rotation, m.reverse
    best, order = _least_root(sigma, alpha)
    return _pack(best), _relabel(m.vertex_of, best, order)


def canonical_code(m: Map) -> bytes:
    """Orientation-preserving isomorphism invariant; see ``canonical``."""
    return _pack(_least_root(m.next_in_rotation, m.reverse)[0])


def canonical_form(m: Map) -> Map:
    """The relabeled map realizing canonical_code; see ``canonical``."""
    return canonical(m)[1]


def maps_isomorphic_bruteforce(a: Map, b: Map) -> bool:
    """Search for an explicit orientation-preserving dart bijection.

    Independent of canonical_code: tries every image for dart 0 and extends
    by the equivariance constraints, then re-checks the finished bijection
    on every dart.  Exponential blow-up is avoided because the extension is
    forced once the image of one dart is fixed (the map is connected).
    """
    D = a.dart_count
    if D != b.dart_count or a.vertex_count != b.vertex_count:
        return False
    sigma_a, alpha_a = a.next_in_rotation, a.reverse
    sigma_b, alpha_b = b.next_in_rotation, b.reverse
    for image in range(D):
        h = {0: image}
        stack = [0]
        ok = True
        while stack and ok:
            d = stack.pop()
            for fa, fb in ((sigma_a, sigma_b), (alpha_a, alpha_b)):
                x, y = fa[d], fb[h[d]]
                if x in h:
                    if h[x] != y:
                        ok = False
                        break
                else:
                    h[x] = y
                    stack.append(x)
        if not ok or len(h) != D or len(set(h.values())) != D:
            continue
        if all(
            h[sigma_a[d]] == sigma_b[h[d]] and h[alpha_a[d]] == alpha_b[h[d]]
            for d in range(D)
        ):
            return True
    return False
