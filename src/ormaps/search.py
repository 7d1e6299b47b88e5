"""Exhaustive search for small maps under declarative constraints.

Two engines cover the workloads.  The spanning-walk engine fixes the
boundary walk of a distinguished face first and then grows the rotation
system vertex by vertex; it powers ``enumerate_empty`` and the ten-case
certification report.  The face-gluing engine matches polygon sides when
the complete face multiset is known in advance; it powers the witness
searches, the spanning-9-gon search, and the torus embedding of the
complete graph.  Both engines pass each completion through one check
(``_finished_map``) and stop on one signal (``_Stop``), which the budget
raises, or a caller that has what it wanted.  Every find is re-checked by
predicates built only from the core and dual primitives, so generation
and verification share no code path.  Budgets count DFS nodes and
wall-clock time, and exhaustion is always reported, never silently
turned into a verdict.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from operator import itemgetter

from .connectivity import vertex_connectivity
from .core import (
    Map,
    _invariant,
    _least_root,
    _pack,
    _relabel,
    _renumber,
    canonical,
    canonical_form,
    from_rotations,
    genus,
    validate,
    walk_vertices,
)
from .dual import doubly_intersecting, dual


class SearchError(ValueError):
    """A search request that cannot be run as stated."""


# -- budgets ---------------------------------------------------------------------


@dataclass(frozen=True)
class SearchBudget:
    """Limits for one search run; ``None`` means unlimited."""

    max_nodes: int | None = None
    max_seconds: float | None = None

    def __post_init__(self) -> None:
        _check_not_negative(max_nodes=self.max_nodes, max_seconds=self.max_seconds)


class _Stop(Exception):
    """The budget ran out, or the caller has what it wanted."""


class _Clock:
    """Node and wall-clock accounting shared by one search run."""

    __slots__ = ("nodes", "max_nodes", "deadline", "start")

    def __init__(self, budget: SearchBudget | None):
        self.nodes = 0
        self.max_nodes = budget.max_nodes if budget else None
        self.start = time.monotonic()
        self.deadline = (
            self.start + budget.max_seconds
            if budget and budget.max_seconds is not None
            else None
        )

    def tick(self) -> None:
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise _Stop
        # time syscalls are comparatively slow; sample them
        if self.deadline is not None and self.nodes & 1023 == 0:
            if time.monotonic() > self.deadline:
                raise _Stop

    @property
    def seconds(self) -> float:
        return time.monotonic() - self.start


# -- declarative specs -----------------------------------------------------------


@dataclass(frozen=True)
class EmptyCircuitSpec:
    """What to enumerate: maps on at most k vertices spanned by one face of
    size k (circuit mode) or by two edge-disjoint faces with sizes summing
    to k (pair mode), with a loop-free dual whose multi-edges all touch the
    spanning face(s).

    Side constraints narrow the family.  ``distinct_neighbors`` demands the
    k faces across the spanning edges be pairwise different;
    ``single_neighbor`` demands they all be one face; ``detached_face``
    demands some face share no edge with the spanning face; ``min_faces``
    puts a floor on the face count.  The vertex and edge bounds carve out
    sub-ranges for bounded emptiness sweeps.
    """

    k: int
    mode: str = "circuit"
    pair_sizes: tuple[int, int] | None = None
    distinct_neighbors: bool = False
    single_neighbor: bool = False
    detached_face: bool = False
    min_faces: int = 0
    min_vertices: int | None = None
    max_vertices: int | None = None
    max_edges: int | None = None

    def __post_init__(self) -> None:
        if self.k < 3:
            raise SearchError("spanning size must be at least 3")
        if self.mode not in ("circuit", "pair"):
            raise SearchError(f"unknown mode {self.mode!r}")
        if self.distinct_neighbors and self.single_neighbor:
            raise SearchError("distinct-neighbors and single-neighbor exclude each other")
        if self.detached_face and self.mode != "circuit":
            raise SearchError("detached-face applies to circuit mode only")
        if self.pair_sizes is not None:
            if self.mode != "pair":
                raise SearchError("pair_sizes needs pair mode")
            a, b = self.pair_sizes
            if a + b != self.k or min(a, b) < 3 or a > b:
                raise SearchError("pair sizes must be >= 3, ordered, and sum to k")
        _check_not_negative(
            min_faces=self.min_faces,
            min_vertices=self.min_vertices,
            max_vertices=self.max_vertices,
            max_edges=self.max_edges,
        )


@dataclass(frozen=True)
class WitnessSpec:
    """A connectivity witness to hunt for: a ``connectivity``-connected map
    whose faces are a distinguished pair with sizes summing to ``pair_sum``
    plus triangles, subject to dual and pair demands, inside a hard vertex
    and edge budget."""

    connectivity: int
    pair_sum: int
    dual_demands: tuple[str, ...] = ("simple", "has-2-cut")
    pair_demand: str = "shares-two-vertices"
    max_vertices: int = 8
    max_edges: int = 21

    _DUAL = ("simple", "has-1-cut", "has-2-cut")
    _PAIR = ("shares-two-vertices", "doubly-intersecting", "none")

    def __post_init__(self) -> None:
        if self.connectivity < 1:
            raise SearchError("connectivity must be positive")
        if self.pair_sum < 6:
            raise SearchError("two faces cannot sum below 6")
        for demand in self.dual_demands:
            if demand not in self._DUAL:
                raise SearchError(f"unknown dual demand {demand!r}")
        if self.pair_demand not in self._PAIR:
            raise SearchError(f"unknown pair demand {self.pair_demand!r}")
        _check_not_negative(max_vertices=self.max_vertices, max_edges=self.max_edges)


def _check_not_negative(**bounds: float | None) -> None:
    """Reject a negative size bound, naming it by its spec key; 0 is allowed."""
    for name, value in bounds.items():
        if value is not None and value < 0:
            raise SearchError(f"{name.replace('_', '-')} must not be negative, got {value}")


def _parse_kv(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise SearchError(f"expected key=value, got {chunk!r}")
        key, value = chunk.split("=", 1)
        key = key.strip().lower()
        if key in out:
            raise SearchError(f"duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _int_field(fields: dict[str, str], key: str) -> int | None:
    if key not in fields:
        return None
    try:
        return int(fields.pop(key))
    except ValueError:
        raise SearchError(f"{key} must be an integer") from None


def _take_bounds(fields: dict[str, str], kwargs: dict, *keys: str) -> None:
    """Move the integer size bounds ``keys`` into kwargs; reject any key left over."""
    for key in keys:
        value = _int_field(fields, key)
        if value is not None:
            kwargs[key.replace("-", "_")] = value
    if fields:
        raise SearchError(f"unknown keys: {', '.join(sorted(fields))}")


def parse_empty_spec(text: str) -> EmptyCircuitSpec:
    """Build an EmptyCircuitSpec from its text form.

    Grammar: semicolon-separated ``key=value`` entries.  Keys: ``k``
    (required), ``mode`` (``circuit`` | ``pair`` | ``pair:a+b``),
    ``constraints`` (comma list of ``distinct-neighbors`` |
    ``single-neighbor`` | ``detached-face`` | ``min-faces:N``),
    ``min-vertices``, ``max-vertices``, ``max-edges``.  Example:
    ``k=6; mode=circuit; constraints=distinct-neighbors``.
    """
    fields = _parse_kv(text)
    k = _int_field(fields, "k")
    if k is None:
        raise SearchError("missing required key 'k'")
    kwargs: dict = {"k": k}
    mode = fields.pop("mode", "circuit")
    if mode.startswith("pair:"):
        try:
            a, b = (int(part) for part in mode[5:].split("+"))
        except ValueError:
            raise SearchError("pair sizes must look like pair:3+4") from None
        kwargs["mode"] = "pair"
        kwargs["pair_sizes"] = (a, b) if a <= b else (b, a)
    elif mode in ("circuit", "pair"):
        kwargs["mode"] = mode
    else:
        raise SearchError(f"unknown mode {mode!r}")
    constraints = fields.pop("constraints", "")
    for item in filter(None, (c.strip() for c in constraints.split(","))):
        if item == "distinct-neighbors":
            kwargs["distinct_neighbors"] = True
        elif item == "single-neighbor":
            kwargs["single_neighbor"] = True
        elif item == "detached-face":
            kwargs["detached_face"] = True
        elif item.startswith("min-faces:"):
            try:
                kwargs["min_faces"] = int(item.split(":", 1)[1])
            except ValueError:
                raise SearchError("min-faces needs an integer") from None
        else:
            raise SearchError(f"unknown constraint {item!r}")
    _take_bounds(fields, kwargs, "min-vertices", "max-vertices", "max-edges")
    return EmptyCircuitSpec(**kwargs)


def parse_witness_spec(text: str) -> WitnessSpec:
    """Build a WitnessSpec from its text form.

    Grammar: ``c=2; pair-sum=7`` plus optional ``dual`` (comma list of
    ``simple`` | ``has-1-cut`` | ``has-2-cut``), ``pair`` (one of
    ``shares-two-vertices`` | ``doubly-intersecting`` | ``none``),
    ``max-vertices``, ``max-edges``.
    """
    fields = _parse_kv(text)
    c = _int_field(fields, "c")
    total = _int_field(fields, "pair-sum")
    if c is None or total is None:
        raise SearchError("witness specs need both 'c' and 'pair-sum'")
    kwargs: dict = {"connectivity": c, "pair_sum": total}
    if "dual" in fields:
        kwargs["dual_demands"] = tuple(
            d.strip() for d in fields.pop("dual").split(",") if d.strip()
        )
    if "pair" in fields:
        kwargs["pair_demand"] = fields.pop("pair")
    _take_bounds(fields, kwargs, "max-vertices", "max-edges")
    return WitnessSpec(**kwargs)


# -- independent membership checker ------------------------------------------------


def _spanning_candidates(m: Map, spec: EmptyCircuitSpec):
    """Candidate spanning faces (circuit) or face pairs (pair mode)."""
    everything = frozenset(range(m.vertex_count))
    if spec.mode == "circuit":
        for f in m.faces:
            if f.size == spec.k and set(walk_vertices(m, f.darts)) == everything:
                yield (f,)
        return
    for fa, fb in itertools.combinations(m.faces, 2):
        a, b = sorted((fa.size, fb.size))
        if a + b != spec.k or a < 3:
            continue
        if spec.pair_sizes is not None and (a, b) != spec.pair_sizes:
            continue
        if {m.edge_id(d) for d in fa.darts} & {m.edge_id(d) for d in fb.darts}:
            continue
        covered = set(walk_vertices(m, fa.darts)) | set(walk_vertices(m, fb.darts))
        if covered == everything:
            yield (fa, fb)


def empty_map_problems(m: Map, spec: EmptyCircuitSpec) -> tuple[str, ...]:
    """Why ``m`` is not a member of the family ``spec`` describes; () if it is.

    Built from the dual and core primitives only, so it audits the
    enumerator's output without sharing any generator state.
    """
    report = validate(m)
    if not report.ok:
        return ("invalid map: " + "; ".join(report.problems),)
    if not m.is_simple_graph():
        return ("underlying graph is not simple",)
    problems = []
    if m.vertex_count > spec.k:
        problems.append(f"{m.vertex_count} vertices exceed the spanning size {spec.k}")
    if spec.min_vertices is not None and m.vertex_count < spec.min_vertices:
        problems.append(f"fewer than {spec.min_vertices} vertices")
    if spec.max_vertices is not None and m.vertex_count > spec.max_vertices:
        problems.append(f"more than {spec.max_vertices} vertices")
    if spec.max_edges is not None and m.edge_count > spec.max_edges:
        problems.append(f"more than {spec.max_edges} edges")
    if spec.min_faces and len(m.faces) < spec.min_faces:
        problems.append(f"fewer than {spec.min_faces} faces")
    if problems:
        return tuple(problems)
    rep = dual(m)
    if rep.loops:
        return ("dual has a loop",)
    fidx = m.face_index_of
    for cand in _spanning_candidates(m, spec):
        allowed = {f.index for f in cand}
        if any(not (set(pair) & allowed) for pair in rep.multi_pairs):
            continue
        across = [fidx[m.reverse[d]] for f in cand for d in f.darts]
        if spec.distinct_neighbors and len(set(across)) != spec.k:
            continue
        if spec.single_neighbor and len(set(across)) != 1:
            continue
        if spec.detached_face:
            others = set(range(len(m.faces))) - allowed - set(across)
            if not others:
                continue
        return ()
    kind = "spanning face" if spec.mode == "circuit" else "spanning face pair"
    return (f"no {kind} of size {spec.k} satisfies the side constraints",)


# -- boundary-walk shapes -----------------------------------------------------------


def _shape_transforms(walks: tuple[tuple[int, ...], ...]):
    """Every relabelling of a walk shape that keeps its geometry.

    Each walk is rotated to any start, all walks are read backwards or
    not, and two walks of one size may swap; the result is renumbered by
    first occurrence.  Yields ``(walks, perm, reverses)``: the relabelled
    walks, the vertex permutation that produced them, and whether the
    walks were read backwards, which mirrors the map.
    """
    for reverses in (False, True):
        bases = [w[::-1] for w in walks] if reverses else list(walks)
        orders = [bases]
        if len(bases) == 2 and len(bases[0]) == len(bases[1]):
            orders.append(bases[::-1])
        for order in orders:
            for shifts in itertools.product(*(range(len(w)) for w in order)):
                flat: list[int] = []
                for w, i in zip(order, shifts):
                    flat.extend(w[i:] + w[:i])
                seq, perm = _renumber(flat)
                a = len(order[0])
                yield ((seq[:a], seq[a:]) if len(order) == 2 else (seq,)), perm, reverses


def _walk_shapes(spec: EmptyCircuitSpec) -> list[tuple[tuple[int, ...], ...]]:
    """The boundary-walk shapes of ``spec``, one per class, sorted.

    A shape's walks, read one after another, form a vertex sequence in
    first-occurrence form: it starts at 0, and each new vertex is one above
    the largest so far.  Every such sequence of length k is cut into walks
    of the split's sizes; it is a shape when no edge is a loop and no two
    edges are the same, counting each walk's closing edge.  A vertex equal
    to its predecessor inside a walk, or above the vertex bound, is skipped
    while the sequences grow.  Of each class only the least image under
    ``_shape_transforms`` is kept.
    """
    if spec.mode == "circuit":
        splits = [(spec.k,)]
    elif spec.pair_sizes:
        splits = [spec.pair_sizes]
    else:
        splits = [(a, spec.k - a) for a in range(3, spec.k // 2 + 1)]
    min_v = spec.min_vertices or 0
    max_v = spec.k if spec.max_vertices is None else spec.max_vertices
    shapes = []
    for sizes in splits:
        starts = set(itertools.accumulate(sizes[:-1], initial=0))
        grown: list[tuple[tuple[int, ...], int]] = [((), -1)]  # (sequence, top vertex)
        for p in range(spec.k):
            grown = [
                (seq + (u,), max(top, u))
                for seq, top in grown
                for u in range(min(top + 2, max_v))
                if p in starts or u != seq[-1]
            ]
        for seq, top in grown:
            if top + 1 < min_v:
                continue
            walks = (seq,) if len(sizes) == 1 else (seq[: sizes[0]], seq[sizes[0] :])
            if any(w[0] == w[-1] for w in walks):
                continue
            edges = {(a, b) if a < b else (b, a) for w in walks for a, b in zip(w[-1:] + w, w)}
            if len(edges) < spec.k:
                continue
            if walks == min(t[0] for t in _shape_transforms(walks)):
                shapes.append(walks)
    return sorted(shapes)


def _shape_group(walks: tuple[tuple[int, ...], ...]) -> list[tuple[tuple[int, ...], bool]]:
    """The stabiliser of a shape: the ``(perm, reverses)`` relabellings from
    ``_shape_transforms`` that give the walks back."""
    return [(perm, rev) for w, perm, rev in _shape_transforms(walks) if w == walks]


# -- the spanning-walk engine --------------------------------------------------------


def _finished_map(vertex_of, rotation, reverse) -> Map | None:
    """The map an engine completed, validated once; None when it is disconnected.

    Pair walks and glued polygons may fail to join up; a disconnected
    completion is no map of any searched family, and its genus count is
    meaningless.  Any other problem means the engine broke an invariant.
    """
    m = Map(tuple(vertex_of), tuple(rotation), tuple(reverse))
    problems = validate(m).problems
    if not problems:
        return m
    if any(p.startswith("map is disconnected") for p in problems) and all(
        p.startswith(("map is disconnected", "negative genus")) for p in problems
    ):
        return None
    raise RuntimeError("search produced a broken map: " + "; ".join(problems))


def _run_walk_engine(
    walks: tuple[tuple[int, ...], ...], spec: EmptyCircuitSpec, clock: _Clock, sink
) -> None:
    """Every completion of one walk shape into a member map, fed to ``sink``.

    Each vertex rotation is built one link at a time, and every face orbit
    is checked the instant its last link appears, so a forbidden face cuts
    off all orderings and edge choices that would share the same prefix.

    Darts: position p of the walks read one after another has out dart p
    and reverse k + p, placed at the next vertex of the same walk.
    Internal darts are numbered upward from 2k in pairs, so the reverse of
    dart d >= 2k is d ^ 1, and the darts in use are those below ``top``:
    the edge count is ``top // 2``.  The graph stays simple, so it has at
    most V(V-1)/2 edges, and every array is allocated once per shape.

    The face permutation is phi(d) = succ[alpha[d]], so a link
    ``succ[tail] = head`` adds the phi-edge ``alpha[tail] -> head``.  The
    spanning out darts (those below k) form the known spanning orbits.
    Their links, the corner blocks, are set before the search starts, so
    they are never chained and no link ever targets them.  Every other
    dart lies on one partial orbit: a chain of phi-edges, a single dart at
    first.  A closed face therefore holds no dart below k, and its back
    darts are those below 2k.

    The chain-end invariant: ``start_of`` and ``end_of`` are valid only at
    chain ends, ``end_of[s]`` at a start s and ``start_of[e]`` at an end e.
    A link that joins two chains rewrites those two entries in O(1), and
    its undo writes them back.  An entry is never written while its dart
    is interior, so undoing links in reverse order restores every end
    exactly.  Here the chain edge of ``succ[tail] = head`` is
    ``alpha[tail] -> head``, so the link closes a face exactly when
    ``start_of[alpha[tail]] == head``.  Any other link is three writes and
    its undo two, done in place by ``arrange``; only a closing link calls
    ``close_face``, which walks the face.  A link to a fresh dart never
    closes.  ``succ`` is never cleared, because only closed orbits and the
    finished map read it.

    The shape's stabiliser, which ``_shape_group`` picks from the
    ``_shape_transforms`` relabellings, maps completions onto completions;
    an element that reverses orientation maps the mirror image.  Every
    check above is invariant under it, so only the least completion of
    each orbit is kept, by lex-leader pruning (McKay,
    J. Algorithms 1998): each time vertex v closes, ``least_so_far``
    compares the code positions now decided on both sides and cuts the
    branch as soon as an image is smaller.  The elements still tied are
    kept per depth: v's close reads ``tied[v]`` and writes ``tied[v + 1]``.
    Each comparison's verdict is memoised per code position p, keyed by
    the element and the code of the vertex it maps onto p, and the memo of
    p is replaced when p closes again.  So this state, like ``succ``, is
    overwritten and never undone, and it holds at most one memo per vertex.
    Chiral twins fold together, so the caller restores mirror images after
    a complete run.
    """
    seq: list[int] = []
    next_pos: list[int] = []
    for walk in walks:
        base, n = len(seq), len(walk)
        seq.extend(walk)
        next_pos.extend(base + (i + 1) % n for i in range(n))
    k = len(seq)
    max_edges = spec.max_edges
    if max_edges is not None and k > max_edges:
        return  # the walks alone use more edges than the spec allows
    k2 = 2 * k
    V = max(seq) + 1
    last = V - 1
    size = k2 + V * (V - 1)
    max_top = size if max_edges is None else 2 * max_edges  # top never reaches size
    distinct = spec.distinct_neighbors
    single = spec.single_neighbor
    alpha = [*range(k, k2), *range(k), *(d ^ 1 for d in range(k2, size))]
    edges = {frozenset((seq[p], seq[next_pos[p]])) for p in range(k)}
    # fresh internal edges go from v to a higher vertex it does not already
    # meet along the walks
    cand = [[u for u in range(v + 1, V) if frozenset((v, u)) not in edges] for v in range(V)]
    # corner blocks in visit order: (reverse of the arriving dart, out dart);
    # the spanning orbit forces these two to sit consecutively in the rotation
    blocks: list[list[tuple[int, int]]] = [[] for _ in range(V)]
    for p in range(k):
        blocks[seq[next_pos[p]]].append((k + p, next_pos[p]))
    tick = clock.tick

    vertex_of = [0] * size
    succ = [-1] * size
    for p in range(k):
        vertex_of[p] = seq[p]
        vertex_of[k + p] = seq[next_pos[p]]
        succ[k + p] = next_pos[p]  # every corner block is fixed in advance
    claimed = [-1] * size  # face index of a dart on a closed ordinary face, else -1
    start_of = list(range(size))
    end_of = list(range(size))
    faces: list[list[int]] = []
    pending: list[list[tuple[int]]] = [[] for _ in range(V)]
    in_use: list[set[int]] = [set() for _ in range(V)]
    degree = [2 * len(blocks[v]) for v in range(V)]
    top = k2
    # lex-leader state, see least_so_far
    code: list[tuple[int, ...]] = [()] * V
    verdicts: list[dict[tuple, int]] = [{} for _ in range(V)]
    tied: list[list[tuple]] = [[] for _ in range(V + 1)]
    identity = tuple(range(V))
    for j, (perm, rev) in enumerate(_shape_group(walks)):
        if perm != identity:
            inverse = tuple(sorted(range(V), key=perm.__getitem__))
            tied[0].append((inverse[0], j, perm, inverse, rev, 0))

    def close_face(head: int) -> bool:
        """Walk and check the face that the link ``succ[tail] = head`` closes.

        The caller has set ``succ[tail]``.  True when the face is admissible:
        its darts are claimed and the face recorded, and the caller undoes
        it by popping ``faces``.  False kills the whole branch and leaves
        nothing to undo.
        """
        # walk the face once, claiming as we go, so that an edge with both
        # sides on it (a dual loop) shows up at its second side
        fid = len(faces)
        path: list[int] = []
        shared: list[int] = []
        backs = 0
        cur = head
        while True:
            claimed[cur] = fid
            path.append(cur)
            if cur < k2:
                backs += 1
                if distinct and backs >= 2:
                    break
            other = claimed[alpha[cur]]
            if other >= 0:
                # the same face across an edge is a dual loop; the same
                # other face twice means two faces sharing two edges
                if other == fid or other in shared:
                    break
                shared.append(other)
            cur = succ[alpha[cur]]
            if cur == head:
                if not (single and backs and backs < k):
                    faces.append(path)
                    return True
                break
        for d in path:
            claimed[d] = -1
        return False

    def finish() -> None:
        if min(claimed[k:top]) < 0:
            raise RuntimeError("search invariant broken: unclaimed darts at completion")
        if spec.min_faces and len(walks) + len(faces) < spec.min_faces:
            return
        if spec.detached_face and all(min(face) < k2 for face in faces):
            return  # every closed face holds a back dart
        m = _finished_map(vertex_of[:top], succ[:top], alpha[:top])
        if m is not None:
            sink(m)

    def least_so_far(v: int) -> bool:
        """Record the rotation of v, which just closed, and compare codes.

        The code of a completion lists each vertex's neighbour rotation,
        read from its least neighbour, in vertex order.  Under a stabiliser
        element the image rotation at perm[x] is perm applied to x's
        rotation, reversed when the element reverses orientation.
        ``tied[v]`` holds the elements that agree with the completion so
        far, each as (w, j, perm, inverse, reverses, p): j is the element's
        index in the stabiliser, the element agrees before position p, and
        w = max(p, inverse[p]) is the vertex whose close decides position p
        on both sides.  Elements with w = v are advanced, and the survivors
        are written to ``tied[v + 1]``; an element whose image turns out
        larger is left out.

        A comparison at position p depends only on ``code[p]``, the element
        and the decider's code ``code[inverse[p]]``, so ``verdicts[p]`` maps
        (j, decider's code) to the sign of image minus ``code[p]``; only a
        miss builds and normalises the image.  ``code[v]``, ``verdicts[v]``
        and ``tied[v + 1]`` are written again whenever v closes with an
        element still tied, so nothing is undone.  False prunes the branch:
        an image is already smaller.
        """
        elements = tied[v]
        if not elements:
            tied[v + 1] = elements  # nothing is tied, so nothing is recorded or compared
            return True
        d = first = blocks[v][0][1]
        nbrs = []
        while True:
            nbrs.append(vertex_of[alpha[d]])
            d = succ[d]
            if d == first:
                break
        i = nbrs.index(min(nbrs))
        code[v] = tuple(nbrs[i:] + nbrs[:i])
        verdicts[v] = {}
        survivors = []
        for element in elements:
            w, j, perm, inverse, rev, p = element
            if w > v:
                survivors.append(element)
                continue
            while True:
                decider = code[inverse[p]]
                known = verdicts[p]
                key = (j, decider)
                sign = known.get(key)
                if sign is None:
                    # the decider's code is a cyclic shift of its rotation,
                    # which renormalising undoes; a vertex meets at least two
                    # walk edges, so the getter always returns a tuple
                    image = itemgetter(*decider)(perm)
                    if rev:
                        image = image[::-1]
                    i = image.index(min(image))
                    if i:
                        image = image[i:] + image[:i]
                    mine = code[p]
                    sign = known[key] = (image > mine) - (image < mine)
                if sign:
                    if sign < 0:
                        return False
                    break
                p += 1
                if p == V:
                    break  # the element is an automorphism of the completion
                w = max(p, inverse[p])
                if w > v:
                    survivors.append((w, j, perm, inverse, rev, p))
                    break
        tied[v + 1] = survivors
        return True

    def shut(v: int) -> None:
        """Go past v, whose rotation just closed, unless an image is smaller."""
        if least_so_far(v):
            if v == last:
                finish()
            else:
                place(v + 1)

    def place(v: int) -> None:
        rest: list[tuple[int, ...]] = blocks[v][1:]
        rest.extend(pending[v])
        arrange(v, blocks[v][0][1], rest)

    def arrange(v: int, tail: int, todo: list[tuple[int, ...]]) -> None:
        """Every way to go on from ``tail``, the last dart of v's rotation so far."""
        nonlocal top
        tick()
        a = alpha[tail]
        start = start_of[a]  # fixed over this call, since every branch is undone
        if not todo:
            # wrap the rotation shut and move to the next vertex
            head = blocks[v][0][0]
            succ[tail] = head
            if start != head:
                end = end_of[head]
                end_of[start] = end
                start_of[end] = start
                shut(v)
                end_of[start] = a
                start_of[end] = head
            elif close_face(head):
                shut(v)
                for d in faces.pop():
                    claimed[d] = -1
        for i in range(len(todo)):
            item = todo.pop(i)
            head = item[0]
            succ[tail] = head
            # a corner block carries its own fixed inner link
            if start != head:
                end = end_of[head]
                end_of[start] = end
                start_of[end] = start
                arrange(v, item[-1], todo)
                end_of[start] = a
                start_of[end] = head
            elif close_face(head):
                arrange(v, item[-1], todo)
                for d in faces.pop():
                    claimed[d] = -1
            todo.insert(i, item)
        if degree[v] >= last:
            return
        if top >= max_top:
            return
        used = in_use[v]
        for u in cand[v]:
            if u in used or degree[u] >= last:
                continue
            d = top
            top = d + 2
            vertex_of[d] = v
            vertex_of[d + 1] = u
            pending[u].append((d + 1,))
            degree[u] += 1
            degree[v] += 1
            used.add(u)
            # the fresh dart d is a chain of its own, so this link never
            # closes a face
            succ[tail] = d
            end_of[start] = d
            start_of[d] = start
            arrange(v, d, todo)
            end_of[start] = a
            start_of[d] = d
            used.discard(u)
            degree[v] -= 1
            degree[u] -= 1
            pending[u].pop()
            top = d

    place(0)


# -- empty enumeration ----------------------------------------------------------------


@dataclass(frozen=True)
class EnumerationOutcome:
    """Everything one enumeration run produced: ``enumerate_empty`` and
    ``search_empty_9_cycle`` both return it.

    ``maps`` holds canonical forms sorted by canonical code.  ``complete``
    is False when a budget stopped the run early, or when
    ``search_empty_9_cycle(stop_at_first=True)`` stopped at its first find;
    partial results are still returned.
    """

    maps: tuple[Map, ...]
    complete: bool
    nodes: int
    seconds: float


def enumerate_empty(
    spec: EmptyCircuitSpec, budget: SearchBudget | None = None
) -> EnumerationOutcome:
    """All members of the family ``spec`` describes, up to isomorphism.

    Enumerates boundary-walk shapes up to dihedral symmetry and completes
    each into full rotation systems, with pruning on every closed face and
    one completion kept per orbit of the shape's stabiliser.  Finds are
    deduplicated by canonical code.  The stabiliser's reflections fold
    chiral twins together, so a complete run re-adds mirror images
    afterwards; a budget-stopped run returns only what it reached.  Every
    output is re-verified by ``empty_map_problems``.
    """
    if spec.k > 9:
        raise SearchError("spanning size above 9 is not supported")
    clock = _Clock(budget)
    found: dict[bytes, Map] = {}

    def sink(m: Map) -> None:
        code, cm = canonical(m)
        if code in found:
            return
        problems = empty_map_problems(cm, spec)
        if problems:
            raise RuntimeError("enumerated a non-member: " + "; ".join(problems))
        found[code] = cm

    complete = True
    try:
        for walks in _walk_shapes(spec):
            _run_walk_engine(walks, spec, clock, sink)
    except _Stop:
        complete = False

    if complete:
        # shape canonicalization folded reflections away; restore chiral twins
        for m in list(found.values()):
            sink(m.mirror())

    ordered = tuple(found[code] for code in sorted(found))
    return EnumerationOutcome(ordered, complete, clock.nodes, clock.seconds)


# -- the ten-case certification report -------------------------------------------------


@dataclass(frozen=True)
class CaseOutcome:
    """One certified (or merely exhausted) sub-case of the ten-case report."""

    case: str
    claim: str
    holds: bool | None  # None when the budget ran out
    detail: str
    found: int
    nodes: int
    seconds: float

    @property
    def status(self) -> str:
        return "exhausted" if self.holds is None else "certified"


@dataclass(frozen=True)
class Remark24Report:
    cases: tuple[CaseOutcome, ...]

    @property
    def ok(self) -> bool:
        return all(c.holds for c in self.cases)

    def lines(self) -> list[str]:
        out = []
        for c in self.cases:
            verdict = {True: "holds", False: "FAILS", None: "undecided"}[c.holds]
            out.append(
                f"case {c.case}: {verdict} [{c.status}] {c.claim}"
                f" | {c.detail} | nodes={c.nodes}"
            )
        return out


# label -> (claim, sweeps, bounds): bounds None means every sweep must come
# back empty; (V, E) means each find has exactly V vertices and >= E edges
_REMARK_CASES: dict[str, tuple] = {
    "i": ("no circuits with pairwise different neighbor faces, k=3,4,5",
          [EmptyCircuitSpec(x, distinct_neighbors=True) for x in (3, 4, 5)], None),
    "ii": ("no circuits with a face detached from the spanning face, k=3,4,5",
           [EmptyCircuitSpec(x, detached_face=True) for x in (3, 4, 5)], None),
    "iii": ("6-circuits with distinct neighbors: 6 vertices, >= 13 edges",
            [EmptyCircuitSpec(6, distinct_neighbors=True)], (6, 13)),
    "iv": ("no 6-circuits with >= 3 faces and a single neighbor face",
           [EmptyCircuitSpec(6, single_neighbor=True, min_faces=3)], None),
    "v": ("6-pairs with distinct neighbors: 6 vertices, >= 12 edges",
          [EmptyCircuitSpec(6, "pair", distinct_neighbors=True)], (6, 12)),
    "vi": ("no 6-pairs with >= 4 faces sharing edges with one face only",
           [EmptyCircuitSpec(6, "pair", single_neighbor=True, min_faces=4)], None),
    "vii": ("7-circuits with distinct neighbors need 7 vertices and >= 15 edges",
            [EmptyCircuitSpec(7, distinct_neighbors=True, max_vertices=6),
             EmptyCircuitSpec(7, distinct_neighbors=True, min_vertices=7, max_edges=14)], None),
    "viii": ("no 7-circuits with >= 3 faces and a single neighbor face",
             [EmptyCircuitSpec(7, single_neighbor=True, min_faces=3)], None),
    "ix": ("7-pairs with distinct neighbors need 7 vertices and >= 14 edges",
           [EmptyCircuitSpec(7, "pair", distinct_neighbors=True, max_vertices=6),
            EmptyCircuitSpec(7, "pair", distinct_neighbors=True, min_vertices=7, max_edges=13)],
           None),
    "x": ("no 7-pairs with >= 4 faces sharing edges with one face only",
          [EmptyCircuitSpec(7, "pair", single_neighbor=True, min_faces=4)], None),
}

CASE_LABELS = tuple(_REMARK_CASES)


def _run_case(label: str, budget: SearchBudget | None) -> CaseOutcome:
    """Run one case's sweeps in order, stopping at the first that runs out of budget."""
    claim, sweeps, bounds = _REMARK_CASES[label]
    maps: list[Map] = []
    nodes, seconds, scopes = 0, 0.0, []
    for spec in sweeps:
        outcome = enumerate_empty(spec, budget)
        nodes += outcome.nodes
        seconds += outcome.seconds
        maps += outcome.maps
        scope = f"k={spec.k}"
        if spec.max_vertices is not None:
            scope += f" V<={spec.max_vertices}"
        if spec.min_vertices is not None:
            scope += f" V>={spec.min_vertices}"
        if spec.max_edges is not None:
            scope += f" E<={spec.max_edges}"
        scopes.append(f"{scope}: {len(outcome.maps)} found")
        if not outcome.complete:
            break
    complete = outcome.complete
    if bounds is None:
        detail, holds = "; ".join(scopes), not maps
    elif not complete:
        detail, holds = f"partial: {len(maps)} found", None
    else:
        v_exact, e_min = bounds
        holds = all(m.vertex_count == v_exact and m.edge_count >= e_min for m in maps)
        edges = sorted({m.edge_count for m in maps})
        detail = f"{len(maps)} maps, edge counts {edges}" if maps else "none found"
    return CaseOutcome(
        label, claim, holds if complete else None, detail, len(maps), nodes, seconds
    )


def verify_remark24(cases=None, budget: SearchBudget | None = None) -> Remark24Report:
    """Certify the ten small-map claims by exhaustive enumeration.

    Emptiness cases report zero finds over the full, finite family.  The
    two k=7 distinct-neighbor cases are certified by two emptiness sweeps
    each: one over at most 6 vertices, one over exactly 7 vertices with the
    edge count below the claimed minimum; together these decide the claim
    because simplicity bounds the rest of the range.  A budget stop
    downgrades a case to "exhausted" with its node count, never to a
    verdict.  Each distinct label runs once, in first-occurrence order; an
    unknown label is rejected before any case runs.
    """
    wanted = dict.fromkeys(cases) if cases is not None else CASE_LABELS
    for label in wanted:
        if label not in _REMARK_CASES:
            raise SearchError(f"unknown case {label!r}; pick from {', '.join(CASE_LABELS)}")
    return Remark24Report(tuple(_run_case(label, budget) for label in wanted))


# -- the face-gluing engine ------------------------------------------------------------


@dataclass(frozen=True)
class _GlueRules:
    """Structural constraints the side-matching DFS enforces.

    The engine only builds maps whose underlying graph is simple and whose
    dual is loop-free (a block is never matched to itself).  Under
    ``dual_simple``, two blocks may share at most one edge, except pairs
    containing ``exempt_block``.  ``forced_target`` sends every dart of one
    block into another block; ``spanning_block`` demands every vertex carry
    exactly one corner of that block.
    """

    sizes: tuple[int, ...]
    dual_simple: bool = True
    exempt_block: int | None = None
    forced_target: tuple[tuple[int, int], ...] = ()
    min_degree: int = 2
    max_degree: int = 64
    max_vertices: int = 64
    spanning_block: int | None = None


def _run_glue_engine(rules: _GlueRules, clock: _Clock, accept) -> None:
    """Match polygon sides into maps, passing each completion to ``accept``.

    A return means the space was exhausted.  ``accept`` gets every
    connected completion and returns nothing; it may raise ``_Stop`` once
    it has what it wanted, and ``clock`` raises ``_Stop`` when the budget
    runs out, so a caller that needs to tell the two apart records its
    hits.  A completion that fails ``validate`` other than by being
    disconnected raises ``RuntimeError`` (``_finished_map``).

    Each node matches the least unmatched dart d0 with a later unmatched
    dart d1.  The unmatched darts form a doubly linked list in ascending
    order through ``nxt`` and ``prv``, closed by the sentinel n.  A node
    unhooks d0 and d1 and hooks them back on return, so a loop visits only
    unmatched darts.  A fresh block (no dart matched) is entered only at
    its start, and d0 starts its block when that block is fresh, so a
    block is fresh exactly while its start is unmatched; its darts are
    then adjacent in the list, and the loop passes them as one.  Blocks of
    one size are entered in block order, so the fresh ones are the last
    blocks of that size, and a fresh block may be entered only when the
    previous block of its size (starting at ``peer``) is matched or is d0's.
    ``alpha`` is -1 exactly on the unmatched darts.

    ``room[b0 * nb + b1]`` is how many more edges blocks b0 and b1 may
    share.  It starts at their cap: 0 when b0 == b1 (one face on both sides
    of an edge is a dual loop) or when the pair breaks ``forced_target``;
    1 under ``dual_simple`` unless one of them is ``exempt_block``; n,
    which never binds, otherwise.  Each match between the two takes one.

    The rotation is snext(d) = phi(alpha(d)), so matching d0 with d1 adds
    the two links ``snext[d0] = phi[d1]`` and ``snext[d1] = phi[d0]``.
    Partial rotations are chains under the chain-end invariant stated in
    ``_run_walk_engine``, with the link ``snext[tail] = head`` itself as
    the chain edge.  ``length`` (darts) and ``spans`` (corners of
    ``spanning_block``) are valid at chain starts.  A link closes a vertex
    exactly when ``start_of[tail] == head``, and only then is the rotation
    walked and checked.  Two unmatched darts are always the open ends of
    two different chains.  Like ``succ`` there, ``snext`` is never cleared.
    ``room`` and the list change only once both links hold, so a branch
    that dies at a link, mostly at the degree cap, undoes only the links.
    Most die at the first link's open-chain test, which reads only
    ``start_of[d0]``, fixed over d0's loop, and ``h1``; ``step`` repeats
    that test before calling ``link``, and such a node still ticks.
    """
    sizes = rules.sizes
    n = sum(sizes)
    nb = len(sizes)
    phi = [0] * n
    block_of = [0] * n
    block_start = []
    block_last = []
    peer = []
    last_start_of_size: dict[int, int] = {}
    pos = 0
    for b, s in enumerate(sizes):
        block_start.append(pos)
        block_last.append(pos + s - 1)
        peer.append(last_start_of_size.get(s, -1))
        last_start_of_size[s] = pos
        for i in range(s):
            phi[pos + i] = pos + (i + 1) % s
            block_of[pos + i] = b
        pos += s
    forced = dict(rules.forced_target)
    room = [0] * (nb * nb)
    for b0 in range(nb):
        for b1 in range(nb):
            if b0 == b1 or forced.get(b0, b1) != b1 or forced.get(b1, b0) != b0:
                continue
            bounded = rules.dual_simple and rules.exempt_block not in (b0, b1)
            room[b0 * nb + b1] = 1 if bounded else n
    spanning = rules.spanning_block
    min_degree, max_degree = rules.min_degree, rules.max_degree
    max_vertices = rules.max_vertices
    tick = clock.tick

    alpha = [-1] * n
    snext = [-1] * n
    nxt = [*range(1, n + 1), 0]
    prv = [n, *range(n)]
    start_of = list(range(n))
    end_of = list(range(n))
    length = [1] * n
    spans = [int(block_of[d] == spanning) for d in range(n)]
    vertex_id = [-1] * n
    vertices: list[list[int]] = []

    def link(tail: int, head: int) -> bool:
        """Set ``snext[tail] = head``; False kills the branch, leaving nothing to undo."""
        snext[tail] = head
        start = start_of[tail]
        if start != head:
            if length[start] + length[head] > max_degree:
                return False  # the rotation chain only ever grows
            if spans[start] + spans[head] > 1:
                return False  # two corners of the spanning block at one vertex
            end = end_of[head]
            end_of[start] = end
            start_of[end] = start
            length[start] += length[head]
            spans[start] += spans[head]
            return True
        # the rotation closes into a new vertex
        if length[head] < min_degree or len(vertices) >= max_vertices:
            return False
        if spanning is not None and spans[head] != 1:
            return False
        vid = len(vertices)
        cycle = []
        cur = head
        while True:
            vertex_id[cur] = vid
            cycle.append(cur)
            cur = snext[cur]
            if cur == head:
                break
        # an edge back onto this vertex is a loop; two edges to one
        # finished vertex are parallel
        ends = set()
        for d in cycle:
            w = vertex_id[alpha[d]]
            if w == vid or w in ends:
                break
            if w >= 0:
                ends.add(w)
        else:
            vertices.append(cycle)
            return True
        for d in cycle:
            vertex_id[d] = -1
        return False

    def unlink(tail: int, head: int) -> None:
        """Undo a link that ``link`` accepted."""
        if vertex_id[head] >= 0:
            for d in vertices.pop():
                vertex_id[d] = -1
        else:
            start = start_of[tail]
            end_of[start] = tail
            start_of[end_of[head]] = head
            length[start] -= length[head]
            spans[start] -= spans[head]

    def completion() -> None:
        # number vertices by their smallest dart
        m = _finished_map(_renumber(vertex_id)[0], snext, alpha)
        if m is not None:
            accept(m)

    def step() -> None:
        d0 = nxt[n]
        if d0 == n:
            completion()
            return
        b0 = block_of[d0]
        row = b0 * nb
        h0 = phi[d0]
        start0 = start_of[d0]
        after = nxt[d0]
        nxt[n] = after
        prv[after] = n
        d1 = after
        while d1 != n:
            b1 = block_of[d1]
            if d1 == block_start[b1]:
                skip = nxt[block_last[b1]]  # past the fresh block
                p = peer[b1]
                if p >= 0 and alpha[p] < 0 and p != d0:
                    d1 = skip
                    continue  # an earlier fresh block of this size comes first
            else:
                skip = nxt[d1]
            pair = row + b1
            if room[pair]:
                tick()
                h1 = phi[d1]
                # link(d0, h1)'s open-chain test, repeated to spare the call
                if h1 != start0 and (
                    length[start0] + length[h1] > max_degree or spans[start0] + spans[h1] > 1
                ):
                    d1 = skip
                    continue
                alpha[d0] = d1
                alpha[d1] = d0
                if link(d0, h1):
                    if link(d1, h0):
                        mirror = b1 * nb + b0
                        room[pair] -= 1
                        room[mirror] -= 1
                        before, beyond = prv[d1], nxt[d1]
                        nxt[before] = beyond
                        prv[beyond] = before
                        step()
                        nxt[before] = d1
                        prv[beyond] = d1
                        room[pair] += 1
                        room[mirror] += 1
                        unlink(d1, h0)
                    unlink(d0, h1)
                alpha[d1] = -1
            d1 = skip
        nxt[n] = d0
        prv[after] = d0
        alpha[d0] = -1

    step()


# -- witness search ---------------------------------------------------------------------


@dataclass(frozen=True)
class WitnessOutcome:
    """Result of a witness hunt.

    ``map`` is the first find, already canonical, or None.  ``complete``
    distinguishes a definitive answer (found, or certified non-existence
    over the whole budgeted range) from plain budget exhaustion.
    """

    map: Map | None
    complete: bool
    nodes: int
    seconds: float
    swept: tuple[str, ...]


def _witness_demands(m: Map, spec: WitnessSpec, sizes: tuple[int, int]) -> bool:
    """Whether a completion meets the witness demands of ``spec``.

    The glue rules already make the graph simple and the dual loop-free,
    and under the ``simple`` dual demand they let no two faces share two
    edges, so those demands are not checked.  The rest run cheapest first:
    the face-pair demand reads only faces, so it runs before the flow kappa
    and the dual.
    """
    if not _has_face_pair(m, spec.pair_demand, sizes):
        return False
    if vertex_connectivity(m) != spec.connectivity:
        return False
    if "has-1-cut" in spec.dual_demands or "has-2-cut" in spec.dual_demands:
        dual_kappa = vertex_connectivity(dual(m).dual)
        if "has-1-cut" in spec.dual_demands and dual_kappa != 1:
            return False
        if "has-2-cut" in spec.dual_demands and dual_kappa > 2:
            return False
    return True


def _has_face_pair(m: Map, demand: str, sizes: tuple[int, int]) -> bool:
    """Whether two faces of sizes ``sizes`` meet as ``demand`` asks ("none": always)."""
    if demand == "none":
        return True
    a, b = sizes
    for fa in m.faces:
        if fa.size != a:
            continue
        for fb in m.faces:
            if fb.index == fa.index or fb.size != b:
                continue
            if demand == "shares-two-vertices":
                va = set(walk_vertices(m, fa.darts))
                vb = set(walk_vertices(m, fb.darts))
                if len(va & vb) >= 2:
                    return True
            elif doubly_intersecting(m, fa, fb):
                return True
    return False


def _witness_vertex_cap(edges: int, faces: int, connectivity: int, max_vertices: int) -> int | None:
    """The most vertices a witness with these edge and face counts can have.

    A witness is a connected, simple, orientable map of minimum degree c =
    ``connectivity``, so its vertex count V obeys V <= ``max_vertices``,
    c V <= 2E and c + 1 <= V; simplicity gives V(V-1)/2 >= E; and Euler's
    formula V - E + F = 2 - 2g with g >= 0 gives V <= E - F + 2 and V = E + F
    (mod 2).  None when no V passes all of these.
    """
    v = min(max_vertices, 2 * edges // connectivity, edges - faces + 2)
    v -= (v + edges + faces) % 2
    if v < connectivity + 1 or v * (v - 1) // 2 < edges:
        return None
    return v


def search_witness(spec: WitnessSpec, budget: SearchBudget | None = None) -> WitnessOutcome:
    """Hunt for a witness map, sweeping face multisets by increasing edge count.

    For every split of the pair sum and every triangle count that fits the
    edge budget, exhausts all maps with that exact face multiset.  Returns
    the first find; when every sweep completes empty, non-existence is
    certified for the entire budgeted range.

    A sweep is ``infeasible``, and is skipped, when no vertex count V is
    admissible for its E edges and F = t + 2 faces: c + 1 <= V <=
    min(max-vertices, 2E / c), V(V-1)/2 >= E, V <= E - F + 2 and V = E + F
    (mod 2), the last two from Euler's formula (``_witness_vertex_cap``).
    Every other sweep runs with the largest admissible V as its vertex cap
    and V - 1 as its degree cap; what that cuts off could only have closed
    into disconnected maps, which are no witnesses.
    """
    clock = _Clock(budget)
    swept: list[str] = []
    hit: Map | None = None

    combos = []
    for a in range(3, spec.pair_sum // 2 + 1):
        b = spec.pair_sum - a
        t = (a + b) % 2  # 2E = a + b + 3t must stay even
        while True:
            edges2 = a + b + 3 * t
            if edges2 // 2 > spec.max_edges:
                break
            combos.append((edges2 // 2, a, b, t))
            t += 2
    combos.sort()

    for edges, a, b, t in combos:
        max_v = _witness_vertex_cap(edges, t + 2, spec.connectivity, spec.max_vertices)
        if max_v is None:
            swept.append(f"pair=({a},{b}) triangles={t}: infeasible")
            continue
        sizes = tuple(sorted((a, b) + (3,) * t, reverse=True))
        rules = _GlueRules(
            sizes=sizes,
            dual_simple="simple" in spec.dual_demands,
            min_degree=spec.connectivity,
            max_degree=max_v - 1,
            max_vertices=max_v,
        )

        def accept(m: Map) -> None:
            nonlocal hit
            if _witness_demands(m, spec, (a, b)):
                hit = m
                raise _Stop

        try:
            _run_glue_engine(rules, clock, accept)
        except _Stop:
            if hit is None:
                swept.append("budget exhausted")
                return WitnessOutcome(None, False, clock.nodes, clock.seconds, tuple(swept))
            swept.append(f"pair=({a},{b}) triangles={t}: hit")
            return WitnessOutcome(
                canonical_form(hit), True, clock.nodes, clock.seconds, tuple(swept)
            )
        swept.append(f"pair=({a},{b}) triangles={t}: done")
    return WitnessOutcome(None, True, clock.nodes, clock.seconds, tuple(swept))


# -- the spanning 9-gon neighboring a single 15-gon --------------------------------------


_NINE_SIZES = (15, 9, 3, 3, 3, 3, 3, 3)  # 2E = 42 forces E=21, F=8; with V=9, genus 3


def search_empty_9_cycle(
    budget: SearchBudget | None = None, *, stop_at_first: bool = False
) -> EnumerationOutcome:
    """Find 9-vertex maps spanned by a 9-gon whose edges all border one 15-gon.

    The face multiset is fully determined: one 15-gon, the spanning 9-gon,
    and six triangles, hence 21 edges; one 9-gon corner per vertex makes 9
    vertices, hence genus 3.  The gluing engine runs with the 9-gon's sides
    forced into the 15-gon and dual multi-edges allowed only at the 9-gon.
    Reports every find within budget unless told to stop at the first.  An
    empty result is no non-existence claim; only ``complete`` says whether
    the space was finished.  A find that ``empty_map_problems`` rejects
    raises ``RuntimeError``, as in ``enumerate_empty``.
    """
    clock = _Clock(budget)
    rules = _GlueRules(
        sizes=_NINE_SIZES,
        dual_simple=True,
        exempt_block=1,
        forced_target=((1, 0),),
        min_degree=2,
        max_degree=8,
        max_vertices=9,
        spanning_block=1,
    )
    member_spec = EmptyCircuitSpec(k=9, mode="circuit", single_neighbor=True)
    found: dict[bytes, Map] = {}

    def accept(m: Map) -> None:
        code, cm = canonical(m)
        if code in found:
            return
        problems = empty_map_problems(cm, member_spec)
        if problems:
            raise RuntimeError("enumerated a non-member: " + "; ".join(problems))
        found[code] = cm
        if stop_at_first:
            raise _Stop

    try:
        _run_glue_engine(rules, clock, accept)
        complete = True
    except _Stop:
        complete = False
    ordered = tuple(found[code] for code in sorted(found))
    return EnumerationOutcome(ordered, complete, clock.nodes, clock.seconds)


# -- complete graph embeddings -------------------------------------------------------------


def triangular_complete_map(n: int) -> Map:
    """An all-triangle embedding of the complete graph on n vertices.

    Euler counting admits one only for n = 4 (the sphere) and n = 7 (the
    torus) in this range: n = 5 gives a fractional face count and n = 6 an
    odd Euler characteristic.  The result is canonical, so every call
    returns the same map.
    """
    if n not in (4, 7):
        raise SearchError(f"no all-triangle embedding of the complete graph on {n} vertices")
    edges = n * (n - 1) // 2
    degree = n - 1
    rules = _GlueRules(
        sizes=(3,) * (2 * edges // 3),
        min_degree=degree,
        max_degree=degree,
        max_vertices=n,
    )
    # no loop or parallel edge closes, and V(n - 1) = 2E = n(n - 1): each completion is K_n
    candidates: list[Map] = []
    _run_glue_engine(rules, _Clock(None), candidates.append)
    if not candidates:
        raise RuntimeError(f"found no all-triangle embedding for n={n}")
    _, best = min((canonical(m) for m in candidates), key=lambda t: t[0])
    _invariant(genus(best) == (0 if n == 4 else 1), f"K{n} landed on the wrong genus")
    _invariant(vertex_connectivity(best) == degree, f"K{n} lost its connectivity")
    return best


# -- the small-map corpus --------------------------------------------------------------------


def enumerate_connected_maps(max_edges: int) -> tuple[Map, ...]:
    """Every connected simple map with 1..max_edges edges, one per class.

    Grown by edge augmentation: each map with E+1 edges arises from one
    with E edges by attaching a fresh leaf into some rotation gap or by
    joining two non-adjacent vertices, because deleting a leaf edge or a
    non-bridge edge of any connected map keeps it connected.  Chiral pairs
    appear as two classes.

    Children are grown on the parent's dart arrays: the new edge is darts D
    and D + 1, with D inserted after a dart d of u in u's rotation and D + 1
    after a dart e of w, or alone at a new vertex for a leaf.  Each child
    gets only its least-root words; a child's relabelled form is built only
    when its code is new.  The code fixes the form, so which child of a
    class comes first does not matter.  Output is by edge count, then code.
    """
    if isinstance(max_edges, bool) or not isinstance(max_edges, int):
        raise SearchError(f"max_edges must be an integer, got {max_edges!r}")
    if max_edges < 1:
        raise SearchError("need at least one edge")
    code, base = canonical(from_rotations([[1], [0]]))
    levels: list[dict[bytes, Map]] = [{code: base}]
    while len(levels) < max_edges:
        grown: dict[bytes, Map] = {}
        for m in levels[-1].values():
            vertex_of, sigma = m.vertex_of, m.next_in_rotation
            D, V = m.dart_count, m.vertex_count
            alpha = (*m.reverse, D + 1, D)
            children = []  # (child sigma, vertex of D, vertex of D + 1)
            for d in range(D):
                child = [*sigma, sigma[d], D + 1]
                child[d] = D
                children.append((child, vertex_of[d], V))
            rotations, adjacency = m.rotations, m.adjacency
            for u in range(V):
                for w in range(u + 1, V):
                    if w in adjacency[u]:
                        continue
                    for d in rotations[u]:
                        for e in rotations[w]:
                            child = [*sigma, sigma[d], sigma[e]]
                            child[d] = D
                            child[e] = D + 1
                            children.append((child, u, w))
            for child, u, w in children:
                words, order = _least_root(child, alpha)
                code = _pack(words)
                if code not in grown:
                    grown[code] = _relabel((*vertex_of, u, w), child, alpha, order)
        levels.append(grown)
    return tuple(level[code] for level in levels for code in sorted(level))
