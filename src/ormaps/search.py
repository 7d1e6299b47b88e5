"""Exhaustive search for small maps under declarative constraints.

Two engines cover the workloads.  The spanning-walk engine fixes the
boundary walk of a distinguished face first and then grows the rotation
system vertex by vertex; it powers ``enumerate_empty`` and the ten-case
certification report.  The face-gluing engine matches polygon sides when
the complete face multiset is known in advance; it powers the witness
searches and the spanning-9-gon search.  Both engines pass each
completion through one check (``_finished_map``) and stop on one signal
(``_Stop``), which the budget raises, or a caller that has what it
wanted.  Every find is re-checked by predicates built only from the core
and dual primitives, so generation and verification share no code path.
Budgets count DFS nodes and wall-clock time, and exhaustion is always
reported, never silently turned into a verdict.
"""

from __future__ import annotations

import itertools
import time
from operator import itemgetter
from typing import NamedTuple

from .connectivity import vertex_connectivity
from .core import (
    Map,
    _least_root,
    _pack,
    _relabel,
    _renumber,
    _require_int,
    canonical,
    canonical_form,
    from_rotations,
    validate,
    walk_vertices,
)
from .dual import doubly_intersecting, dual


class SearchError(ValueError):
    """A search request that cannot be run as stated."""


class _Checked:
    """Runs the record's ``_check`` on every construction.

    Put first among the bases of a named tuple's subclass.  A call goes
    through ``__new__``; ``_make``, and so ``_replace``, builds the tuple
    without it, so ``_make`` checks too.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        self = super()._make(iterable)
        self._check()
        return self


# -- budgets ---------------------------------------------------------------------


class _SearchBudgetFields(NamedTuple):
    max_nodes: int | None = None
    max_seconds: float | None = None


class SearchBudget(_Checked, _SearchBudgetFields):
    """Limits for one search run; ``None`` means unlimited."""

    __slots__ = ()

    def _check(self) -> None:
        if self.max_nodes is not None:
            _check_integer(max_nodes=self.max_nodes)
        seconds = self.max_seconds
        if isinstance(seconds, bool) or not isinstance(seconds, (int, float, type(None))):
            raise SearchError(f"max-seconds must be a number, got {seconds!r}")
        _check_not_negative(max_nodes=self.max_nodes, max_seconds=self.max_seconds)


class _Stop(Exception):
    """The budget ran out, or the caller has what it wanted."""


class _Clock:
    """Node and wall-clock accounting shared by one search run."""

    __slots__ = ("nodes", "max_nodes", "deadline", "start")

    def __init__(self, budget: SearchBudget | None):
        if budget is None:
            budget = SearchBudget()
        elif not isinstance(budget, SearchBudget):
            raise SearchError(f"budget must be a SearchBudget or None, got {budget!r}")
        self.nodes = 0
        self.max_nodes = budget.max_nodes
        self.start = time.monotonic()
        self.deadline = None if budget.max_seconds is None else self.start + budget.max_seconds

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


class _EmptyCircuitFields(NamedTuple):
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


class EmptyCircuitSpec(_Checked, _EmptyCircuitFields):
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

    __slots__ = ()

    def _check(self) -> None:
        _check_integer(k=self.k)
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
            if not isinstance(self.pair_sizes, tuple) or len(self.pair_sizes) != 2:
                raise SearchError(
                    f"pair_sizes must be a tuple of two sizes, got {self.pair_sizes!r}"
                )
            for size in self.pair_sizes:
                _check_integer(pair_size=size)
            a, b = self.pair_sizes
            if a + b != self.k or min(a, b) < 3 or a > b:
                raise SearchError("pair sizes must be >= 3, ordered, and sum to k")
        optional = dict(
            min_vertices=self.min_vertices, max_vertices=self.max_vertices, max_edges=self.max_edges
        )
        _check_integer(
            min_faces=self.min_faces, **{key: v for key, v in optional.items() if v is not None}
        )
        _check_not_negative(min_faces=self.min_faces, **optional)


class _WitnessFields(NamedTuple):
    connectivity: int
    pair_sum: int
    dual_demands: tuple[str, ...] = ("simple", "has-2-cut")
    pair_demand: str = "shares-two-vertices"
    max_vertices: int = 8
    max_edges: int = 21


class WitnessSpec(_Checked, _WitnessFields):
    """A connectivity witness to hunt for: a ``connectivity``-connected map
    whose faces are a distinguished pair with sizes summing to ``pair_sum``
    plus triangles, subject to dual and pair demands, inside a hard vertex
    and edge budget."""

    __slots__ = ()

    _DUAL = ("simple", "has-1-cut", "has-2-cut")
    _PAIR = ("shares-two-vertices", "doubly-intersecting", "none")

    def _check(self) -> None:
        _check_integer(connectivity=self.connectivity, pair_sum=self.pair_sum)
        if self.connectivity < 1:
            raise SearchError("connectivity must be positive")
        if self.pair_sum < 6:
            raise SearchError("two faces cannot sum below 6")
        if isinstance(self.dual_demands, str):
            raise SearchError(
                f"dual_demands must be a sequence of demands, not the string {self.dual_demands!r}"
            )
        for demand in self.dual_demands:
            if demand not in self._DUAL:
                raise SearchError(f"unknown dual demand {demand!r}")
        if self.pair_demand not in self._PAIR:
            raise SearchError(f"unknown pair demand {self.pair_demand!r}")
        _check_integer(max_vertices=self.max_vertices, max_edges=self.max_edges)
        _check_not_negative(max_vertices=self.max_vertices, max_edges=self.max_edges)


def _check_integer(**values: object) -> None:
    """Reject a value that is not an int (a bool is not one), naming it by its spec key."""
    for name, value in values.items():
        _require_int(value, name.replace("_", "-"), SearchError)


def _check_not_negative(**bounds: float | None) -> None:
    """Reject a negative or NaN bound, naming it by its spec key; 0 is allowed."""
    for name, value in bounds.items():
        if value is not None and not value >= 0:  # NaN fails every comparison
            raise SearchError(f"{name.replace('_', '-')} must not be negative or NaN, got {value}")


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
    else:
        kwargs["mode"] = mode  # EmptyCircuitSpec refuses an unknown mode
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
    fidx, alpha = m.face_index_of, m.reverse
    for cand in _spanning_candidates(m, spec):
        allowed = {f.index for f in cand}
        if any(not (set(pair) & allowed) for pair in rep.multi_pairs):
            continue
        across = [fidx[alpha[d]] for f in cand for d in f.darts]
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
            if not any(t[0] < walks for t in _shape_transforms(walks)):
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
    chain ends, ``end_of[s]`` at a start s and ``start_of[e]`` at an end e,
    and so is ``backs_of[s]``, the number of back darts on the chain that
    starts at s.  A link that joins two chains rewrites those three entries
    in O(1), and its undo writes them back.  An entry is never written
    while its dart is interior, so undoing links in reverse order restores
    every end exactly.  Here the chain edge of ``succ[tail] = head`` is
    ``alpha[tail] -> head``, so the link closes a face exactly when
    ``start_of[alpha[tail]] == head``.

    ``arrange`` tries each link from ``tail`` as one step: each block item
    of ``todo``, and the wrap back to v's first block, the last link of the
    rotation and the only one tried once ``todo`` is empty.  A closing link
    calls ``close_face``, which walks the face; any other joins two chains
    in four writes, undone in three.  One test refuses a join: ``limit``
    under ``distinct-neighbors``, as two back darts on one chain can only
    close into a forbidden face, or ``into_n``, the one place a join reads
    ``single``.  The wrap goes on through ``shut`` in ``arrange``'s place,
    not a further ``arrange`` frame: on a 2-core x86_64 VM that frame per
    vertex close, crossing a CPython 3.11 frame-stack chunk boundary, took
    viii at a 400k-node budget from 0.6 s to 0.9 s, mostly system time.

    Under ``single-neighbor``, ``close_face`` rejects a face with
    some but not all k back darts, so in every completion they lie on one
    face N, and every chain that carries a back dart is a piece of N from
    the moment it forms.  ``in_n`` marks the darts of those chains: the
    back darts at first, then the darts of a chain without back darts
    that a join adds to one with them (``into_n``), and a fresh dart
    linked from one.  Such a join is refused at the first dart whose
    reverse is marked, since N would then hold both darts of an edge, a
    dual loop that ``close_face`` rejects (``other == fid``); a refused
    state has no completion, so the finds and their order stay the same.
    The join's undo unmarks what it marked.  A fresh dart's reverse sits
    alone in ``pending``, so a fresh link is never refused, and its mark
    is written at each allocation.  A link to a fresh dart never
    closes and adds no back dart.  ``succ`` is never cleared, because only
    closed orbits and the finished map read it.

    The shape's stabiliser, which ``_shape_group`` picks from the
    ``_shape_transforms`` relabellings, maps completions onto completions;
    an element that reverses orientation maps the mirror image.  Every
    check above is invariant under it, so only the least completion of
    each orbit is kept, by lex-leader pruning (McKay,
    J. Algorithms 1998): each time vertex v closes, ``least_so_far``
    compares the code positions now decided on both sides and cuts the
    branch as soon as an image is smaller.  The elements still tied are
    kept per depth: v's close reads ``tied[v]`` and writes ``tied[v + 1]``.
    The image of a vertex rotation code under an element depends on
    nothing else, so each element memoises its images for the whole shape
    run, and codes and images are interned in one dict per shape.  So this
    state, like ``succ``, is overwritten or only grows, and is never undone.
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
    single = spec.single_neighbor
    min_faces, detached_face = spec.min_faces, spec.detached_face
    limit = 1 if spec.distinct_neighbors else k  # most back darts on one chain
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
    wraps = [[b[0]] for b in blocks]  # each vertex's wrap link, as a one-item todo
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
    backs_of = [0] * k + [1] * k + [0] * (size - k2)  # a back dart is a chain of its own
    in_n = [False] * k + [True] * k + [False] * (size - k2)  # read under single-neighbor only
    faces: list[list[int]] = []
    pending: list[list[tuple[int]]] = [[] for _ in range(V)]
    in_use: list[set[int]] = [set() for _ in range(V)]
    degree = [2 * len(blocks[v]) for v in range(V)]
    top = k2
    # lex-leader state, see least_so_far
    code: list[tuple[int, ...]] = [()] * V
    intern = {}.setdefault  # one tuple per distinct code or image of this shape
    tied: list[list[tuple]] = [[] for _ in range(V + 1)]
    identity = tuple(range(V))
    for perm, rev in _shape_group(walks):
        if perm != identity:
            inverse = tuple(sorted(range(V), key=perm.__getitem__))
            tied[0].append((inverse[0], {}, perm, inverse, rev, 0))

    def close_face(head: int) -> bool:
        """Walk and check the face that the link ``succ[tail] = head`` closes.

        The caller has set ``succ[tail]``.  True when the face is admissible:
        its darts are claimed and the face recorded, and the caller undoes
        it by popping ``faces``.  False kills the whole branch and leaves
        nothing to undo.  The face is the chain that starts at ``head``, so
        ``backs_of[head]`` counts its back darts; the joins already kept it
        below two under ``distinct-neighbors``.
        """
        if single and 0 < backs_of[head] < k:
            return False
        # walk the face once, claiming as we go, so that an edge with both
        # sides on it (a dual loop) shows up at its second side
        fid = len(faces)
        path: list[int] = []
        shared: list[int] = []
        cur = head
        while True:
            claimed[cur] = fid
            path.append(cur)
            other = claimed[alpha[cur]]
            if other >= 0:
                # the same face across an edge is a dual loop; the same
                # other face twice means two faces sharing two edges
                if other == fid or other in shared:
                    break
                shared.append(other)
            cur = succ[alpha[cur]]
            if cur == head:
                faces.append(path)
                return True
        for d in path:
            claimed[d] = -1
        return False

    def into_n(start: int, a: int, head: int) -> list[int] | None:
        """Mark the darts that joining ``start..a`` to ``head..`` puts on N,
        where just one of the two chains carries back darts; None, with
        nothing marked, when N would then hold both darts of an edge."""
        d, stop = (head, end_of[head]) if backs_of[start] else (start, a)
        grown = []
        while not in_n[alpha[d]]:
            in_n[d] = True
            grown.append(d)
            if d == stop:
                return grown
            d = succ[alpha[d]]
        for d in grown:
            in_n[d] = False
        return None

    def finish() -> None:
        if min(claimed[k:top]) < 0:
            raise RuntimeError("search invariant broken: unclaimed darts at completion")
        if min_faces and len(walks) + len(faces) < min_faces:
            return
        if detached_face and all(min(face) < k2 for face in faces):
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
        far, each as (w, images, perm, inverse, reverses, p): the element
        agrees before position p, and w = max(p, inverse[p]) is the vertex
        whose close decides position p on both sides.  Elements with w = v
        are advanced, and the survivors are written to ``tied[v + 1]``; an
        element whose image turns out larger is left out.

        The image at position p depends only on the element and the
        decider's code ``code[inverse[p]]``, so each element's ``images``
        maps a rotation code to its normalised image for the whole shape
        run, and only a miss builds one.  Codes and images are interned, so
        equal ones are the same tuple and the memo entries share them.
        ``code[v]`` and ``tied[v + 1]`` are written again whenever v closes
        with an element still tied, and the memos are never undone.  False
        prunes the branch: an image is already smaller.
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
        mine = tuple(nbrs[i:] + nbrs[:i])
        code[v] = intern(mine, mine)
        survivors = []
        for element in elements:
            if element[0] > v:
                survivors.append(element)  # not yet due
                continue
            _, images, perm, inverse, rev, p = element
            while True:
                decider = code[inverse[p]]
                image = images.get(decider)
                if image is None:
                    # the decider's code is a cyclic shift of its rotation,
                    # which renormalising undoes; a vertex meets at least two
                    # walk edges, so the getter always returns a tuple
                    image = itemgetter(*decider)(perm)
                    if rev:
                        image = image[::-1]
                    i = image.index(min(image))
                    if i:
                        image = image[i:] + image[:i]
                    image = images[decider] = intern(image, image)
                mine = code[p]
                if image is not mine:  # both interned, so equal means identical
                    if image < mine:
                        return False
                    break
                p += 1
                if p == V:
                    break  # the element is an automorphism of the completion
                w = max(p, inverse[p])
                if w > v:
                    survivors.append((w, images, perm, inverse, rev, p))
                    break
        tied[v + 1] = survivors
        return True

    def shut(v: int, tail: int, todo: list[tuple[int, ...]]) -> None:
        """Go past v, whose rotation the wrap just closed, unless an image is
        smaller; it stands in for ``arrange``, so it ignores tail and todo."""
        if least_so_far(v):
            if v == last:
                finish()
            else:
                v += 1
                rest: list[tuple[int, ...]] = blocks[v][1:]
                rest.extend(pending[v])
                arrange(v, blocks[v][0][1], rest)

    def arrange(v: int, tail: int, todo: list[tuple[int, ...]]) -> None:
        """Every way to go on from ``tail``, the last dart of v's rotation so far."""
        nonlocal top
        tick()
        a = alpha[tail]
        start = start_of[a]  # fixed over this call, since every branch is undone
        backs = backs_of[start]
        if todo:
            links = todo
            go = arrange
        else:
            links = wraps[v]  # the wrap back to v's first block shuts the rotation
            go = shut
        for i in range(len(links)):
            item = links[i]
            del links[i]
            head = item[0]
            succ[tail] = head
            # a corner block carries its own fixed inner link
            if start == head:
                if close_face(head):
                    go(v, item[-1], todo)
                    for d in faces.pop():
                        claimed[d] = -1
            else:
                hb = backs_of[head]
                # the darts into_n marks, None when it refuses, False when none are due
                grown = single and (not backs) != (not hb) and into_n(start, a, head)
                if grown is not None and backs + hb <= limit:
                    end = end_of[head]
                    end_of[start] = end
                    start_of[end] = start
                    backs_of[start] = backs + hb
                    go(v, item[-1], todo)
                    backs_of[start] = backs
                    end_of[start] = a
                    start_of[end] = head
                    if grown:
                        for d in grown:
                            in_n[d] = False
            links.insert(i, item)
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
            in_n[d] = backs > 0  # written at each allocation, so never undone
            arrange(v, d, todo)
            end_of[start] = a
            start_of[d] = d
            used.discard(u)
            degree[v] -= 1
            degree[u] -= 1
            pending[u].pop()
            top = d

    arrange(0, blocks[0][0][1], blocks[0][1:])  # no fresh edge ends at vertex 0


# -- empty enumeration ----------------------------------------------------------------


class EnumerationOutcome(NamedTuple):
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


class _Finds:
    """The audited finds of one run, keyed by canonical code."""

    def __init__(self, spec: EmptyCircuitSpec):
        self.spec = spec
        self.maps: dict[bytes, Map] = {}

    def add(self, m: Map) -> bool:
        """Keep ``m``'s canonical form unless its code is known; True when kept.

        A new find that ``empty_map_problems`` rejects raises RuntimeError.
        """
        code, cm = canonical(m)
        if code in self.maps:
            return False
        problems = empty_map_problems(cm, self.spec)
        if problems:
            raise RuntimeError("enumerated a non-member: " + "; ".join(problems))
        self.maps[code] = cm
        return True

    def outcome(self, complete: bool, clock: _Clock) -> EnumerationOutcome:
        ordered = tuple(self.maps[code] for code in sorted(self.maps))
        return EnumerationOutcome(ordered, complete, clock.nodes, clock.seconds)


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
    finds = _Finds(spec)
    complete = True
    try:
        for walks in _walk_shapes(spec):
            _run_walk_engine(walks, spec, clock, finds.add)
    except _Stop:
        complete = False

    if complete:
        # shape canonicalization folded reflections away; restore chiral twins
        for m in list(finds.maps.values()):
            finds.add(m.mirror())
    return finds.outcome(complete, clock)


# -- the ten-case certification report -------------------------------------------------


class CaseOutcome(NamedTuple):
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


class Remark24Report(NamedTuple):
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
    unknown label, an empty sequence, or a bare string in place of a
    sequence of labels, is rejected before any case runs.
    """
    if isinstance(cases, str):
        raise SearchError(f"cases must be a sequence of labels, not the string {cases!r}")
    wanted = dict.fromkeys(cases) if cases is not None else CASE_LABELS
    if not wanted:
        raise SearchError("cases must name at least one case")
    for label in wanted:
        if label not in _REMARK_CASES:
            raise SearchError(f"unknown case {label!r}; pick from {', '.join(CASE_LABELS)}")
    return Remark24Report(tuple(_run_case(label, budget) for label in wanted))


# -- the face-gluing engine ------------------------------------------------------------


class _GlueRules(NamedTuple):
    """Structural constraints the side-matching DFS enforces.

    The engine only builds maps whose underlying graph is simple and whose
    dual is loop-free (a block is never matched to itself), so no vertex
    has degree above ``max_vertices`` - 1.  Under ``dual_simple``, two
    blocks may share at most one edge.  ``forced_block`` sends every side
    of its block into block 0, and those two blocks may share any number of
    edges; ``spanning_block`` demands every vertex carry exactly one corner
    of that block.
    """

    sizes: tuple[int, ...]
    dual_simple: bool = True
    forced_block: int | None = None
    min_degree: int = 2
    max_vertices: int = 64
    spanning_block: int | None = None


def _block_classes(sizes: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Each block's class, the blocks held alike with it, in block order:
    the blocks of its size.  Nothing else decides which blocks are alike."""
    return [tuple(c for c, t in enumerate(sizes) if t == s) for s in sizes]


def _block_swaps(rules: _GlueRules) -> dict[int, tuple[int, ...]]:
    """For each block, the blocks that a relabelling may put in its place.

    These are the blocks of its class.  A block that the rules name (block
    0 and ``forced_block`` when that is set, and ``spanning_block``) must
    keep its place, and a block that is alone in its class does.  So where
    a named block shares its class with other blocks, each block of that
    class keeps its own place; it may still turn.  ``_run_glue_engine``
    prunes by the relabellings these allow, and where every entry is
    empty it keeps every completion.
    """
    named = {rules.spanning_block}
    if rules.forced_block is not None:
        named |= {0, rules.forced_block}
    return {
        b: (b,) if named.intersection(peers) else peers
        for b, peers in enumerate(_block_classes(rules.sizes))
    }


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
    one class (``_block_classes``) are entered in block order, so the fresh
    ones are the last blocks of that class, and a fresh block may be
    entered only when the previous block of its class (starting at
    ``peer``) is matched or is d0's.  ``alpha`` is -1 exactly on the
    unmatched darts.

    Each isomorphism class reaches ``accept`` once, by lex-leader pruning
    (McKay, J. Algorithms 26, 1998).  The DFS visits completions in
    lexicographic order of ``alpha``, so an isomorphism class's first
    completion is its least labelling, and the engine keeps only a
    labelling that no relabelling of its polygons makes smaller.  A
    relabelling is built the way the DFS builds a labelling.  A block is
    cold when the least unmatched dart is its start, so none of its sides
    is matched yet; block 0 is cold at the root.  At a cold block b the
    relabelling picks a block that ``_block_swaps`` lets take b's place and
    is still unreached, and a rotation of it; every other block takes the
    label that the rules above give it when first reached: the least fresh
    block of its class, the first that no block maps onto yet, with the
    reaching dart as its start.  Every relabelling is an isomorphism that
    keeps the named blocks and meets the rules above, and the least
    labelling of an isomorphism class is one of them, since entering a
    fresh block otherwise gives a larger ``alpha`` at the entering dart.
    So the least labelling is never cut, and every other labelling is,
    unless ``_block_swaps`` forbids the relabelling that maps it there.
    Every check above is invariant under a relabelling that keeps the named
    blocks, so the completions are a subsequence of those without the
    check, and the maps, their order and every verdict stay the same.

    A candidate is one relabelling, as an image that agrees with the
    labelling so far before position p, where the image's next match is
    decided.  ``tie`` advances it while both sides of position p are
    decided: x, the dart moved to p, and p itself are matched.  It cuts the
    branch when the image is smaller there, drops the candidate when it is
    larger or is an automorphism, and branches it at each cold block of
    the image.  A candidate that must wait sits in ``waiting`` under the
    dart it waits on, and only a match of that dart advances it.  Each
    node puts back what its candidates added (``hooks``), so the state of
    a node depends only on its labelling.  The candidates of a cold block
    of the labelling itself are made when d0 reaches it, with the blocks
    reached so far kept in place.  Those that keep b0 in place but turn it
    would cut any later side of b0 whose partner is below x = ``alpha`` of
    b0's start at once, as their image is smaller at b0's start; the rest
    wait on darts of fresh blocks.

    ``room[b0 * nb + b1]`` is how many more edges blocks b0 and b1 may
    share.  It starts at their cap: 0 when b0 == b1 (one face on both sides
    of an edge is a dual loop) or when one of them is ``forced_block`` and
    the other is not block 0; n, which never binds, for ``forced_block``
    and block 0, and for any pair without ``dual_simple``; 1 otherwise.
    Each match between the two takes one.

    The rotation is snext(d) = phi(alpha(d)), so matching d0 with d1 adds
    the two links ``snext[d0] = phi[d1]`` and ``snext[d1] = phi[d0]``.
    Partial rotations are chains under the chain-end invariant stated in
    ``_run_walk_engine``, with the link ``snext[tail] = head`` itself as
    the chain edge.  ``length`` (darts) and ``spans`` (corners of
    ``spanning_block``) are valid at chain starts.  A link closes a vertex
    exactly when ``start_of[tail] == head``, and only then is the rotation
    walked and checked.  Two unmatched darts are always the open ends of
    two different chains.  Like ``succ`` there, ``snext`` is never cleared.

    ``spare`` is the degree that may still go above ``min_degree``.  A
    connected simple completion has at least ``least`` vertices, the low end
    of ``_vertex_range`` (the size of ``spanning_block`` when that is
    larger), so its degrees above ``min_degree`` sum to at most n -
    ``min_degree`` * ``least``, and ``spare`` starts there.  A chain of L
    darts spends ``over[L]`` = max(0, L - ``min_degree``) of it, and more
    than there is once L passes the degree cap, ``max_vertices`` - 1;
    joining chains of ls and lh darts spends ``cost[ls][lh]`` = over[ls+lh]
    - over[ls] - over[lh] more.  Each open chain ends up inside exactly one
    vertex, and a vertex's excess is at least the sum of its chains'
    excesses, so the final excess is at least what the chains have spent.  A
    join that costs more than ``spare`` therefore has no connected
    completion below it and is refused; this one test is also the degree
    cap.  It cuts only disconnected completions, which ``_finished_map``
    drops anyway, so the connected ones and their order stay the same.  A
    vertex close spends nothing: its chain is already counted.

    ``room`` and the list change only once both links hold, so a branch
    that dies at a link, mostly at the degree budget, undoes only the links;
    ``step`` gives back what they spent by restoring ``spare``.  Most die at
    the first link's open-chain test, which reads only ``start_of[d0]`` and
    ``spare``, both fixed over d0's loop, and ``h1``; ``step`` repeats that
    test before calling ``link``, and such a node still ticks.
    """
    sizes = rules.sizes
    n = sum(sizes)
    nb = len(sizes)
    phi = [0] * n
    block_of = [0] * n
    block_start = []
    block_last = []
    turn = []  # turn[d][i] is phi^i(d)
    offset = []  # offset[d] is d minus its block's start
    pos = 0
    for b, s in enumerate(sizes):
        block_start.append(pos)
        block_last.append(pos + s - 1)
        for i in range(s):
            phi[pos + i] = pos + (i + 1) % s
            block_of[pos + i] = b
            turn.append([pos + (i + k) % s for k in range(s)])
            offset.append(i)
        pos += s
    alike = _block_classes(sizes)
    # the start of the block before b in b's class, -1 for the first
    peer = [-1 if k[0] == b else block_start[k[k.index(b) - 1]] for b, k in enumerate(alike)]
    swaps = _block_swaps(rules)
    forced = rules.forced_block
    room = [0] * (nb * nb)
    for b0, b1 in itertools.permutations(range(nb), 2):
        if forced in (b0, b1):
            room[b0 * nb + b1] = n if 0 in (b0, b1) else 0
        else:
            room[b0 * nb + b1] = 1 if rules.dual_simple else n
    spanning = rules.spanning_block
    min_degree, max_vertices = rules.min_degree, rules.max_vertices
    least = _vertex_range(
        n // 2, nb, min_degree, max_vertices, 0 if spanning is None else sizes[spanning]
    )[0]
    spare = n - min_degree * least
    # chains start at one dart and never pass max_vertices - 1 darts, nor n
    top = min(max(max_vertices - 1, 1), n)
    over = [max(0, k - min_degree) if k < max_vertices else n + 1 for k in range(2 * top + 1)]
    cost = [[over[a + b] - over[a] - over[b] for b in range(top + 1)] for a in range(top + 1)]
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
    # lex-leader state, see tie
    waiting: list[list[tuple[int, int, list[int]]]] = [[] for _ in range(n)]
    hooks: list[int] = []  # the dart of each candidate put into ``waiting``, in order

    def link(tail: int, head: int) -> bool:
        """Set ``snext[tail] = head``; False kills the branch, leaving nothing to undo."""
        nonlocal spare
        snext[tail] = head
        start = start_of[tail]
        if start != head:
            grow = cost[length[start]][length[head]]
            if grow > spare:
                return False  # what the chains spend only ever grows
            if spans[start] + spans[head] > 1:
                return False  # two corners of the spanning block at one vertex
            end = end_of[head]
            end_of[start] = end
            start_of[end] = start
            length[start] += length[head]
            spans[start] += spans[head]
            spare -= grow
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
        """Undo a link that ``link`` accepted, but for what it spent."""
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

    def unwait(mark: int) -> None:
        """Take out the candidates put into ``waiting`` since ``hooks`` was this long."""
        while len(hooks) > mark:
            waiting[hooks.pop()].pop()

    def moved(image: list[int], c: int, b: int, y: int) -> list[int]:
        """A copy of ``image`` that moves block c onto block b, y to b's start."""
        image = image[:]
        image[c] = turn[block_start[b]][-offset[y]]
        image[nb + b] = y
        return image

    def fan(p: int, b: int, image: list[int], skip: int) -> bool:
        """Branch an image at its cold block b, which starts at p: each block
        that may go there, at each rotation, but for the dart ``skip``."""
        return all(
            tie(p, x, moved(image, c, b, x))
            for c in swaps[b]
            if image[c] < 0
            for x in range(block_start[c], block_start[c] + sizes[b])
            if x != skip
        )

    def tie(p: int, x: int, image: list[int]) -> bool:
        """Compare an image with the labelling so far; False when it is smaller.

        The image agrees before position p, and x is the dart it moves to
        p.  ``image[c]`` is where block c's start goes and ``image[nb + b]``
        the dart that goes to block b's start, both -1 while unreached.  A
        candidate that waits on a dart is put into ``waiting`` and listed in
        ``hooks``.
        """
        while True:
            y = alpha[x]
            a = alpha[p]
            if y < 0 or a < 0:
                e = x if y < 0 else p
                waiting[e].append((p, x, image))
                hooks.append(e)
                return True
            c = block_of[y]
            if image[c] < 0:
                # y's block becomes the least fresh block of its class, with y
                # at its start, if the rules let it
                for b in alike[c]:
                    if image[nb + b] < 0:
                        break
                if c not in swaps[b]:
                    return True
                image = moved(image, c, b, y)
            y = turn[image[c]][offset[y]]
            if y != a:
                return y > a
            p += 1
            while p < n and 0 <= alpha[p] < p:
                p += 1  # matched to an earlier position on both sides
            if p == n:
                return True  # an automorphism
            b = block_of[p]
            if image[nb + b] < 0:
                return fan(p, b, image, -1)
            x = turn[image[nb + b]][offset[p]]

    def step() -> None:
        nonlocal spare
        d0 = nxt[n]
        if d0 == n:
            completion()
            return
        b0 = block_of[d0]
        row = b0 * nb
        h0 = phi[d0]
        start0 = start_of[d0]
        cost0 = cost[length[start0]]
        spare0 = spare
        after = nxt[d0]
        nxt[n] = after
        prv[after] = n
        d1 = after
        first = block_start[b0]
        mark = len(hooks)
        if d0 == first:
            # the blocks reached so far stay, and every other block that may
            # take b0's place, and b0 at every other rotation, is a candidate
            image = [t if alpha[t] >= 0 else -1 for t in block_start] * 2
            fan(d0, b0, image, d0)
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
                # link(d0, h1)'s open-chain test, repeated to save the call
                if h1 != start0 and (
                    cost0[length[h1]] > spare0 or spans[start0] + spans[h1] > 1
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
                        depth = len(hooks)
                        for c in waiting[d0] + waiting[d1]:
                            if not tie(*c):
                                break  # an image is smaller
                        else:
                            step()
                        unwait(depth)
                        nxt[before] = d1
                        prv[beyond] = d1
                        room[pair] += 1
                        room[mirror] += 1
                        unlink(d1, h0)
                    unlink(d0, h1)
                    spare = spare0  # give back what the links spent
                alpha[d1] = -1
            d1 = skip
        unwait(mark)
        nxt[n] = d0
        prv[after] = d0
        alpha[d0] = -1

    step()


# -- witness search ---------------------------------------------------------------------


class WitnessOutcome(NamedTuple):
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
        va = set(walk_vertices(m, fa.darts))
        for fb in m.faces:
            if fb.index == fa.index or fb.size != b:
                continue
            if demand == "shares-two-vertices":
                if len(va.intersection(walk_vertices(m, fb.darts))) >= 2:
                    return True
            elif doubly_intersecting(m, fa, fb):
                return True
    return False


def _vertex_range(
    edges: int, faces: int, min_degree: int, max_vertices: int, least: int = 0
) -> tuple[int, int]:
    """The fewest and the most vertices of a connected simple map of these counts.

    The map is orientable, with minimum degree c = ``min_degree`` and at
    least ``least`` and at most ``max_vertices`` vertices.  Its vertex count
    V obeys c + 1 <= V and c V <= 2E; simplicity gives V(V-1)/2 >= E; and
    Euler's formula V - E + F = 2 - 2g with g >= 0 gives V <= E - F + 2 and
    V = E + F (mod 2).  Every V of that parity between the two ends passes
    all of these, and the range is empty (the first end is the larger) when
    no V does.
    """
    low = max(min_degree + 1, least)
    while low * (low - 1) // 2 < edges:
        low += 1
    low += (low + edges + faces) % 2
    high = min(max_vertices, 2 * edges // min_degree, edges - faces + 2)
    high -= (high + edges + faces) % 2
    return low, high


def search_witness(spec: WitnessSpec, budget: SearchBudget | None = None) -> WitnessOutcome:
    """Hunt for a witness map, sweeping face multisets by increasing edge count.

    For every split of the pair sum and every triangle count that fits the
    edge budget, exhausts all maps with that exact face multiset.  Returns
    the first find; when every sweep completes empty, non-existence is
    certified for the entire budgeted range.

    A sweep is ``infeasible``, and is skipped, when no vertex count V is
    admissible for its E edges and F = t + 2 faces: c + 1 <= V <=
    min(max-vertices, 2E / c), V(V-1)/2 >= E, V <= E - F + 2 and V = E + F
    (mod 2), the last two from Euler's formula (``_vertex_range``).  Every
    other sweep runs with the largest admissible V as its vertex cap and
    V - 1 as its degree cap, and the engine holds the degree above c to
    what the least admissible V leaves; what that cuts off could only have
    closed into disconnected maps, which are no witnesses.
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
        least, max_v = _vertex_range(edges, t + 2, spec.connectivity, spec.max_vertices)
        if least > max_v:
            swept.append(f"pair=({a},{b}) triangles={t}: infeasible")
            continue
        sizes = tuple(sorted((a, b) + (3,) * t, reverse=True))
        rules = _GlueRules(
            sizes=sizes,
            dual_simple="simple" in spec.dual_demands,
            min_degree=spec.connectivity,
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
        forced_block=1,
        min_degree=2,
        max_vertices=9,
        spanning_block=1,
    )
    finds = _Finds(EmptyCircuitSpec(k=9, mode="circuit", single_neighbor=True))

    def accept(m: Map) -> None:
        if finds.add(m) and stop_at_first:
            raise _Stop

    try:
        _run_glue_engine(rules, clock, accept)
        complete = True
    except _Stop:
        complete = False
    return finds.outcome(complete, clock)


# -- complete graph embeddings -------------------------------------------------------------


def triangular_complete_map(n: int) -> Map:
    """An all-triangle embedding of the complete graph on n vertices.

    Euler counting admits one only for n = 4 (the sphere) and n = 7 (the
    torus) in this range: n = 5 gives a fractional face count and n = 6 an
    odd Euler characteristic.  K7 is Heawood's torus triangulation, with
    vertex i turning through i+1, i+3, i+2, i+6, i+4, i+5 (mod 7); its
    mirror is not isomorphic to it.  The result is canonical, so every call
    returns the same map.
    """
    if n == 4:
        return canonical_form(from_rotations([[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]]))
    if n == 7:
        return canonical_form(
            from_rotations([[(i + s) % 7 for s in (1, 3, 2, 6, 4, 5)] for i in range(7)])
        )
    raise SearchError(f"no all-triangle embedding of the complete graph on {n} vertices")


# -- the small-map corpus --------------------------------------------------------------------


def _join_pairs(m: Map) -> list[tuple[int, int]]:
    """The vertex pairs u < w whose join children the corpus build keeps.

    u and w are not adjacent, every leaf of m is u or w, so the child has
    no leaf, and no edge of the child that is not a bridge outranks the new
    edge uw; a tie does not (``enumerate_connected_maps`` has the proof).
    An edge's rank is the child degrees of its two endpoints, larger first.
    Degrees and bridges belong to the graph, not the rotations, so one test
    covers all deg(u)·deg(w) children of the pair.  An edge xy of m is a
    bridge of the child when it is a bridge of m and u and w lie on the
    same side of it.
    """
    adjacency = m.adjacency
    degree = [len(r) for r in m.rotations]
    leaves = {x for x, k in enumerate(degree) if k == 1}
    if len(leaves) > 2:
        return []
    V = len(degree)
    edges = []  # (x, y, x's side of xy if xy is a bridge of m, else None)
    for x in range(V):
        for y in adjacency[x]:
            if y < x:
                continue
            side, stack = {x}, [x]
            while stack:
                a = stack.pop()
                for b in adjacency[a]:
                    if b not in side and (a, b) != (x, y):
                        side.add(b)
                        stack.append(b)
            edges.append((x, y, None if y in side else side))
    pairs = []
    for u in range(V):
        for w in range(u + 1, V):
            if w in adjacency[u] or not leaves <= {u, w}:
                continue
            deg = [k + (x == u or x == w) for x, k in enumerate(degree)]  # in the child
            top = (max(deg[u], deg[w]), min(deg[u], deg[w]))
            if not any(
                (max(deg[x], deg[y]), min(deg[x], deg[y])) > top
                and (side is None or (u in side) != (w in side))
                for x, y, side in edges
            ):
                pairs.append((u, w))
    return pairs


def enumerate_connected_maps(max_edges: int) -> tuple[Map, ...]:
    """Every connected simple map with 1..max_edges edges, one per class.

    Grown by edge augmentation: each map with E+1 edges arises from one
    with E edges by attaching a fresh leaf into some rotation gap or by
    joining two non-adjacent vertices.  Chiral pairs appear as two classes.

    Only children whose new edge a canonical deletion could remove are
    built (McKay's canonical construction path).  A leaf is a degree-1
    vertex and its anchor is its one neighbour.  A leaf child at u is kept
    when no leaf edge of the child has an anchor of larger degree than u's.
    A join child is kept when it has no leaf and no edge of the child that
    is not a bridge outranks the new edge, an edge's rank being the child
    degrees of its two endpoints, larger first (``_join_pairs``, once per
    pair of vertices).  Every class is still reached.  If a map M with E+1
    edges has a leaf, deleting the leaf edge whose anchor has the largest
    degree leaves a connected map, isomorphic to some parent, and the leaf
    child that puts the edge back passes.  If M has no leaf, M has a cycle,
    so an edge that is not a bridge.  Deleting a highest-ranked such edge e
    leaves a connected map, isomorphic to some parent, and the join child
    that puts e back passes: it is M up to isomorphism, which keeps degrees
    and bridges, so it has no leaf and no edge that is not a bridge ranks
    above e.

    Children are grown on the parent's dart arrays: the new edge is darts D
    and D + 1, with D inserted after a dart d of u in u's rotation and D + 1
    after a dart e of w, or alone at a new vertex for a leaf.  Each child
    gets only its least-root words; a child's form is built from those
    words (``_relabel``) only when its code is new.  The code fixes the form, so which child of a
    class comes first, or which children are skipped, does not matter.
    Output is by edge count, then code.
    """
    _require_int(max_edges, "max_edges", SearchError)
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
            rotations = m.rotations
            degree = [len(r) for r in rotations]
            anchor = {x: vertex_of[alpha[r[0]]] for x, r in enumerate(rotations) if len(r) == 1}
            children = []  # (child sigma, vertex of D, vertex of D + 1)
            for u, darts in enumerate(rotations):
                if any(x != u and a != u and degree[a] > degree[u] + 1 for x, a in anchor.items()):
                    continue
                for d in darts:
                    child = [*sigma, sigma[d], D + 1]
                    child[d] = D
                    children.append((child, u, V))
            for u, w in _join_pairs(m):
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
                    grown[code] = _relabel((*vertex_of, u, w), words, order)
        levels.append(grown)
    return tuple(level[code] for level in levels for code in sorted(level))
