"""Vertex connectivity, minimum cuts and small cut-set enumeration.

Two independent routes compute kappa: unit-capacity vertex-split max-flow,
which ``vertex_connectivity`` uses at every size, and exhaustive subset
deletion, kept as the oracle.  The flow route runs v0 of least degree
against a vertex cover of its non-neighbours, then pairs of its neighbours.
The lexicographically smallest minimum cut comes from flows and component
searches (``min_cut``).  Listing vertex subsets (``find_cutsets``) is kept
only as the oracle the tests check the flow routes against.  Inputs may be
Map instances or adjacency sequences that list each edge at both ends;
multiplicities and embeddings are irrelevant here, so everything is
collapsed to neighbor sets first.  ``_components`` is the one component
search of the package; the dual's cut checks use it too.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence

from .core import Face, Map

Adjacency = tuple[frozenset[int], ...]


def adjacency_of(g: Map | Sequence[Iterable[int]]) -> Adjacency:
    """Neighbor sets of a Map or of a raw adjacency sequence (loops dropped).

    A sequence must list each edge at both ends, within 0..n-1.
    """
    if isinstance(g, Map):
        return g.adjacency
    adj = tuple(frozenset(w for w in nbrs if w != v) for v, nbrs in enumerate(g))
    for v, nbrs in enumerate(adj):
        for w in nbrs:
            if not (0 <= w < len(adj) and v in adj[w]):
                raise ValueError(f"vertex {v} lists {w}, not a vertex that lists {v} back")
    return adj


def _components(
    adj: Sequence[Iterable[int]], removed: frozenset[int] = frozenset()
) -> list[set[int]]:
    """The components of ``adj`` without ``removed``, in order of least vertex."""
    comps = []
    seen = set(removed)
    for v in range(len(adj)):
        if v in seen:
            continue
        comp = {v}
        seen.add(v)
        stack = [v]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(comp)
    return comps


def _require_connected(adj: Adjacency) -> None:
    if len(adj) < 2:
        raise ValueError("connectivity needs at least 2 vertices")
    if len(_components(adj)) != 1:
        raise ValueError("graph is disconnected")


def _is_complete(adj: Adjacency) -> bool:
    n = len(adj)
    return all(len(adj[v]) == n - 1 for v in range(n))


def _disconnects(adj: Adjacency, cut: frozenset[int]) -> bool:
    if len(cut) >= len(adj) - 1:
        return False
    return len(_components(adj, cut)) >= 2


def vertex_connectivity_bruteforce(g) -> int:
    """kappa by deleting every vertex subset in increasing size order."""
    adj = adjacency_of(g)
    _require_connected(adj)
    n = len(adj)
    if _is_complete(adj):
        return n - 1
    for k in range(1, n - 1):
        for cut in itertools.combinations(range(n), k):
            if _disconnects(adj, frozenset(cut)):
                return k
    return n - 1


class _SplitNetwork:
    """Unit-capacity vertex-split flow network of a graph, built once.

    Vertex v becomes in-node 2v and out-node 2v+1, joined by arc 2v; each
    edge uw gives the arcs out(u)->in(w) and out(w)->in(u).  Arc a^1 is the
    reverse of arc a.  Every flow starts from the capacities in ``base``, so
    zeroing ``base[2v]`` deletes vertex v from all later flows.
    """

    __slots__ = ("head", "arcs_from", "base")

    def __init__(self, adj: Adjacency) -> None:
        n = len(adj)
        head: list[int] = []
        arcs_from: list[list[int]] = [[] for _ in range(2 * n)]
        for v in range(n):
            arcs_from[2 * v].append(2 * v)
            arcs_from[2 * v + 1].append(2 * v + 1)
            head += (2 * v + 1, 2 * v)
        for u in range(n):
            for w in adj[u]:
                a = len(head)
                arcs_from[2 * u + 1].append(a)
                arcs_from[2 * w].append(a + 1)
                head += (2 * w, 2 * u + 1)
        self.head = head
        self.arcs_from = arcs_from
        self.base = [1, 0] * (len(head) // 2)


def _search(net: _SplitNetwork, cap: list[int], source: int, sink: int) -> list[int]:
    """BFS labels: the arc that first reached each node, or -1 if none did.

    It stops once ``sink`` holds an arc, so with the source (label -2) as
    sink it labels all it can reach.  Labels do not depend on where it stops.
    """
    head, arcs_from = net.head, net.arcs_from
    via = [-1] * len(arcs_from)
    via[source] = -2
    queue = [source]
    for u in queue:
        for a in arcs_from[u]:
            if cap[a] and via[head[a]] == -1:
                via[head[a]] = a
                queue.append(head[a])
        if via[sink] >= 0:
            break
    return via


def _st_flow(net: _SplitNetwork, s: int, t: int, limit: int, via: list[int] | None = None) -> int:
    """Internally disjoint s-t paths (s, t non-adjacent), counted up to ``limit``.

    Edmonds-Karp on unit capacities: each augmenting path is a BFS, and the
    search stops as soon as ``limit`` paths are found.  ``via``, if given,
    labels a full search from s on the untouched network; it stands in for
    the first BFS, which would label the same path.
    """
    head = net.head
    cap = net.base[:]
    source, sink = 2 * s + 1, 2 * t
    flow = 0
    while flow < limit:
        via = via or _search(net, cap, source, sink)
        if via[sink] == -1:
            return flow
        node = sink
        while node != source:
            a = via[node]
            cap[a] -= 1
            cap[a ^ 1] += 1
            node = head[a ^ 1]
        flow, via = flow + 1, None
    return flow


def vertex_connectivity_flow(g) -> int:
    """kappa by max-flow.

    A minimum cut either holds v0, a vertex of least degree d, and then
    separates two non-adjacent neighbours of v0, or misses it.  For the
    latter, v0 flows to a cover of the edges of G - N[v0]: scanning the
    non-neighbours in ascending order, t is skipped when none of its
    neighbours has been, so no two skipped vertices are adjacent.  Take a cut
    S missing v0 with |S| < best <= d, and a component C of G - S without
    v0.  C misses N[v0], as v0 is not in S.  Each c in C has d <= deg(c) <=
    |C| - 1 + |S|, so |C| >= d - |S| + 1 >= 2, and C, being connected, holds
    an edge of G - N[v0].  One end of it is tested, and that flow is <= |S|.

    Every flow runs on one network, capped at the best kappa so far, and
    none runs once it is 1, which a connected graph cannot go below.  The
    v0 flows share one full first search.  Complete graphs give n-1.
    """
    adj = adjacency_of(g)
    _require_connected(adj)
    n = len(adj)
    if _is_complete(adj):
        return n - 1
    v0 = min(range(n), key=lambda v: (len(adj[v]), v))
    best = len(adj[v0])
    if best == 1:
        return 1
    net = _SplitNetwork(adj)
    first = None
    skipped: set[int] = set()
    for t in range(n):
        if t == v0 or t in adj[v0]:
            continue
        if skipped.isdisjoint(adj[t]):
            skipped.add(t)
        elif best > 1:
            first = first or _search(net, net.base, 2 * v0 + 1, 2 * v0 + 1)
            best = _st_flow(net, v0, t, best, first)
    for x, y in itertools.combinations(sorted(adj[v0]), 2):
        if best > 1 and y not in adj[x]:
            best = _st_flow(net, x, y, best)
    return best


def vertex_connectivity(g) -> int:
    """kappa of a Map or adjacency sequence, by max-flow."""
    return vertex_connectivity_flow(g)


def _extends(net: _SplitNetwork, adj: Adjacency, prefix: list[int], v: int, room: int) -> bool:
    """Whether some minimum cut holds ``prefix`` + v; ``net`` has them deleted.

    That is whether H = G - prefix - v has a cut D of ``room`` vertices.
    With ``room`` 0 that is whether H is disconnected.  Otherwise: every
    vertex of a minimum cut has neighbours in every component it leaves.
    So for any neighbour x of v in H: if x is outside D, D separates x from
    another neighbour of v; if x is in D, D separates two neighbours of x.
    Conversely, any two vertices of H that ``room`` vertices separate give
    such a D.
    """
    if room == 0:
        return _disconnects(adj, frozenset([*prefix, v]))
    nbrs = [w for w in adj[v] if w not in prefix]
    if not nbrs:
        return False
    x = min(nbrs, key=lambda w: len(adj[w]))
    around = [w for w in adj[x] if w != v and w not in prefix]
    pairs = itertools.chain(((x, y) for y in nbrs if y != x), itertools.combinations(around, 2))
    return any(b not in adj[a] and _st_flow(net, a, b, room + 1) <= room for a, b in pairs)


def min_cut(g) -> tuple[int, tuple[int, ...] | None]:
    """kappa and the lexicographically smallest minimum vertex cut.

    The cut is None if g is complete.  kappa comes from max-flow.  Vertices
    are scanned in ascending order, and v joins the prefix when some
    minimum cut holds the prefix and v, which a few flows capped at the cut
    vertices still to find decide (the last, a component search).  The
    cut is the least sorted one ``find_cutsets(g, kappa)`` lists, found
    without listing any subset.
    """
    adj = adjacency_of(g)
    kappa = vertex_connectivity_flow(adj)
    if _is_complete(adj):
        return kappa, None
    net = _SplitNetwork(adj)
    cut: list[int] = []
    for v in range(len(adj)):
        net.base[2 * v] = 0
        if _extends(net, adj, cut, v, kappa - len(cut) - 1):
            cut.append(v)
            if len(cut) == kappa:
                return kappa, tuple(cut)
        else:
            net.base[2 * v] = 1
    raise RuntimeError(f"scan found {len(cut)} of {kappa} cut vertices")


def find_cutsets(g, k: int) -> list[frozenset[int]]:
    """All inclusion-minimal cut-sets of size at most k.

    Deterministic: sizes ascending, lexicographic vertex order within a
    size.  Every vertex subset up to size k is tried, so this is the
    oracle for the flow routes, not a route of its own.
    """
    adj = adjacency_of(g)
    _require_connected(adj)
    cuts: list[frozenset[int]] = []
    n = len(adj)
    for size in range(1, min(k, n - 2) + 1):
        for combo in itertools.combinations(range(n), size):
            cut = frozenset(combo)
            if any(found <= cut for found in cuts):
                continue  # smaller cut inside; not inclusion-minimal
            if _disconnects(adj, cut):
                cuts.append(cut)
    return cuts


def is_separating_cycle(m: Map, cycle) -> bool:
    """Whether the cycle's vertex set is a cut-set of the map's graph.

    ``cycle`` is a vertex sequence or a Face whose walk visits distinct
    vertices of the map.  Consecutive vertices must be adjacent (closing
    edge included); anything else is rejected, not coerced.
    """
    if isinstance(cycle, Face):
        vertex_of = m.vertex_of
        verts = [vertex_of[d] for d in cycle.darts]
    else:
        verts = list(cycle)
    if len(verts) < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    if len(set(verts)) != len(verts):
        raise ValueError("walk repeats a vertex; not a cycle")
    for v in verts:
        if not 0 <= v < m.vertex_count:
            raise ValueError(f"vertex {v} is not a vertex of the map")
    adj = m.adjacency
    for a, b in zip(verts, verts[1:] + verts[:1]):
        if b not in adj[a]:
            raise ValueError(f"consecutive cycle vertices {a},{b} are not adjacent")
    return _disconnects(adj, frozenset(verts))
