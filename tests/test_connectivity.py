import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import connected_simple_maps
from ormaps import connectivity
from ormaps.connectivity import (
    adjacency_of,
    find_cutsets,
    is_separating_cycle,
    min_cut,
    vertex_connectivity,
    vertex_connectivity_bruteforce,
    vertex_connectivity_flow,
)
from ormaps.dual import dual
from ormaps.search import enumerate_connected_maps
from ormaps.surgery import stacked_triangulation, wheel
from test_dual import make_bowtie, make_dumbbell, make_octahedron


def complete_graph(n):
    return [set(range(n)) - {v} for v in range(n)]


def cycle_graph(n):
    return [{(v - 1) % n, (v + 1) % n} for v in range(n)]


def path_graph(n):
    return [{w for w in (v - 1, v + 1) if 0 <= w < n} for v in range(n)]


def petersen_graph():
    adj = [set() for _ in range(10)]
    for i in range(5):
        pairs = [(i, (i + 1) % 5), (i, 5 + i), (5 + i, 5 + (i + 2) % 5)]
        for a, b in pairs:
            adj[a].add(b)
            adj[b].add(a)
    return adj


def two_cliques_through_a_hub():
    # cliques 1..5 and 6..10 joined by the edge 5-10 and by the hub 0, which
    # has the least degree and lies in every 2-cut
    adj = [set() for _ in range(11)]
    edges = [(0, 1), (0, 2), (0, 6), (0, 7), (5, 10)]
    edges += itertools.combinations(range(1, 6), 2)
    edges += itertools.combinations(range(6, 11), 2)
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def cover_must_hold_both_ends():
    # K6 on 1..6; 0 sees 1, 2, 3; the edge 7-8 hangs off 5 and 6, so {5, 6}
    # cuts off 7 and 8.  v0 = 0 and the scan of its non-neighbours skips 4
    # and 7, so it must test 8: skipping both ends of 7-8 would miss the cut
    adj = [set() for _ in range(9)]
    edges = [(0, 1), (0, 2), (0, 3), (7, 8), (5, 7), (6, 7), (5, 8), (6, 8)]
    edges += itertools.combinations(range(1, 7), 2)
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


BOTH_ROUTES = [vertex_connectivity_bruteforce, vertex_connectivity_flow]
ENTRY_POINTS = {
    "bruteforce": vertex_connectivity_bruteforce,
    "flow": vertex_connectivity_flow,
    "vertex_connectivity": vertex_connectivity,
    "min_cut": min_cut,
    "find_cutsets": lambda g: find_cutsets(g, 1),
}


@pytest.fixture
def flows(monkeypatch):
    """The argument tuples of every ``_st_flow`` call made in the test."""
    calls = []
    st_flow = connectivity._st_flow

    def counted(*args):
        calls.append(args)
        return st_flow(*args)

    monkeypatch.setattr(connectivity, "_st_flow", counted)
    return calls


class TestVertexConnectivity:
    @pytest.mark.parametrize("kappa_fn", BOTH_ROUTES)
    def test_small_named_graphs(self, kappa_fn):
        assert kappa_fn(complete_graph(4)) == 3
        assert kappa_fn(cycle_graph(5)) == 2
        assert kappa_fn(path_graph(4)) == 1
        assert kappa_fn(petersen_graph()) == 3
        assert kappa_fn(two_cliques_through_a_hub()) == 2
        assert kappa_fn(cover_must_hold_both_ends()) == 2

    @pytest.mark.parametrize("kappa_fn", BOTH_ROUTES)
    def test_complete_graph_convention(self, kappa_fn):
        for n in range(2, 7):
            assert kappa_fn(complete_graph(n)) == n - 1

    def test_map_inputs(self, tetrahedron):
        assert vertex_connectivity(tetrahedron) == 3
        assert vertex_connectivity(make_bowtie()) == 1
        assert vertex_connectivity(make_octahedron()) == 4
        assert vertex_connectivity(dual(tetrahedron).dual) == 3

    @pytest.mark.parametrize("kappa_fn", BOTH_ROUTES + [vertex_connectivity])
    def test_disconnected_rejected(self, kappa_fn):
        with pytest.raises(ValueError, match="disconnected"):
            kappa_fn([{1}, {0}, {3}, {2}])

    @pytest.mark.parametrize("kappa_fn", BOTH_ROUTES)
    def test_single_vertex_rejected(self, kappa_fn):
        with pytest.raises(ValueError):
            kappa_fn([set()])

    @given(connected_simple_maps(max_vertices=8, max_extra_edges=8))
    @settings(max_examples=120, deadline=None)
    def test_flow_equals_bruteforce(self, m):
        assert vertex_connectivity_flow(m) == vertex_connectivity_bruteforce(m)

    def test_a_leaf_decides_kappa_without_a_flow(self, flows):
        # a degree-1 vertex makes kappa 1, and no flow can go below that
        spider = [{1, 2, 3}, {0, 4}, {0, 5}, {0}, {1}, {2, 6}, {5}]
        leafy = [
            m
            for m in enumerate_connected_maps(6)
            if min(m.degree(v) for v in range(m.vertex_count)) == 1
        ]
        assert len(leafy) == 73
        for g in [path_graph(6), spider, *leafy]:
            assert vertex_connectivity_flow(g) == vertex_connectivity_bruteforce(g) == 1
        assert flows == []

    def test_flow_equals_bruteforce_on_random_graphs(self):
        # unlike the small maps, these often have kappa below the least degree
        for g in random_connected_graphs(300):
            assert vertex_connectivity_flow(g) == vertex_connectivity_bruteforce(g), g

    def test_flow_count_on_a_dual(self, flows):
        # the dual of a 40-vertex stacked triangulation has 76 vertices and
        # kappa 3: v0 = 0 flows to the 47 of its 72 non-neighbours that cover
        # the edges among them, and its neighbours take 2 more
        # (a flow to every non-neighbour would make 74)
        assert vertex_connectivity_flow(dual(stacked_triangulation(40)).dual) == 3
        assert len(flows) == 49

    @given(connected_simple_maps(max_vertices=7, max_extra_edges=6))
    @settings(max_examples=60, deadline=None)
    def test_kappa_at_most_min_degree(self, m):
        kappa = vertex_connectivity(m)
        assert kappa <= min(m.degree(v) for v in range(m.vertex_count))


class TestFindCutsets:
    def test_bowtie_wedge_vertex(self):
        assert find_cutsets(make_bowtie(), 1) == [frozenset({0})]

    def test_three_connected_graph_has_no_small_cuts(self, tetrahedron):
        assert find_cutsets(dual(tetrahedron).dual, 2) == []

    def test_cycle_cutsets_are_nonadjacent_pairs(self):
        cuts = find_cutsets(cycle_graph(5), 2)
        assert len(cuts) == 5
        assert all(len(c) == 2 for c in cuts)
        adj = adjacency_of(cycle_graph(5))
        for c in cuts:
            a, b = sorted(c)
            assert b not in adj[a]

    def test_inclusion_minimality(self):
        cuts = find_cutsets(make_dumbbell(), 2)
        assert frozenset({2}) in cuts and frozenset({3}) in cuts
        for c in cuts:
            assert not (frozenset({2}) < c or frozenset({3}) < c)

    def test_deterministic_order(self):
        cuts = find_cutsets(cycle_graph(6), 2)
        assert cuts == sorted(cuts, key=lambda c: (len(c), sorted(c)))

    def test_cap_truncates(self):
        cuts = find_cutsets(cycle_graph(6), 2, cap=3)
        assert len(cuts) == 3


def oracle_min_cut(g, kappa):
    """The smallest sorted cut among all subsets of kappa vertices."""
    return min((tuple(sorted(c)) for c in find_cutsets(g, kappa)), default=None)


def random_connected_graphs(count, seed=7):
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        n = rng.randint(3, 13)
        density = rng.random()
        adj = [set() for _ in range(n)]
        for a, b in itertools.combinations(range(n), 2):
            if rng.random() < density:
                adj[a].add(b)
                adj[b].add(a)
        try:
            vertex_connectivity(adj)
        except ValueError:
            continue  # disconnected
        graphs.append(adj)
    return graphs


class TestMinCut:
    @staticmethod
    def assert_matches_oracle(graphs):
        for g in graphs:
            adj = adjacency_of(g)
            if len(adj) < 2:
                continue
            kappa = vertex_connectivity(adj)
            assert min_cut(adj) == (kappa, oracle_min_cut(adj, kappa)), adj

    def test_small_maps_and_their_duals(self):
        maps = list(enumerate_connected_maps(7))
        self.assert_matches_oracle(maps + [dual(m).dual for m in maps])

    def test_stacked_triangulations_and_their_duals(self):
        maps = [stacked_triangulation(n) for n in range(6, 21)]
        self.assert_matches_oracle(maps + [dual(m).dual for m in maps])

    def test_random_graphs(self):
        self.assert_matches_oracle(random_connected_graphs(300))

    def test_complete_graphs_have_no_cut(self):
        for n in range(2, 7):
            assert min_cut(complete_graph(n)) == (n - 1, None)

    def test_named_graphs(self):
        assert min_cut(make_bowtie()) == (1, (0,))
        assert min_cut(cycle_graph(6)) == (2, (0, 2))
        assert min_cut(petersen_graph()) == (3, (0, 2, 6))  # the neighbours of 1
        assert min_cut(two_cliques_through_a_hub()) == (2, (0, 5))
        assert min_cut(cover_must_hold_both_ends()) == (2, (5, 6))

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="disconnected"):
            min_cut([{1}, {0}, {3}, {2}])

    def test_flow_count_on_a_dual(self, flows):
        # kappa's 49 flows, then 2 for the first two cut vertices; the last
        # one is found by component searches alone
        assert min_cut(dual(stacked_triangulation(40)).dual) == (3, (0, 1, 55))
        assert len(flows) == 51


class TestIsSeparatingCycle:
    def test_octahedron_equator(self):
        assert is_separating_cycle(make_octahedron(), [1, 2, 3, 4])

    def test_tetrahedron_facial_triangle(self, tetrahedron):
        assert not is_separating_cycle(tetrahedron, tetrahedron.faces[0])

    def test_bowtie_triangle_leaves_other_triangle_intact(self):
        assert not is_separating_cycle(make_bowtie(), [0, 1, 2])

    def test_rejects_non_cycles(self, tetrahedron):
        with pytest.raises(ValueError, match="at least 3"):
            is_separating_cycle(tetrahedron, [0, 1])
        with pytest.raises(ValueError, match="repeats"):
            is_separating_cycle(tetrahedron, [0, 1, 0, 2])
        with pytest.raises(ValueError, match="not adjacent"):
            is_separating_cycle(make_bowtie(), [1, 2, 3])
        # wheel(4) has vertices 0..4; -1 would otherwise be read as rim vertex 4
        for cycle in ([99, 0, 1], [-1, 0, 1]):
            with pytest.raises(ValueError, match="not a vertex of the map"):
                is_separating_cycle(wheel(4), cycle)


def test_adjacency_of_drops_loops():
    adj = adjacency_of([{0, 1}, {0}])
    assert adj == (frozenset({1}), frozenset({0}))


@pytest.mark.parametrize("entry_point", ENTRY_POINTS)
@pytest.mark.parametrize(
    "g, bad",
    [([[1], [2], []], 1), ([[1, 5], [0]], 5), ([[1, -1], [0]], -1)],
    ids=["path-listed-one-way", "past-the-end", "negative"],
)
def test_non_graphs_rejected(entry_point, g, bad):
    with pytest.raises(ValueError, match=f"vertex 0 lists {bad}, not a vertex that lists 0 back"):
        ENTRY_POINTS[entry_point](g)
