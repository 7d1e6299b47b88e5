"""Exhaustive-search engine tests: spec parsing, small oracles, budgets."""

import hashlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ormaps
from ormaps import canonical, canonical_code, dual, genus, search, vertex_connectivity
from ormaps.core import Map, _least_root, _pack, _relabel, maps_isomorphic_bruteforce
from ormaps.search import (
    _NINE_SIZES,
    _REMARK_CASES,
    CASE_LABELS,
    EmptyCircuitSpec,
    SearchBudget,
    SearchError,
    WitnessSpec,
    _Clock,
    _GlueRules,
    _Stop,
    _finished_map,
    _join_pairs,
    _run_glue_engine,
    _run_walk_engine,
    _shape_group,
    _shape_transforms,
    _vertex_range,
    _walk_shapes,
    empty_map_problems,
    enumerate_connected_maps,
    enumerate_empty,
    parse_empty_spec,
    parse_witness_spec,
    search_empty_9_cycle,
    search_witness,
    triangular_complete_map,
    verify_remark24,
)


@pytest.fixture(scope="module")
def six_distinct():
    return enumerate_empty(EmptyCircuitSpec(k=6, distinct_neighbors=True))


@pytest.fixture(scope="module")
def small_corpus():
    return enumerate_connected_maps(6)


@pytest.fixture(scope="module")
def pair_corpus():
    return enumerate_connected_maps(7)


class TestSpecConstruction:
    def test_rejects_tiny_k(self):
        with pytest.raises(SearchError):
            EmptyCircuitSpec(k=2)

    def test_rejects_conflicting_side_constraints(self):
        with pytest.raises(SearchError):
            EmptyCircuitSpec(k=5, distinct_neighbors=True, single_neighbor=True)

    def test_detached_face_is_circuit_only(self):
        with pytest.raises(SearchError):
            EmptyCircuitSpec(k=6, mode="pair", pair_sizes=(3, 3), detached_face=True)

    def test_pair_sizes_must_sum_to_k(self):
        with pytest.raises(SearchError):
            EmptyCircuitSpec(k=7, mode="pair", pair_sizes=(3, 3))

    def test_pair_sides_need_three_vertices(self):
        with pytest.raises(SearchError):
            EmptyCircuitSpec(k=4, mode="pair", pair_sizes=(2, 2))

    def test_circuit_mode_rejects_pair_sizes(self):
        with pytest.raises(SearchError):
            EmptyCircuitSpec(k=6, mode="circuit", pair_sizes=(3, 3))

    def test_pair_sizes_must_be_two(self):
        with pytest.raises(SearchError, match="two sizes"):
            EmptyCircuitSpec(6, mode="pair", pair_sizes=(3, 3, 0))

    def test_rejects_fractional_k(self):
        with pytest.raises(SearchError, match="k must be an integer"):
            EmptyCircuitSpec(6.5)

    def test_witness_rejects_bare_string_demands(self):
        with pytest.raises(SearchError, match="not the string 'simple'"):
            WitnessSpec(3, 8, dual_demands="simple")

    def test_witness_rejects_fractional_pair_sum(self):
        with pytest.raises(SearchError, match="pair-sum must be an integer"):
            WitnessSpec(3, 8.5)

    def test_witness_rejects_fractional_connectivity(self):
        with pytest.raises(SearchError, match="connectivity must be an integer"):
            WitnessSpec(3.0, 8)


class TestSpecGrammar:
    def test_circuit_round_trip(self):
        spec = parse_empty_spec("k=6; mode=circuit; constraints=distinct-neighbors")
        assert spec == EmptyCircuitSpec(k=6, distinct_neighbors=True)

    def test_pair_with_sizes(self):
        spec = parse_empty_spec("k=7; mode=pair:3+4; constraints=single-neighbor,min-faces:4")
        assert spec.mode == "pair"
        assert spec.pair_sizes == (3, 4)
        assert spec.single_neighbor and spec.min_faces == 4

    def test_bounds_keys(self):
        spec = parse_empty_spec("k=6; max-vertices=5; max-edges=12")
        assert spec.max_vertices == 5 and spec.max_edges == 12

    def test_unknown_key_rejected(self):
        with pytest.raises(SearchError):
            parse_empty_spec("k=6; flavor=spicy")

    def test_malformed_entry_rejected(self):
        with pytest.raises(SearchError):
            parse_empty_spec("k")

    def test_unknown_mode_rejected(self):
        with pytest.raises(SearchError, match="unknown mode 'bogus'"):
            parse_empty_spec("k=5; mode=bogus")

    def test_witness_grammar(self):
        spec = parse_witness_spec(
            "c=2; pair-sum=7; dual=simple,has-2-cut; pair=shares-two-vertices; "
            "max-vertices=6; max-edges=15"
        )
        assert spec == WitnessSpec(
            connectivity=2,
            pair_sum=7,
            dual_demands=("simple", "has-2-cut"),
            pair_demand="shares-two-vertices",
            max_vertices=6,
            max_edges=15,
        )

    def test_witness_unknown_demand_rejected(self):
        with pytest.raises(SearchError):
            parse_witness_spec("c=2; pair-sum=7; dual=glorious")

    @pytest.mark.parametrize(
        "text, key",
        [
            ("k=6; max-vertices=-1", "max-vertices"),
            ("k=6; min-vertices=-2", "min-vertices"),
            ("k=6; max-edges=-1", "max-edges"),
            ("k=6; constraints=min-faces:-1", "min-faces"),
        ],
    )
    def test_negative_empty_bound_rejected(self, text, key):
        with pytest.raises(SearchError, match=key):
            parse_empty_spec(text)

    @pytest.mark.parametrize(
        "text, key",
        [
            ("c=2; pair-sum=7; max-vertices=-3", "max-vertices"),
            ("c=2; pair-sum=7; max-edges=-1", "max-edges"),
        ],
    )
    def test_negative_witness_bound_rejected(self, text, key):
        with pytest.raises(SearchError, match=key):
            parse_witness_spec(text)

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("k=5; k=6", "duplicate key 'k'"),
            ("k=five", "k must be an integer"),
            ("mode=pair", "missing required key 'k'"),
            ("k=5; mode=pair:3+x", "pair sizes must look like pair:3+4"),
            ("k=5; constraints=min-faces:x", "min-faces needs an integer"),
            ("k=5; constraints=bogus", "unknown constraint 'bogus'"),
        ],
    )
    def test_empty_spec_refusal_texts(self, text, fragment):
        with pytest.raises(SearchError, match=re.escape(fragment)):
            parse_empty_spec(text)

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("c=2", "witness specs need both 'c' and 'pair-sum'"),
            ("c=0; pair-sum=7", "connectivity must be positive"),
            ("c=2; pair-sum=5", "two faces cannot sum below 6"),
            ("c=2; pair-sum=7; pair=bogus", "unknown pair demand 'bogus'"),
        ],
    )
    def test_witness_spec_refusal_texts(self, text, fragment):
        with pytest.raises(SearchError, match=re.escape(fragment)):
            parse_witness_spec(text)

    def test_zero_bounds_stay_allowed(self):
        assert parse_empty_spec("k=6; max-edges=0; min-vertices=0").max_edges == 0
        assert parse_witness_spec("c=2; pair-sum=7; max-vertices=0").max_vertices == 0
        assert SearchBudget(max_nodes=0, max_seconds=0.0).max_nodes == 0

    @pytest.mark.parametrize(
        "kwargs, key", [({"max_nodes": -5}, "max-nodes"), ({"max_seconds": -1.0}, "max-seconds")]
    )
    def test_negative_budget_rejected(self, kwargs, key):
        with pytest.raises(SearchError, match=key):
            SearchBudget(**kwargs)

    def test_nan_seconds_rejected(self):
        # NaN compares false with everything, so a deadline of NaN never passes
        with pytest.raises(SearchError, match="max-seconds"):
            SearchBudget(max_seconds=float("nan"))

    def test_infinite_seconds_stay_allowed(self):
        assert SearchBudget(max_seconds=float("inf")).max_seconds == float("inf")


class TestSmallOracle:
    """The engine agrees with brute force filtered by the independent checker."""

    @pytest.mark.parametrize("k", [3, 4])
    def test_circuit_enumeration_matches_brute_force(self, k, small_corpus):
        spec = EmptyCircuitSpec(k=k)
        mine = {canonical_code(m) for m in enumerate_empty(spec).maps}
        brute = {
            canonical_code(m)
            for m in small_corpus
            if m.vertex_count <= k and not empty_map_problems(m, spec)
        }
        assert mine == brute

    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("constraint", ["distinct", "single", "detached"])
    def test_constrained_enumeration_matches_brute_force(self, k, constraint, small_corpus):
        kwargs = {
            "distinct": {"distinct_neighbors": True},
            "single": {"single_neighbor": True},
            "detached": {"detached_face": True},
        }[constraint]
        spec = EmptyCircuitSpec(k=k, **kwargs)
        mine = {canonical_code(m) for m in enumerate_empty(spec).maps}
        brute = {
            canonical_code(m)
            for m in small_corpus
            if m.vertex_count <= k and not empty_map_problems(m, spec)
        }
        assert mine == brute

    def test_triangle_is_the_only_3_circuit(self):
        out = enumerate_empty(EmptyCircuitSpec(k=3))
        assert out.complete and len(out.maps) == 1
        m = out.maps[0]
        assert m.vertex_count == 3 and m.edge_count == 3 and len(m.faces) == 2

    def test_unconstrained_4_circuits(self):
        out = enumerate_empty(EmptyCircuitSpec(k=4))
        stats = sorted((m.vertex_count, m.edge_count, len(m.faces)) for m in out.maps)
        assert stats == [(4, 4, 2), (4, 5, 3)]

    @pytest.mark.parametrize(
        "text, finds",
        [
            ("k=6; mode=pair:3+3; max-edges=7", 4),
            ("k=6; mode=pair; max-edges=7", 4),
            ("k=7; mode=pair:3+4; max-edges=7", 2),
        ],
    )
    def test_pair_enumeration_matches_brute_force(self, text, finds, pair_corpus):
        # the two walks of a pair need not join up; such completions are
        # dropped, not reported as broken maps
        spec = parse_empty_spec(text)
        out = enumerate_empty(spec)
        assert out.complete
        mine = {canonical_code(m) for m in out.maps}
        brute = {canonical_code(m) for m in pair_corpus if not empty_map_problems(m, spec)}
        assert mine == brute
        assert len(mine) == finds

    @pytest.mark.parametrize(
        "constraints, finds",
        [("", 3), ("distinct-neighbors", 0), ("single-neighbor", 1), ("detached-face", 0),
         ("min-faces:3", 2)],
    )
    def test_five_circuits_match_brute_force(self, constraints, finds, pair_corpus):
        # the corpus holds every map up to 7 edges, so the edges stop there
        spec = parse_empty_spec(f"k=5; max-edges=7; constraints={constraints}")
        out = enumerate_empty(spec)
        assert out.complete
        mine = {canonical_code(m) for m in out.maps}
        brute = {canonical_code(m) for m in pair_corpus if not empty_map_problems(m, spec)}
        assert mine == brute
        assert len(mine) == finds

    @pytest.mark.parametrize(
        "text", ["k=6; mode=circuit", "k=6; mode=pair", "k=7; mode=pair; max-vertices=6"]
    )
    def test_distinct_prune_keeps_every_unpruned_find(self, text):
        # the engine drops a distinct-neighbours branch at the join that puts
        # two back darts on one chain; filtering the unconstrained run by the
        # independent checker must give the same maps in the same order
        spec = parse_empty_spec(text + "; constraints=distinct-neighbors")
        everything = enumerate_empty(parse_empty_spec(text))
        pruned = enumerate_empty(spec)
        assert everything.complete and pruned.complete
        kept = [m for m in everything.maps if not empty_map_problems(m, spec)]
        assert [canonical_code(m) for m in kept] == [canonical_code(m) for m in pruned.maps]

    @pytest.mark.parametrize(
        "text",
        [
            "k=5; mode=circuit",
            "k=6; mode=circuit",
            "k=6; mode=pair",
            "k=7; mode=circuit; max-vertices=6",
            "k=7; mode=pair; max-vertices=6",
        ],
    )
    def test_single_prune_keeps_every_unpruned_find(self, text):
        # the engine drops a single-neighbour branch at the join that puts
        # both darts of an edge on the neighbour face; filtering the
        # unconstrained run by the independent checker must give the same
        # maps in the same order
        spec = parse_empty_spec(text + "; constraints=single-neighbor")
        everything = enumerate_empty(parse_empty_spec(text))
        pruned = enumerate_empty(spec)
        assert everything.complete and pruned.complete
        kept = [m for m in everything.maps if not empty_map_problems(m, spec)]
        assert kept
        assert [canonical_code(m) for m in kept] == [canonical_code(m) for m in pruned.maps]

    @pytest.mark.parametrize("text", ["k=6; max-edges=5", "k=7; mode=pair:3+4; max-edges=6"])
    def test_edge_cap_below_the_spanning_size_is_empty(self, text):
        out = enumerate_empty(parse_empty_spec(text))
        assert out.complete and not out.maps and out.nodes == 0


# Fingerprints of the spanning-walk engine: (spec, node budget, nodes
# before the engine broke the shape's symmetry, nodes, finds, sha1 of the
# concatenated canonical codes in output order).  ``finds`` and ``digest``
# of the complete rows go back to the original dict-based engine; every
# engine must keep them byte-identical.  Node counts may change only with
# the pruning, never upwards.  The truncated rows pin the DFS order, and
# with it which finds precede the cut, so they are pinned exactly.
_EMPTY_SHA1 = "da39a3ee5e6b4b0d3255bfef95601890afd80709"
ENGINE_GOLDEN = [
    ("k=3; mode=circuit; constraints=distinct-neighbors", None, 3, 1, 0, _EMPTY_SHA1),
    ("k=4; mode=circuit; constraints=distinct-neighbors", None, 16, 5, 0, _EMPTY_SHA1),
    ("k=5; mode=circuit; constraints=distinct-neighbors", None, 512, 57, 0, _EMPTY_SHA1),
    ("k=3; mode=circuit; constraints=detached-face", None, 3, 3, 0, _EMPTY_SHA1),
    ("k=4; mode=circuit; constraints=detached-face", None, 18, 15, 0, _EMPTY_SHA1),
    ("k=5; mode=circuit; constraints=detached-face", None, 565, 233, 0, _EMPTY_SHA1),
    ("k=6; mode=circuit; constraints=distinct-neighbors", None, 349731, 4767, 11,
     "0289d45be761fcabd119adf03b4406ad9b2a043e"),
    ("k=6; mode=circuit; constraints=single-neighbor,min-faces:3", None, 231770, 2125, 0,
     _EMPTY_SHA1),
    ("k=6; mode=pair; constraints=distinct-neighbors", None, 354870, 2915, 4,
     "8ed49ec1503bac585eb9039c32b7e195e7619582"),
    ("k=6; mode=pair; constraints=single-neighbor,min-faces:4", None, 227133, 1225, 0,
     _EMPTY_SHA1),
    ("k=7; mode=pair; constraints=distinct-neighbors; max-vertices=6", None, 95007, 4, 0,
     _EMPTY_SHA1),
    ("k=6; mode=circuit", None, 402871, 73930, 184, "9f64542700b238acc0afc9597e8ee4dfb9534a79"),
    ("k=5; mode=circuit; constraints=single-neighbor", None, 420, 57, 1,
     "8096d5df9654b02e584f6e0937a926ac0d4054b0"),
    ("k=7; mode=circuit; constraints=distinct-neighbors; max-vertices=6", None, 96650, 4, 0,
     _EMPTY_SHA1),
    # the 6-vertex sweeps of remark24 cases viii and x
    ("k=7; mode=circuit; constraints=single-neighbor,min-faces:3; max-vertices=6", None, 71050,
     956, 0, _EMPTY_SHA1),
    ("k=7; mode=pair; constraints=single-neighbor,min-faces:4; max-vertices=6", None, 69783,
     930, 0, _EMPTY_SHA1),
    # the edge cap binds
    ("k=6; mode=circuit; max-edges=9", None, 524, 524, 17,
     "666d5e8f69aab238fd242d87e5666c964c8b360b"),
    ("k=6; mode=pair; max-edges=9", None, 342, 342, 17,
     "b7eeb7505ed98aedd16e327298629e43e894c10f"),
    ("k=7; mode=pair; constraints=distinct-neighbors; min-vertices=7; max-edges=13", None,
     69709, 6593, 0, _EMPTY_SHA1),
    # truncated runs on hard shapes
    ("k=7; mode=circuit; constraints=single-neighbor,min-faces:3", 200_000, 200_001, 200_001,
     0, _EMPTY_SHA1),
    ("k=9; mode=circuit; constraints=single-neighbor", 150_000, 150_001, 150_001, 1,
     "98a004c0506535ad850865615297025a85296584"),
]


# The spanning-walk engine's DFS order, which ENGINE_GOLDEN cannot see
# since it sorts finds by canonical code: (spec, node budget, nodes, raw
# completions, sha1 of the repr of each completion's ``rotations`` in the
# order the engine hands them to its sink, before any deduplication).
# Captured before the chain joins of ``arrange`` were written as one step.
WALK_ORDER_GOLDEN = [
    ("k=5; mode=circuit; constraints=single-neighbor", None, 57, 1,
     "8d3ae610ed98cb1d6b16ed0a061d2f7cbd82303a"),
    ("k=6; mode=circuit; constraints=single-neighbor", None, 2125, 1,
     "a7de699f67bb54956e820d92601e613793d57fa9"),
    ("k=6; mode=pair; constraints=single-neighbor", None, 1225, 1,
     "6073478d86ead2174273e4da755322f9f93460ec"),
    ("k=7; mode=circuit; constraints=single-neighbor", 100_000, 100_001, 2,
     "0724f5db370b879262ccb2398ba3b877954659c1"),
    ("k=7; mode=pair; constraints=single-neighbor", 100_000, 100_001, 1,
     "e8d2749b9c48c8a6b7e60fe81788e0ac20bf8ae0"),
    ("k=8; mode=circuit; constraints=single-neighbor", 100_000, 100_001, 2,
     "4e10b6b55da6aee3fb36b7daaa486dcaea0b68ef"),
    ("k=6; mode=circuit; constraints=distinct-neighbors", None, 4767, 6,
     "47801b042c02dbd4d5aff79725db3511ec9f5c96"),
    ("k=6; mode=pair; constraints=distinct-neighbors", None, 2915, 3,
     "233971eb4420f3f648b6968c316365303f3c9bd7"),
    ("k=7; mode=circuit; constraints=distinct-neighbors", 100_000, 100_001, 63,
     "4e7904399b653e73204a7347a9c62b139cd1f88b"),
    ("k=6; mode=circuit; constraints=detached-face", None, 73930, 49,
     "c50ecd1551e0e63d5c6945e2c3d9018fbcf93d30"),
    ("k=6; mode=circuit; constraints=detached-face,distinct-neighbors", None, 4767, 2,
     "e75348ecd2ab07773c6ee4bab81425cc98ab98ad"),
    ("k=7; mode=circuit; constraints=detached-face; max-edges=11", None, 10500, 11,
     "6a0d946c5111f37a46318289680931e600b5fe60"),
    ("k=5; mode=circuit", None, 233, 4, "ae8efee21df8bc78ff00db8fbb53a3c729e2dd0d"),
    ("k=6; mode=circuit", None, 73930, 107, "0c8bfab9f53b5af1456bc90430b05962eb6d372f"),
    ("k=6; mode=pair", None, 25123, 40, "0b2327d0c51a5332794f06524d66a220bb889dc6"),
    ("k=6; mode=circuit; max-edges=9", None, 524, 13,
     "8769541c89f69336999446207a1cb93172caae62"),
    ("k=6; mode=pair; max-edges=9", None, 342, 12, "66b1ec2071cee7359134069d104f4da65590db7e"),
    ("k=7; mode=pair; max-edges=11", None, 6394, 104,
     "12a245696c370d44ce7b8b414f96272499cc93d5"),
]


def _spec_ids(rows) -> list[str]:
    """Test ids from each row's spec text and node budget, so that
    re-pinning a count or digest keeps the test's name."""
    return [text if max_nodes is None else f"{text} budget={max_nodes}"
            for text, max_nodes, *_ in rows]


@pytest.mark.golden
class TestEngineGolden:
    @pytest.mark.parametrize(
        "text, max_nodes, unpruned, nodes, finds, digest", ENGINE_GOLDEN,
        ids=_spec_ids(ENGINE_GOLDEN),
    )
    def test_engine_matches_its_fingerprint(
        self, text, max_nodes, unpruned, nodes, finds, digest
    ):
        budget = SearchBudget(max_nodes=max_nodes) if max_nodes is not None else None
        out = enumerate_empty(parse_empty_spec(text), budget)
        assert out.complete == (max_nodes is None)
        assert out.nodes == nodes <= unpruned
        assert len(out.maps) == finds
        codes = b"".join(canonical_code(m) for m in out.maps)
        assert hashlib.sha1(codes).hexdigest() == digest

    @pytest.mark.parametrize(
        "text, max_nodes, nodes, completions, digest", WALK_ORDER_GOLDEN,
        ids=_spec_ids(WALK_ORDER_GOLDEN),
    )
    def test_sink_order_matches_its_fingerprint(
        self, text, max_nodes, nodes, completions, digest
    ):
        spec = parse_empty_spec(text)
        clock = _Clock(SearchBudget(max_nodes=max_nodes) if max_nodes else None)
        seen = []
        try:
            for walks in _walk_shapes(spec):
                _run_walk_engine(walks, spec, clock, lambda m: seen.append(m.rotations))
            stopped = False
        except _Stop:
            stopped = True
        assert (stopped, clock.nodes, len(seen)) == (max_nodes is not None, nodes, completions)
        assert hashlib.sha1(repr(seen).encode()).hexdigest() == digest


def _is_rotation_of(seq: tuple[int, ...], walk: tuple[int, ...]) -> bool:
    return len(seq) == len(walk) and any(
        seq[i:] + seq[:i] == walk for i in range(len(seq))
    )


# (mode, k, pair sizes, min vertices, max vertices, shape count, sha1 of the
# repr of the sorted shape list, each shape a tuple of walks).  The walk
# engine's node counts and find order depend on this exact list.
SHAPE_GOLDEN = [
    ("circuit", 3, None, None, None, 1, "ee70197dbf093b012db23c4cbef136336250bbc5"),
    ("circuit", 4, None, None, None, 1, "f96bc89598378ed1d0b8c37cfede8a206c0a827d"),
    ("circuit", 5, None, None, None, 1, "b3ae75fc7d06f93898c47376d2bf2965f9f32c19"),
    ("circuit", 6, None, None, None, 2, "199dd3651359f02caed9e97544cd9c89d8d9bea1"),
    ("circuit", 7, None, None, None, 3, "2d8a29388f227f567c30d20d93d54e3dbcb9b318"),
    ("circuit", 8, None, None, None, 6, "4ad8b67dd4d8f2d77542447b6ca08b3b8769a418"),
    ("circuit", 9, None, None, None, 15, "40b109d2302a08572da0587cb5a2d9862a9d0494"),
    ("pair", 6, None, None, None, 2, "556cc3c631f8b275839d5f97ae4ca909147c339a"),
    ("pair", 7, None, None, None, 3, "53f80f7c5faa6db4c2e58a3c5f3387cc75263aeb"),
    ("pair", 8, None, None, None, 8, "6efa4459814ebfe0901e5bd9bf9f99926948adbc"),
    ("pair", 9, None, None, None, 21, "5986ba9609a1c080e588268f30343fb02f25dee9"),
    ("pair", 6, (3, 3), None, None, 2, "556cc3c631f8b275839d5f97ae4ca909147c339a"),
    ("pair", 7, (3, 4), None, None, 3, "53f80f7c5faa6db4c2e58a3c5f3387cc75263aeb"),
    ("pair", 8, (4, 4), None, None, 4, "2d7651e51f26c491f62bd6f65388dbac630688ed"),
    ("pair", 8, (3, 5), None, None, 4, "3efb3c8c6a209e1c25f324972e3fab26bb88facb"),
    ("pair", 9, (4, 5), None, None, 8, "723fe074269da5a33c48b734b998fc9704f4dc2d"),
    ("pair", 9, (3, 6), None, None, 13, "3248541eb76edabc87a24d1e0f1ffea10a2a16a1"),
    # the vertex-bounded sweeps of remark24 cases vii and ix
    ("circuit", 7, None, None, 6, 2, "2e1b1107d7ba9017dab4cb275854e102fdfdc29e"),
    ("circuit", 7, None, 7, None, 1, "5203a589f73b768ca0943029e05412df587276aa"),
    ("pair", 7, None, None, 6, 2, "0a288d1269a4577c63928ad913dbe2b811e9a686"),
    ("pair", 7, None, 7, None, 1, "32174fdb2e2dca20a880c1f2a76bee98fd63f81c"),
]


@pytest.mark.golden
class TestShapeGolden:
    @pytest.mark.parametrize("mode, k, sizes, min_v, max_v, count, digest", SHAPE_GOLDEN)
    def test_shapes_match_their_fingerprint(self, mode, k, sizes, min_v, max_v, count, digest):
        spec = EmptyCircuitSpec(k, mode, sizes, min_vertices=min_v, max_vertices=max_v)
        shapes = _walk_shapes(spec)
        assert len(shapes) == count
        assert hashlib.sha1(repr(shapes).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "mode, k, sizes, min_v, max_v", [row[:5] for row in SHAPE_GOLDEN if row[1] <= 7]
)
def test_each_shape_is_the_least_of_its_class(mode, k, sizes, min_v, max_v):
    # _walk_shapes stops at the first smaller image; the shapes it keeps must
    # be exactly the least images, one per class
    spec = EmptyCircuitSpec(k, mode, sizes, min_vertices=min_v, max_vertices=max_v)
    classes = []
    for shape in _walk_shapes(spec):
        images = {t[0] for t in _shape_transforms(shape)}
        assert shape == min(images)
        classes.append(images)
    assert len(set().union(*classes)) == sum(map(len, classes))


class TestShapeStabiliser:
    """The walk engine prunes by the stabiliser of each shape, so that group
    must be exactly the relabellings that map the walks onto themselves."""

    @pytest.mark.parametrize(
        "walks, order",
        [
            (((0, 1, 2, 3, 4, 5),), 12),
            (((0, 1, 2, 3, 4, 5, 6),), 14),
            (((0, 1, 2, 0, 3, 4),), 4),
            (((0, 1, 2), (3, 4, 5)), 36),
            (((0, 1, 2), (3, 4, 5, 6)), 24),
            (((0, 1, 2), (0, 3, 4, 5)), 2),
        ],
    )
    def test_group_order_and_action(self, walks, order):
        group = _shape_group(walks)
        assert len(group) == order
        assert len({perm for perm, _ in group}) == order
        for perm, reverses in group:
            assert sorted(perm) == list(range(len(perm)))
            images = []
            for walk in walks:
                image = tuple(perm[u] for u in walk)
                images.append(image[::-1] if reverses else image)
            # each walk lands on a walk, read backwards exactly when flagged,
            # and no two walks land on the same one
            targets = [
                next(j for j, w in enumerate(walks) if _is_rotation_of(image, w))
                for image in images
            ]
            assert sorted(targets) == list(range(len(walks)))

    @pytest.mark.parametrize(
        "spec",
        [spec for label in ("i", "ii", "iii", "iv", "v", "vi") for spec in _REMARK_CASES[label][1]]
        + [
            parse_empty_spec("k=6; mode=pair; max-edges=9"),
            parse_empty_spec("k=5; mode=circuit; constraints=single-neighbor"),
        ],
    )
    def test_lex_leader_prune_keeps_one_completion_per_orbit(self, monkeypatch, spec):
        # with no symmetry to break, every completion is kept; the pruned run
        # must find the same classes in the same order, in no more nodes
        pruned = enumerate_empty(spec)
        monkeypatch.setattr(search, "_shape_group", lambda walks: [])
        unpruned = enumerate_empty(spec)
        assert pruned.complete and unpruned.complete
        assert [canonical_code(m) for m in pruned.maps] == [
            canonical_code(m) for m in unpruned.maps
        ]
        assert unpruned.nodes >= pruned.nodes

    @pytest.mark.parametrize("text", ["k=6; mode=circuit", "k=6; mode=pair; max-edges=9"])
    def test_complete_runs_are_closed_under_mirrors(self, text):
        out = enumerate_empty(parse_empty_spec(text))
        assert out.complete and out.maps
        codes = {canonical_code(m) for m in out.maps}
        assert {canonical_code(m.mirror()) for m in out.maps} <= codes


def _complete_graph_rules(n: int) -> _GlueRules:
    edges = n * (n - 1) // 2
    return _GlueRules(sizes=(3,) * (2 * edges // 3), min_degree=n - 1, max_vertices=n)


# Fingerprints of the face-gluing engine, captured from the union-find
# engine: (label, rules, node budget, nodes, result, completions, sha1 of
# the repr of every completion as (nodes so far, vertex_of,
# next_in_rotation, reverse), sha1 of the same without the nodes so far).
# The result is True when the engine returns (its space is exhausted) and
# ``_Stop`` when the budget stops it; ``accept`` only records, so each run
# does one or the other.  The last digest pins the completions and their
# order alone, so a prune that only cuts dead branches leaves it as it is.
# Every row but nine-cycle was re-pinned when the engine began to keep one
# completion per isomorphism class (lex-leader pruning over polygon
# relabellings); the forms digest of each row whose named blocks have a
# size of their own is now its GLUE_FIRST_OF_CLASS digest, and forced-6-3,
# whose named block 1 shares its size, happens to reach it too.
GLUE_GOLDEN = [
    ("pair-4-4", _GlueRules(sizes=(4, 4) + (3,) * 6, max_vertices=7),
     None, 3483, True, 21, "69e93c2d2e1b22f2fc81b3791490d0ec4778549e",
     "c8bf23261e5dc16270b4c54811df8f9814acae8d"),
    ("spanning-7",
     _GlueRules(sizes=(7,) + (3,) * 9, max_vertices=7, spanning_block=0),
     None, 8903, True, 8, "fb98a1b582a580c65e720637279d352da189c707",
     "39c9ec56b3c1cdaa22dbbc9d5065bcf516dd1e2d"),
    ("nine-cycle",
     _GlueRules(sizes=_NINE_SIZES, forced_block=1, max_vertices=9, spanning_block=1),
     100_000, 100_001, _Stop, 0, "97d170e1550eee4afc0af065b78cda302a97674c",
     "97d170e1550eee4afc0af065b78cda302a97674c"),
    ("k4", _complete_graph_rules(4), None, 10, True, 1,
     "9ab3c0180e7cca1c875a15300305cb79f60b199a", "5c88403b7b79fc7cc5b961e381175a975da50e67"),
    ("k7", _complete_graph_rules(7), None, 1212, True, 2,
     "fd15c4356d24432594b2df00fffaa83dd0001c56", "34d42fce7089e8105c360e58669834fef4934069"),
    ("loose-4-4",
     _GlueRules(sizes=(4, 4) + (3,) * 4, dual_simple=False, min_degree=3, max_vertices=6),
     None, 396, True, 3, "d337854412e0ddea6952dacfd913d20de60b07bc",
     "da086f2d50ef3732594e9cab20d5e476d2644554"),
    ("forced-6-3",
     _GlueRules(sizes=(6, 3) + (3,) * 5, forced_block=1, max_vertices=7),
     None, 273, True, 3, "6ec4917c123ff6ae607414b0c195dc18f17aa5fb",
     "0f5c13336c55b26a3ca4e7a6ef87d6343b0d51a2"),
]

# sha1 of the repr of each GLUE_GOLDEN row's first completion of every
# class, in engine order, one per canonical code, as (vertex_of,
# next_in_rotation, reverse).  Captured before the cold-polygon rotation cut,
# which drops only later completions of a class, so every row keeps it.
GLUE_FIRST_OF_CLASS = {
    "pair-4-4": (21, "c8bf23261e5dc16270b4c54811df8f9814acae8d"),
    "spanning-7": (8, "39c9ec56b3c1cdaa22dbbc9d5065bcf516dd1e2d"),
    "nine-cycle": (0, "97d170e1550eee4afc0af065b78cda302a97674c"),
    "k4": (1, "5c88403b7b79fc7cc5b961e381175a975da50e67"),
    "k7": (2, "34d42fce7089e8105c360e58669834fef4934069"),
    "loose-4-4": (3, "da086f2d50ef3732594e9cab20d5e476d2644554"),
    "forced-6-3": (3, "0f5c13336c55b26a3ca4e7a6ef87d6343b0d51a2"),
}

# search_witness on top of the engine: (spec, node budget, nodes, complete,
# swept, sha1 of the found map's canonical code or None)
GLUE_WITNESS_GOLDEN = [
    ("c=2; pair-sum=7; dual=simple,has-2-cut; pair=shares-two-vertices; "
     "max-vertices=6; max-edges=15", None, 175, True,
     ("pair=(3,4) triangles=1: done", "pair=(3,4) triangles=3: done",
      "pair=(3,4) triangles=5: hit"),
     "c0f505fd31b2a759233d9a8ee673177d2d39b26f"),
    ("c=2; pair-sum=7; dual=simple,has-2-cut; pair=doubly-intersecting; "
     "max-vertices=6; max-edges=15", None, 175, True,
     ("pair=(3,4) triangles=1: done", "pair=(3,4) triangles=3: done",
      "pair=(3,4) triangles=5: hit"),
     "c0f505fd31b2a759233d9a8ee673177d2d39b26f"),
    ("c=2; pair-sum=6; dual=simple,has-2-cut; pair=shares-two-vertices; "
     "max-vertices=6; max-edges=15", None, 295, True,
     tuple(f"pair=(3,3) triangles={t}: {'infeasible' if t == 8 else 'done'}"
           for t in (0, 2, 4, 6, 8)), None),
    ("c=2; pair-sum=9; dual=simple,has-1-cut; pair=none; max-vertices=8; max-edges=18",
     100_000, 100_001, False,
     ("pair=(3,6) triangles=1: done", "pair=(4,5) triangles=1: done",
      "pair=(3,6) triangles=3: done", "pair=(4,5) triangles=3: done",
      "pair=(3,6) triangles=5: done", "pair=(4,5) triangles=5: done",
      "pair=(3,6) triangles=7: done", "budget exhausted"),
     None),
    ("c=3; pair-sum=8; dual=simple,has-2-cut; pair=shares-two-vertices; "
     "max-vertices=7; max-edges=18", None, 2802, True,
     tuple(f"pair={pair} triangles={t}: {'done' if t in (4, 6) else 'infeasible'}"
           for t in (0, 2, 4, 6, 8) for pair in ("(3,5)", "(4,4)")),
     None),
    ("c=3; pair-sum=10; dual=simple,has-2-cut; pair=doubly-intersecting; "
     "max-vertices=8; max-edges=20", None, 65975, True,
     tuple(f"pair={pair} triangles={t}: infeasible"
           for t in (0, 2) for pair in ("(3,7)", "(4,6)", "(5,5)"))
     + tuple(f"pair={pair} triangles={t}: done"
             for t in (4, 6) for pair in ("(3,7)", "(4,6)", "(5,5)"))
     + ("pair=(3,7) triangles=8: hit",),
     "3446bc5995cba57a91301b2bd765eed93f1c5e0b"),
]

# The caller's early stop: ``accept`` records every completion and raises
# ``_Stop`` once ``stop_after`` are recorded.  (label, rules, stop_after,
# nodes, result, completions, both sha1s as in GLUE_GOLDEN); the result is
# True when the engine returns and False when ``accept`` stopped it.  k7 has
# two completions in all, so stop_after=3 walks the whole space.  Since the
# engine keeps one completion per class, pair-4-4-stop-3 records the first
# three classes of pair-4-4, where its third record was a class's second
# copy before.
GLUE_STOP_GOLDEN = [
    ("pair-4-4-stop-1", GLUE_GOLDEN[0][1], 1, 1256, False, 1,
     "d3c99fbe39f9777447f79f32da11232a8b5740b3", "f52c446dbe828fd13ddca3c2a9b63da292538c65"),
    ("pair-4-4-stop-3", GLUE_GOLDEN[0][1], 3, 1360, False, 3,
     "96f7749457ff2d408b6d47283a3ca4965135c6c8", "573897027e88c766647fdd9e1685f76f7fb83d28"),
    ("k7-stop-1", _complete_graph_rules(7), 1, 1153, False, 1,
     "5dd790e1498a44d9d7c75670998729737fda1373", "2439c1fb2c0af890c87d05fa28ea540b6660d621"),
    ("k7-stop-2", _complete_graph_rules(7), 2, 1184, False, 2,
     "fd15c4356d24432594b2df00fffaa83dd0001c56", "34d42fce7089e8105c360e58669834fef4934069"),
    ("k7-stop-3", _complete_graph_rules(7), 3, 1212, True, 2,
     "fd15c4356d24432594b2df00fffaa83dd0001c56", "34d42fce7089e8105c360e58669834fef4934069"),
]


def _digests(seen) -> tuple[str, str]:
    """The sha1s of ``(nodes so far, *completion)`` records with and without the nodes."""
    forms = [record[1:] for record in seen]
    return tuple(hashlib.sha1(repr(x).encode()).hexdigest() for x in (seen, forms))


def _witness_sweeps(spec, swept):
    """(label, swept line, E, t, face sizes) of each sweep a witness search
    reached; "budget exhausted" takes the place of the line of the sweep it
    stops."""
    sweeps = sorted(
        ((a + b + 3 * t) // 2, a, b, t)
        for a in range(3, spec.pair_sum // 2 + 1)
        for b in [spec.pair_sum - a]
        for t in range((a + b) % 2, 2 * spec.max_edges, 2)
        if (a + b + 3 * t) // 2 <= spec.max_edges
    )
    for (edges, a, b, t), line in zip(sweeps, swept):
        label = f"pair=({a},{b}) triangles={t}"
        assert line.startswith((label, "budget exhausted"))
        yield label, line, edges, t, tuple(sorted((a, b) + (3,) * t, reverse=True))


def _witness_rules(spec, sizes, cap: int) -> _GlueRules:
    return _GlueRules(
        sizes=sizes,
        dual_simple="simple" in spec.dual_demands,
        min_degree=spec.connectivity,
        max_vertices=cap,
    )


def _glue_run(rules: _GlueRules, max_nodes: int | None):
    """(whether the engine returned, its completions, its nodes)."""
    clock = _Clock(SearchBudget(max_nodes=max_nodes) if max_nodes else None)
    seen = []
    try:
        _run_glue_engine(
            rules, clock, lambda m: seen.append((m.vertex_of, m.next_in_rotation, m.reverse))
        )
    except _Stop:
        return False, seen, clock.nodes
    return True, seen, clock.nodes


def _assert_prunes_only_dead_branches(loose, tight, label: str) -> None:
    """The tight search tree is the loose one with dead branches cut, so
    under one node budget it gets at least as far, and it never takes more
    nodes."""
    loose_done, loose_seen, loose_nodes = loose
    tight_done, tight_seen, tight_nodes = tight
    assert tight_seen[: len(loose_seen)] == loose_seen, label
    if loose_done:
        assert (tight_done, tight_seen) == (True, loose_seen), label
    assert tight_nodes <= loose_nodes, label


def _floor_cases():
    """Each GLUE_GOLDEN rule set, then each sweep a GLUE_WITNESS_GOLDEN row
    reaches, at the caps ``search_witness`` gives it, with its node budget."""
    cases = {(rules, max_nodes): label for label, rules, max_nodes, *_ in GLUE_GOLDEN}
    for text, max_nodes, _, _, swept, _ in GLUE_WITNESS_GOLDEN:
        spec = parse_witness_spec(text)
        for label, _, edges, t, sizes in _witness_sweeps(spec, swept):
            low, high = _vertex_range(edges, t + 2, spec.connectivity, spec.max_vertices)
            if low <= high:
                key = (_witness_rules(spec, sizes, high), max_nodes)
                cases.setdefault(key, f"c={spec.connectivity} {label} budget={max_nodes}")
    return [pytest.param(*key, id=label) for key, label in cases.items()]


@pytest.mark.golden
class TestGlueGolden:
    @pytest.mark.parametrize(
        "rules, max_nodes, nodes, result, completions, digest, forms",
        [row[1:] for row in GLUE_GOLDEN],
        ids=[row[0] for row in GLUE_GOLDEN],
    )
    def test_engine_matches_its_fingerprint(
        self, rules, max_nodes, nodes, result, completions, digest, forms
    ):
        clock = _Clock(SearchBudget(max_nodes=max_nodes) if max_nodes else None)
        seen = []

        def accept(m):
            seen.append((clock.nodes, m.vertex_of, m.next_in_rotation, m.reverse))

        try:
            _run_glue_engine(rules, clock, accept)
            got = True
        except _Stop:
            got = _Stop
        assert (clock.nodes, got, len(seen)) == (nodes, result, completions)
        assert _digests(seen) == (digest, forms)

    @pytest.mark.parametrize(
        "label, rules, max_nodes",
        [row[:3] for row in GLUE_GOLDEN],
        ids=[row[0] for row in GLUE_GOLDEN],
    )
    def test_first_of_each_class_matches_its_fingerprint(self, label, rules, max_nodes):
        seen = _glue_run(rules, max_nodes)[1]
        firsts = {}
        for form in seen:
            firsts.setdefault(canonical_code(Map(*form)), form)
        got = (len(firsts), hashlib.sha1(repr(list(firsts.values())).encode()).hexdigest())
        assert got == GLUE_FIRST_OF_CLASS[label]
        # one completion per class where every named block has a size of its
        # own; forced-6-3 names triangle 1, so its triangles are not relabelled
        if label == "forced-6-3":
            assert len(seen) <= 9
        else:
            assert len(seen) == GLUE_FIRST_OF_CLASS[label][0]

    @pytest.mark.parametrize(
        "rules, stop_after, nodes, result, completions, digest, forms",
        [row[1:] for row in GLUE_STOP_GOLDEN],
        ids=[row[0] for row in GLUE_STOP_GOLDEN],
    )
    def test_early_stop_matches_its_fingerprint(
        self, rules, stop_after, nodes, result, completions, digest, forms
    ):
        clock = _Clock(None)
        seen = []

        def accept(m):
            seen.append((clock.nodes, m.vertex_of, m.next_in_rotation, m.reverse))
            if len(seen) == stop_after:
                raise _Stop

        try:
            _run_glue_engine(rules, clock, accept)
            got = True
        except _Stop:
            got = False
        assert (clock.nodes, got, len(seen)) == (nodes, result, completions)
        assert _digests(seen) == (digest, forms)

    @pytest.mark.parametrize(
        "text, max_nodes, nodes, complete, swept, digest", GLUE_WITNESS_GOLDEN,
        ids=_spec_ids(GLUE_WITNESS_GOLDEN),
    )
    def test_witness_search_matches_its_fingerprint(
        self, text, max_nodes, nodes, complete, swept, digest
    ):
        budget = SearchBudget(max_nodes=max_nodes) if max_nodes else None
        out = search_witness(parse_witness_spec(text), budget)
        assert (out.nodes, out.complete, out.swept) == (nodes, complete, swept)
        code = hashlib.sha1(canonical_code(out.map)).hexdigest() if out.map else None
        assert code == digest

    @pytest.mark.parametrize(
        "text, max_nodes, swept", [(row[0], row[1], row[4]) for row in GLUE_WITNESS_GOLDEN]
    )
    def test_euler_caps_keep_every_connected_completion(self, text, max_nodes, swept):
        """Each sweep a witness search reaches, run at the caps used before
        Euler's formula bounded them and at the top of ``_vertex_range``:
        the tighter caps drop no connected completion and reorder none, and
        a sweep they call infeasible had none to give."""
        spec = parse_witness_spec(text)
        c = spec.connectivity
        for label, line, edges, t, sizes in _witness_sweeps(spec, swept):
            old_v = min(spec.max_vertices, 2 * edges // c)
            low, new_v = _vertex_range(edges, t + 2, c, spec.max_vertices)
            if old_v * (old_v - 1) // 2 < edges or old_v < c + 1:
                assert low > new_v
                continue
            old_run = _glue_run(_witness_rules(spec, sizes, old_v), max_nodes)
            if low > new_v:
                assert line == f"{label}: infeasible"
                assert old_run[:2] == (True, []), label
                continue
            new_run = _glue_run(_witness_rules(spec, sizes, new_v), max_nodes)
            _assert_prunes_only_dead_branches(old_run, new_run, label)

    @pytest.mark.parametrize("rules, max_nodes", _floor_cases())
    def test_vertex_floor_keeps_every_connected_completion(self, monkeypatch, rules, max_nodes):
        """Each rule set run with the engine's vertex floor and with a floor
        of one vertex, under which the degree budget never binds below the
        degree cap: the floor drops no connected completion, reorders none
        and costs no node."""
        floored = _glue_run(rules, max_nodes)
        monkeypatch.setattr(search, "_vertex_range", lambda *args: (1, args[3]))
        _assert_prunes_only_dead_branches(_glue_run(rules, max_nodes), floored, "")


def _check_glue_guarantees(rules: _GlueRules, m) -> None:
    """What every glue completion is, whatever its caller then checks."""
    assert m.is_simple_graph()
    rep = dual(m)
    assert not rep.loops
    if rules.dual_simple and rules.forced_block is None:
        assert rep.simple
    if rules.spanning_block is not None:
        assert m.vertex_count == rules.sizes[rules.spanning_block]


class TestGlueGuarantees:
    """The guarantees the glue front ends rely on instead of re-checking."""

    @pytest.mark.parametrize(
        "rules, max_nodes, completions",
        [(row[1], row[2], row[5]) for row in GLUE_GOLDEN],
        ids=[row[0] for row in GLUE_GOLDEN],
    )
    def test_every_completion_keeps_the_rules(self, rules, max_nodes, completions):
        seen = []

        def accept(m):
            _check_glue_guarantees(rules, m)
            seen.append(m)

        try:
            _run_glue_engine(
                rules, _Clock(SearchBudget(max_nodes=max_nodes) if max_nodes else None), accept
            )
        except _Stop:
            pass
        assert len(seen) == completions


def _face_multisets(darts: int, top: int):
    """Every multiset of face sizes >= 3 with ``darts`` darts, largest first."""
    if darts == 0:
        yield ()
    for size in range(min(darts, top), 2, -1):
        for rest in _face_multisets(darts - size, size):
            yield (size,) + rest


class TestGlueLexLeader:
    """The glue engine prunes by relabelling its polygons, so it must keep
    exactly the first completion of each class, as an unpruned run meets
    them."""

    @pytest.mark.parametrize(
        "rules",
        [
            _GlueRules(sizes=sizes, dual_simple=dual_simple, min_degree=min_degree)
            for darts in range(6, 17, 2)
            for sizes in _face_multisets(darts, darts)
            for dual_simple in (True, False)
            for min_degree in (2, 3)
        ]
        + [_GlueRules(sizes=(5, 3, 3, 3), max_vertices=5, spanning_block=0)],
        ids=lambda r: f"{r.sizes}-simple={r.dual_simple}-c={r.min_degree}-span={r.spanning_block}",
    )
    def test_keeps_the_first_completion_of_each_class(self, monkeypatch, rules):
        done, pruned, nodes = _glue_run(rules, None)
        # with no relabelling to compare against, every completion is kept
        monkeypatch.setattr(search, "_block_swaps", lambda rules: {})
        unpruned_done, unpruned, unpruned_nodes = _glue_run(rules, None)
        assert done and unpruned_done
        firsts = {}
        for form in unpruned:
            firsts.setdefault(canonical_code(Map(*form)), form)
        assert pruned == list(firsts.values())
        assert unpruned_nodes >= nodes

    @pytest.mark.parametrize(
        "sizes, named, swaps",
        [
            ((4, 4, 3), {}, {0: (0, 1), 1: (0, 1), 2: (2,)}),
            ((4, 4, 3, 3), {"spanning_block": 0}, {0: (0,), 1: (1,), 2: (2, 3), 3: (2, 3)}),
            ((6, 3, 3), {"forced_block": 1}, {0: (0,), 1: (1,), 2: (2,)}),
        ],
    )
    def test_named_blocks_keep_their_place(self, sizes, named, swaps):
        assert search._block_swaps(_GlueRules(sizes=sizes, **named)) == swaps


def test_glue_engine_matches_the_corpus_oracle():
    """For every face multiset of the 8-edge corpus with no face below 3,
    the engine's classes, with ``dual_simple`` on and off, are exactly the
    corpus maps of that multiset whose dual has no loop (and, with it on,
    no two faces sharing two edges)."""
    by_sizes: dict[tuple[int, ...], list] = {}
    for m in enumerate_connected_maps(8):
        sizes = tuple(sorted((f.size for f in m.faces), reverse=True))
        if sizes[-1] >= 3:
            by_sizes.setdefault(sizes, []).append(m)
    assert len(by_sizes) == 54
    wrong = []
    for sizes, maps in by_sizes.items():
        reports = [(canonical_code(m), dual(m)) for m in maps]
        for dual_simple in (False, True):
            want = {
                code
                for code, rep in reports
                if not rep.loops and (rep.simple or not dual_simple)
            }
            got = set()
            _run_glue_engine(
                _GlueRules(sizes=sizes, dual_simple=dual_simple),
                _Clock(None),
                lambda m: got.add(canonical_code(m)),
            )
            if got != want:
                wrong.append((sizes, dual_simple))
    assert wrong == []


class TestFinishedMap:
    """The completion check both engines call on every finished array."""

    def test_disconnected_completion_is_dropped(self):
        # two disjoint triangles, as a 3+3 pair walk completes when its walks
        # never meet; validate also reports their negative genus
        vertex_of = (0, 1, 1, 2, 2, 0)
        rotation = (5, 2, 1, 4, 3, 0)
        reverse = (1, 0, 3, 2, 5, 4)
        got = _finished_map(
            vertex_of + tuple(v + 3 for v in vertex_of),
            rotation + tuple(d + 6 for d in rotation),
            reverse + tuple(d + 6 for d in reverse),
        )
        assert got is None

    def test_broken_completion_raises(self):
        # dart 0's rotation successor is dart 1, which sits at the other vertex
        with pytest.raises(RuntimeError, match="broken map"):
            _finished_map((0, 1), (1, 0), (1, 0))

    def test_valid_completion_is_returned(self):
        m = triangular_complete_map(4)
        assert _finished_map(m.vertex_of, m.next_in_rotation, m.reverse) == m


class TestEngineOutputs:
    def test_every_output_satisfies_the_spec(self, six_distinct):
        spec = EmptyCircuitSpec(k=6, distinct_neighbors=True)
        assert six_distinct.complete
        for m in six_distinct.maps:
            assert empty_map_problems(m, spec) == ()

    def test_known_count_and_size_claims(self, six_distinct):
        assert len(six_distinct.maps) == 11
        for m in six_distinct.maps:
            assert m.vertex_count == 6
            assert m.edge_count >= 13

    def test_pair_count_and_size_claims(self):
        out = enumerate_empty(
            EmptyCircuitSpec(k=6, mode="pair", pair_sizes=(3, 3), distinct_neighbors=True)
        )
        assert out.complete and len(out.maps) == 4
        for m in out.maps:
            assert m.vertex_count == 6
            assert m.edge_count >= 12

    def test_no_duplicate_canonical_codes(self, six_distinct):
        codes = [canonical_code(m) for m in six_distinct.maps]
        assert len(codes) == len(set(codes))

    def test_deterministic_repeat_run(self, six_distinct):
        again = enumerate_empty(EmptyCircuitSpec(k=6, distinct_neighbors=True))
        assert [ormaps.emit(m) for m in again.maps] == [
            ormaps.emit(m) for m in six_distinct.maps
        ]
        assert again.nodes == six_distinct.nodes

    def test_outputs_sorted_by_canonical_code(self, six_distinct):
        codes = [canonical_code(m) for m in six_distinct.maps]
        assert codes == sorted(codes)

    @pytest.mark.parametrize("k", [4, 5])
    def test_small_distinct_circuits_empty(self, k):
        out = enumerate_empty(EmptyCircuitSpec(k=k, distinct_neighbors=True))
        assert out.complete and not out.maps

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_small_detached_circuits_empty(self, k):
        out = enumerate_empty(EmptyCircuitSpec(k=k, detached_face=True))
        assert out.complete and not out.maps

    def test_oversized_k_is_guarded(self):
        with pytest.raises(SearchError):
            enumerate_empty(EmptyCircuitSpec(k=10))


class TestBudgets:
    def test_node_budget_truncates_and_flags(self):
        spec = EmptyCircuitSpec(k=6, distinct_neighbors=True)
        full = enumerate_empty(spec)
        cut = enumerate_empty(spec, SearchBudget(max_nodes=1000))
        assert not cut.complete
        assert cut.nodes == 1001
        full_codes = {canonical_code(m) for m in full.maps}
        assert {canonical_code(m) for m in cut.maps} <= full_codes

    def test_node_budget_runs_are_deterministic(self):
        spec = EmptyCircuitSpec(k=6, distinct_neighbors=True)
        a = enumerate_empty(spec, SearchBudget(max_nodes=2000))
        b = enumerate_empty(spec, SearchBudget(max_nodes=2000))
        assert not a.complete and a.maps
        assert [ormaps.emit(m) for m in a.maps] == [ormaps.emit(m) for m in b.maps]

    def test_partial_results_still_satisfy_the_spec(self):
        spec = EmptyCircuitSpec(k=6, distinct_neighbors=True)
        cut = enumerate_empty(spec, SearchBudget(max_nodes=2000))
        assert not cut.complete and cut.maps
        for m in cut.maps:
            assert empty_map_problems(m, spec) == ()

    def test_wall_clock_budget_flags_incomplete(self):
        spec = EmptyCircuitSpec(k=7, single_neighbor=True, min_faces=3)
        out = enumerate_empty(spec, SearchBudget(max_seconds=0.05))
        assert not out.complete


class TestRemark24:
    def test_fast_cases_certify(self):
        report = verify_remark24(cases=("i", "ii", "iii", "iv", "v", "vi"))
        assert report.ok
        for case in report.cases:
            assert case.status == "certified"
            assert case.holds

    def test_case_iii_records_the_bound(self):
        report = verify_remark24(cases=("iii",))
        (case,) = report.cases
        assert "13" in case.claim
        assert case.found == 11

    def test_case_ix_two_sweep_certifies(self):
        report = verify_remark24(cases=("ix",))
        (case,) = report.cases
        assert case.status == "certified" and case.holds
        assert "14" in case.claim

    def test_exhaustion_is_reported_not_faked(self):
        report = verify_remark24(cases=("viii",), budget=SearchBudget(max_nodes=20000))
        (case,) = report.cases
        assert case.status == "exhausted"
        assert case.holds is None
        assert case.nodes > 0
        assert not report.ok

    def test_bounded_cases_report_a_partial_count_when_exhausted(self):
        report = verify_remark24(["iii", "v"], SearchBudget(max_nodes=2_000))
        assert [(c.status, c.holds, c.detail, c.found, c.nodes) for c in report.cases] == [
            ("exhausted", None, "partial: 4 found", 4, 2_001),
            ("exhausted", None, "partial: 2 found", 2, 2_001),
        ]

    def test_bare_string_is_rejected_before_any_case_runs(self, monkeypatch):
        ran = []
        monkeypatch.setattr(search, "_run_case", lambda label, budget: ran.append(label))
        with pytest.raises(SearchError, match="sequence of labels"):
            verify_remark24(cases="viii")
        assert ran == []

    def test_repeated_labels_run_once_in_first_occurrence_order(self):
        report = verify_remark24(("ii", "i", "ii"))
        assert tuple(c.case for c in report.cases) == ("ii", "i")

    def test_labels_cover_all_ten_cases(self):
        assert CASE_LABELS == ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x")

    def test_report_lines_are_one_per_case(self):
        report = verify_remark24(cases=("i", "iv"))
        lines = report.lines()
        assert len(lines) == 2
        assert all(line.startswith("case") for line in lines)


class TestWitnessSearch:
    def test_two_connected_pair_sum_seven_witness(self):
        spec = WitnessSpec(connectivity=2, pair_sum=7, max_vertices=6, max_edges=15)
        out = search_witness(spec)
        m = out.map
        assert m is not None
        assert vertex_connectivity(m) == 2
        rep = dual(m)
        assert rep.simple
        assert vertex_connectivity(rep.dual) <= 2
        sizes = sorted(f.size for f in m.faces)
        assert sizes.count(3) == len(sizes) - 2 or sizes[-2] == 3
        non_tri = [s for s in sizes if s != 3]
        # the intersecting pair may itself contain a triangle (3 + 4 = 7)
        assert sum(non_tri) + 3 * (2 - len(non_tri)) == 7

    def test_pair_sum_six_is_certified_empty(self):
        spec = WitnessSpec(connectivity=2, pair_sum=6, max_vertices=6, max_edges=15)
        out = search_witness(spec)
        assert out.map is None
        assert out.complete
        assert out.nodes > 0

    def test_sweep_report_lists_combinations(self):
        spec = WitnessSpec(connectivity=2, pair_sum=6, max_vertices=6, max_edges=15)
        out = search_witness(spec)
        assert all("pair=" in line for line in out.swept)

    def test_relaxed_demands_find_the_triangle_double_cover(self):
        spec = WitnessSpec(
            connectivity=2,
            pair_sum=6,
            dual_demands=(),
            pair_demand="none",
            max_vertices=6,
            max_edges=15,
        )
        out = search_witness(spec)
        assert out.map is not None
        assert out.map.vertex_count == 3 and out.map.edge_count == 3

    @pytest.mark.parametrize(
        "edges, faces, c, max_vertices, cap",
        [
            (16, 10, 3, 7, None),  # V even, so V <= 6, and C(6, 2) = 15 < 16
            (15, 10, 2, 6, None),  # V odd, so V <= 5, and C(5, 2) = 10 < 15
            (13, 8, 3, 7, 7),  # E - F + 2 = 7 is odd, as E + F is
            (5, 3, 2, 5, 4),  # genus 0 caps V at E - F + 2 = 4
        ],
    )
    def test_vertex_cap_by_hand(self, edges, faces, c, max_vertices, cap):
        low, high = _vertex_range(edges, faces, c, max_vertices)
        assert (high if low <= high else None) == cap

    @pytest.mark.parametrize(
        "edges, faces, c, max_vertices, low, high",
        [
            (10, 6, 3, 7, 6, 6),  # C(5, 2) = 10 >= E, but V is even
            (13, 8, 3, 7, 7, 7),  # C(6, 2) = 15 >= E, but V is odd
            (21, 14, 6, 7, 7, 7),  # K7 on the torus
            (5, 3, 2, 5, 4, 4),  # C(4, 2) = 6 >= E, and V is even
        ],
    )
    def test_vertex_floor_by_hand(self, edges, faces, c, max_vertices, low, high):
        assert _vertex_range(edges, faces, c, max_vertices) == (low, high)

    def test_spanning_block_raises_the_floor(self):
        # the nine-cycle search: E = 21 and F = 8 allow V = 7, its 9-gon demands 9
        assert _vertex_range(21, 8, 2, 9) == (7, 9)
        assert _vertex_range(21, 8, 2, 9, 9) == (9, 9)

    @given(st.integers(1, 60), st.integers(1, 30), st.integers(1, 8), st.integers(1, 20))
    def test_vertex_range_is_empty_where_no_cap_was(self, edges, faces, c, max_vertices):
        # the top end as the cap-only helper computed it, None when it found no V
        v = min(max_vertices, 2 * edges // c, edges - faces + 2)
        v -= (v + edges + faces) % 2
        cap = None if v < c + 1 or v * (v - 1) // 2 < edges else v
        low, high = _vertex_range(edges, faces, c, max_vertices)
        assert (low > high) == (cap is None)
        if cap is not None:
            assert high == cap
        for v in range(low, high + 1, 2):
            assert v >= c + 1 and v * (v - 1) // 2 >= edges

    @given(
        st.integers(3, 6),
        st.integers(3, 6),
        st.integers(0, 5),
        st.integers(1, 3),
        st.integers(3, 8),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_vertex_cap_admits_every_connected_completion(
        self, a, b, t, c, max_vertices, dual_simple
    ):
        t += (a + b + t) % 2  # 2E = a + b + 3t is even
        edges, faces = (a + b + 3 * t) // 2, t + 2
        # the caps search_witness used before Euler's formula bounded them
        old_v = min(max_vertices, 2 * edges // c)
        rules = _GlueRules(
            sizes=tuple(sorted((a, b) + (3,) * t, reverse=True)),
            dual_simple=dual_simple,
            min_degree=c,
            max_vertices=old_v,
        )
        counts = []
        try:
            _run_glue_engine(
                rules,
                _Clock(SearchBudget(max_nodes=20_000)),
                lambda m: counts.append(m.vertex_count),
            )
        except _Stop:
            pass
        low, high = _vertex_range(edges, faces, c, max_vertices)
        for v in counts:
            assert low <= v <= high and (high - v) % 2 == 0

    @given(
        st.integers(3, 6),
        st.integers(3, 6),
        st.integers(0, 5),
        st.integers(1, 3),
        st.integers(3, 8),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_vertex_floor_admits_every_connected_completion(
        self, a, b, t, c, max_vertices, dual_simple
    ):
        t += (a + b + t) % 2  # 2E = a + b + 3t is even
        edges = (a + b + 3 * t) // 2
        cap = min(max_vertices, 2 * edges // c)
        rules = _GlueRules(
            sizes=tuple(sorted((a, b) + (3,) * t, reverse=True)),
            dual_simple=dual_simple,
            min_degree=c,
            max_vertices=cap,
        )
        floored = _glue_run(rules, 20_000)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(search, "_vertex_range", lambda *args: (1, args[3]))
            unfloored = _glue_run(rules, 20_000)
        _assert_prunes_only_dead_branches(unfloored, floored, "")


@pytest.fixture(scope="module")
def nine_first_hit():
    return search_empty_9_cycle(stop_at_first=True)


class TestNineCycleSearch:
    def test_first_hit_has_the_stated_shape(self, nine_first_hit):
        out = nine_first_hit
        assert out.maps, "the target map exists and must be found"
        # no budget is set: stopping at the first find alone clears ``complete``
        assert (len(out.maps), out.nodes, out.complete) == (1, 1_430_020, False)
        m = out.maps[0]
        assert m.vertex_count == 9
        assert m.edge_count == 21
        assert genus(m) == 3
        sizes = sorted(f.size for f in m.faces)
        assert sizes == [3, 3, 3, 3, 3, 3, 9, 15]
        # the spanning 9-gon shares edges only with the 15-gon
        nine = next(f for f in m.faces if f.size == 9)
        fifteen = next(f for f in m.faces if f.size == 15)
        for d in nine.darts:
            assert m.face_index_of[m.reverse[d]] == fifteen.index
        # dual multi-edges all touch the 9-gon/15-gon pair
        rep = dual(m)
        for a, b in rep.multi_pairs:
            assert {a, b} == {nine.index, fifteen.index}
        assert not rep.loops

    def test_membership_via_independent_checker(self, nine_first_hit):
        m = nine_first_hit.maps[0]
        assert empty_map_problems(m, EmptyCircuitSpec(k=9, single_neighbor=True)) == ()

    def test_non_member_find_raises(self, monkeypatch):
        # the audit must raise, not filter: a planted problem on the first
        # find stops the run instead of dropping the map
        monkeypatch.setattr("ormaps.search.empty_map_problems", lambda m, spec: ("planted",))
        with pytest.raises(RuntimeError, match="non-member"):
            search_empty_9_cycle(SearchBudget(max_nodes=3_000_000), stop_at_first=True)

    def test_budget_exhaustion_reports_not_found(self):
        out = search_empty_9_cycle(SearchBudget(max_nodes=500))
        assert not out.maps
        assert not out.complete


class TestTriangularCompleteMaps:
    def test_four_vertex_map_is_the_tetrahedron(self, small_corpus):
        t = triangular_complete_map(4)
        assert t.vertex_count == 4 and t.edge_count == 6
        assert genus(t) == 0
        tetra = next(
            m
            for m in small_corpus
            if m.vertex_count == 4 and m.edge_count == 6 and genus(m) == 0
        )
        assert maps_isomorphic_bruteforce(t, tetra)

    def test_seven_vertex_map_is_a_torus_triangulation(self):
        t = triangular_complete_map(7)
        assert t.vertex_count == 7 and t.edge_count == 21
        assert genus(t) == 1
        assert all(f.size == 3 for f in t.faces)
        assert t.is_simple_graph()
        assert vertex_connectivity(t) == 6

    def test_unsupported_sizes_rejected(self):
        with pytest.raises(SearchError):
            triangular_complete_map(5)

    @pytest.mark.parametrize("n", [4, 7])
    def test_closed_form_is_the_least_glue_engine_completion(self, n):
        # every completion of these rules is K_n: no loop or parallel edge
        # closes, and V(n - 1) = 2E = n(n - 1)
        completions = []
        _run_glue_engine(_complete_graph_rules(n), _Clock(None), completions.append)
        _, least = min((canonical(m) for m in completions), key=lambda t: t[0])
        t = triangular_complete_map(n)
        assert (least.vertex_of, least.next_in_rotation, least.reverse) == (
            t.vertex_of,
            t.next_in_rotation,
            t.reverse,
        )


def _unfiltered_connected_maps(max_edges):
    """The corpus build before the canonical-deletion filter: every leaf
    child and every join child of every parent is canonicalised."""
    code, base = canonical(ormaps.from_rotations([[1], [0]]))
    levels = [{code: base}]
    while len(levels) < max_edges:
        grown = {}
        for m in levels[-1].values():
            vertex_of, sigma = m.vertex_of, m.next_in_rotation
            D, V = m.dart_count, m.vertex_count
            alpha = (*m.reverse, D + 1, D)
            children = []
            for d in range(D):
                child = [*sigma, sigma[d], D + 1]
                child[d] = D
                children.append((child, vertex_of[d], V))
            for u in range(V):
                for w in range(u + 1, V):
                    if w in m.adjacency[u]:
                        continue
                    for d in m.rotations[u]:
                        for e in m.rotations[w]:
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


class TestConnectedMapCorpus:
    def test_counts_by_edges(self, small_corpus):
        counts = {}
        for m in small_corpus:
            counts[m.edge_count] = counts.get(m.edge_count, 0) + 1
        assert counts[1] == 1
        assert counts[2] == 1
        assert counts[3] == 3
        assert counts[4] == 5

    def test_all_members_are_simple_connected_valid(self, small_corpus):
        for m in small_corpus:
            assert ormaps.validate(m).ok
            assert m.is_simple_graph()

    def test_no_isomorphic_duplicates_at_small_sizes(self, small_corpus):
        small = [m for m in small_corpus if m.edge_count <= 4]
        for i in range(len(small)):
            for j in range(i + 1, len(small)):
                assert not maps_isomorphic_bruteforce(small[i], small[j])

    def test_mirrors_are_present_up_to_isomorphism(self, small_corpus):
        codes = {canonical_code(m) for m in small_corpus}
        for m in small_corpus:
            if m.edge_count <= 5:
                assert canonical_code(m.mirror()) in codes

    @pytest.mark.golden
    def test_codes_and_order_match_their_fingerprint(self, pair_corpus):
        # sha1 of the concatenated canonical codes in output order, captured
        # from the original canonicalisation: codes and order must not drift
        codes = b"".join(canonical_code(m) for m in pair_corpus)
        assert len(pair_corpus) == 385
        assert hashlib.sha1(codes).hexdigest() == "3da9d42ccfaf91e92285823fd189514e4f0a2e03"

    @pytest.mark.golden
    def test_eight_edge_codes_and_order_match_their_fingerprint(self):
        corpus = enumerate_connected_maps(8)
        codes = b"".join(canonical_code(m) for m in corpus)
        assert len(corpus) == 2158
        assert hashlib.sha1(codes).hexdigest() == "39ef29fbdf8a1f4c2d1d7e61ea136c2f243bb400"

    @pytest.mark.golden
    def test_nine_edge_codes_and_order_match_their_fingerprint(self):
        # captured from the build that compared every word of a winning root
        # and canonicalised every leafless join child
        corpus = enumerate_connected_maps(9)
        codes = b"".join(canonical_code(m) for m in corpus)
        assert len(corpus) == 14653
        assert hashlib.sha1(codes).hexdigest() == "5faae7ebbec1269f28b96a4e34d3ee9a9926953d"

    @pytest.mark.golden
    @pytest.mark.parametrize(
        "edges, digest",
        [
            (7, "6d9b572dc847d227d7da61208dfbd288e6463d64"),
            (8, "f42eae9bf5fc07a3070869c3eb6f0dc0eb687008"),
        ],
    )
    def test_forms_match_their_fingerprint(self, edges, digest):
        # sha1 of the emitted forms' dart arrays in output order, captured from
        # the build that relabelled every child: forms must not drift either
        corpus = enumerate_connected_maps(edges)
        arrays = repr([(m.vertex_of, m.next_in_rotation, m.reverse) for m in corpus])
        assert hashlib.sha1(arrays.encode()).hexdigest() == digest

    def test_filtered_build_equals_the_unfiltered_one(self, pair_corpus):
        # the canonical-deletion filter skips children, never classes: codes,
        # forms and their order are those of the build that kept every child
        reference = _unfiltered_connected_maps(7)
        assert [canonical_code(m) for m in pair_corpus] == [canonical_code(m) for m in reference]
        assert pair_corpus == reference

    @pytest.mark.parametrize("edges, children", [(7, 942), (8, 4412), (9, 26869)])
    def test_canonicalises_only_the_children_a_deletion_keeps(self, monkeypatch, edges, children):
        # the unfiltered build canonicalises 2,658 and 16,554 children at 7
        # and 8 edges, the build without the join rank rule 1,092, 5,537 and
        # 36,194.  Any rank that isomorphisms keep is a correct rule, so only
        # these counts tell the ranks apart: with the smaller degree first
        # the build makes the same choices up to 8 edges and canonicalises
        # 26,865 children at 9
        calls = []

        def counted(sigma, alpha):
            calls.append(len(sigma))
            return _least_root(sigma, alpha)

        monkeypatch.setattr(search, "_least_root", counted)
        enumerate_connected_maps(edges)
        assert len(calls) == children

    def test_a_bridge_of_higher_rank_does_not_block_a_join(self, pair_corpus):
        # a triangle 3-4-5 with the path 3-2-1-0: joining 0 and 2 makes the
        # triangle 0-1-2, and the bridge 2-3, of rank (3, 3), outranks the
        # new edge, of rank (3, 2); every edge that is not a bridge ranks at
        # most (3, 2), so two triangles joined by an edge are reached only
        # through joins the bridge must not block
        parent = ormaps.from_rotations([[1], [0, 2], [1, 3], [2, 4, 5], [3, 5], [4, 3]])
        assert (0, 2) in _join_pairs(parent)
        triangles = ormaps.from_rotations([[1, 2], [2, 0], [0, 1, 3], [2, 4, 5], [3, 5], [4, 3]])
        assert canonical_code(triangles) in {canonical_code(m) for m in pair_corpus}

    def test_a_join_that_ties_the_top_rank_is_kept(self):
        # closing the path 0-1-2-3 into a 4-cycle: every edge ranks (2, 2)
        path = ormaps.from_rotations([[1], [0, 2], [1, 3], [2]])
        assert _join_pairs(path) == [(0, 3)]

    def test_a_join_outranked_by_an_edge_on_a_cycle_is_skipped(self):
        # a triangle 0-1-2 with the leaf 3 at 2: joining 3 to 0 or 1 gives a
        # diamond whose new edge ranks (3, 2) under the chord's (3, 3); the
        # diamond comes from the 4-cycle by putting its chord back instead
        parent = ormaps.from_rotations([[1, 2], [2, 0], [0, 1, 3], [2]])
        assert _join_pairs(parent) == []
        cycle = ormaps.from_rotations([[3, 1], [0, 2], [1, 3], [2, 0]])
        assert _join_pairs(cycle) == [(0, 2), (1, 3)]

    def test_every_member_is_its_own_canonical_form(self, pair_corpus):
        # forms are built on first sight of a code; they must be what the
        # public root scan gives
        for m in pair_corpus:
            assert canonical(m) == (canonical_code(m), m)

    @pytest.mark.parametrize("bound", [2.5, 3.0, "3", True, False])
    def test_rejects_a_bound_that_is_not_an_int(self, bound):
        with pytest.raises(SearchError, match="integer"):
            enumerate_connected_maps(bound)

    def test_rejects_a_bound_below_one(self):
        with pytest.raises(SearchError):
            enumerate_connected_maps(0)


class TestIndependentChecker:
    def test_rejects_map_without_spanning_face(self, small_corpus):
        # the 4-cycle has two 4-faces but K2 path shapes do not span k=4... use a
        # 5-vertex tree: no face of size 4 spans its five vertices
        tree = next(m for m in small_corpus if m.vertex_count == 5 and m.edge_count == 4)
        problems = empty_map_problems(tree, EmptyCircuitSpec(k=4))
        assert problems

    def test_rejects_too_many_vertices(self, small_corpus):
        big = next(m for m in small_corpus if m.vertex_count == 6)
        assert empty_map_problems(big, EmptyCircuitSpec(k=4))

    def test_accepts_the_triangle_for_k3(self, small_corpus):
        tri = next(
            m for m in small_corpus if m.vertex_count == 3 and m.edge_count == 3
        )
        assert empty_map_problems(tri, EmptyCircuitSpec(k=3)) == ()

    def test_distinct_constraint_rejects_the_triangle(self, small_corpus):
        # both far faces of the triangle's spanning face coincide
        tri = next(
            m for m in small_corpus if m.vertex_count == 3 and m.edge_count == 3
        )
        assert empty_map_problems(tri, EmptyCircuitSpec(k=3, distinct_neighbors=True))
