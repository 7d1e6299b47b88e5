"""The library's result and spec records: named tuples with a fixed contract."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from ormaps.search import EmptyCircuitSpec, SearchBudget, SearchError, WitnessSpec
from ormaps.surgery import wheel

SRC = Path(__file__).resolve().parent.parent / "src"

# (module, record, fields in order; a (name, default) pair for a field with a default)
RECORDS = [
    ("core", "Face", ["index", "darts"]),
    ("core", "ValidationReport", ["problems"]),
    ("core", "Map", ["vertex_of", "next_in_rotation", "reverse"]),
    ("dual", "DualReport", ["dual", "loops", "multi_pairs"]),
    ("dual", "CutDecomposition", ["K", "X_f", "walks", "V_of_K"]),
    ("bounds", "ExcessProfile", ["c", "v_plus", "f_plus"]),
    ("bounds", "ThresholdVerdict", ["threshold", "violations"]),
    ("bounds", "TableEntry", ["status", "value", "provenance"]),
    ("search", "SearchBudget", [("max_nodes", None), ("max_seconds", None)]),
    (
        "search",
        "EmptyCircuitSpec",
        [
            "k",
            ("mode", "circuit"),
            ("pair_sizes", None),
            ("distinct_neighbors", False),
            ("single_neighbor", False),
            ("detached_face", False),
            ("min_faces", 0),
            ("min_vertices", None),
            ("max_vertices", None),
            ("max_edges", None),
        ],
    ),
    (
        "search",
        "WitnessSpec",
        [
            "connectivity",
            "pair_sum",
            ("dual_demands", ("simple", "has-2-cut")),
            ("pair_demand", "shares-two-vertices"),
            ("max_vertices", 8),
            ("max_edges", 21),
        ],
    ),
    ("search", "EnumerationOutcome", ["maps", "complete", "nodes", "seconds"]),
    ("search", "CaseOutcome", ["case", "claim", "holds", "detail", "found", "nodes", "seconds"]),
    ("search", "Remark24Report", ["cases"]),
    (
        "search",
        "_GlueRules",
        [
            "sizes",
            ("dual_simple", True),
            ("forced_block", None),
            ("min_degree", 2),
            ("max_vertices", 64),
            ("spanning_block", None),
        ],
    ),
    ("search", "WitnessOutcome", ["map", "complete", "nodes", "seconds", "swept"]),
    ("surgery", "GlueResult", ["map", "seam_edges", "vertex_map_a", "vertex_map_b"]),
    ("surgery", "FillResult", ["map", "inner_face_index"]),
    ("surgery", "InsertResult", ["map", "big_face_index", "small_face_index"]),
    ("surgery", "PipelineOutcome", ["map", "report"]),
]

# values for the required fields where placeholder zeros would fail the checks
VALID_REQUIRED = {"EmptyCircuitSpec": (3,), "WitnessSpec": (3, 8)}


@pytest.mark.parametrize("module, name, fields", RECORDS, ids=[r[1] for r in RECORDS])
def test_record_contract(module, name, fields):
    cls = getattr(importlib.import_module(f"ormaps.{module}"), name)
    names = [f if isinstance(f, str) else f[0] for f in fields]
    defaults = dict(f for f in fields if not isinstance(f, str))
    assert cls._fields == tuple(names)
    assert cls._field_defaults == defaults
    required = VALID_REQUIRED.get(name, (0,) * (len(names) - len(defaults)))
    record = cls(*required)
    assert tuple(record) == (*required, *defaults.values())
    for field in names:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


def test_map_hash_and_cached_faces():
    m = wheel(6)
    # the hash of the three arrays as one tuple, on which set and dict order depend
    assert hash(m) == hash((m.vertex_of, m.next_in_rotation, m.reverse))
    assert m.faces is m.faces
    assert m.rotations is m.rotations


@pytest.mark.parametrize(
    "spec, change",
    [
        (SearchBudget(), {"max_nodes": -1}),
        (EmptyCircuitSpec(3), {"k": 2}),
        (WitnessSpec(3, 8), {"pair_demand": "bogus"}),
    ],
    ids=["SearchBudget", "EmptyCircuitSpec", "WitnessSpec"],
)
def test_replace_rechecks_specs(spec, change):
    with pytest.raises(SearchError):
        spec._replace(**change)
    with pytest.raises(SearchError):
        type(spec)._make({**spec._asdict(), **change}.values())


def test_import_loads_no_dataclasses_or_inspect():
    # -S keeps site-packages' start-up hooks out of the measured interpreter
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import ormaps, ormaps.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
