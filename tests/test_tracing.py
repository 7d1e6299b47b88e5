"""The benchmark's tracer names library functions; keep those names alive.

``perfbench/tracing.py`` wraps each of its ``TARGETS`` and raises when one
is missing, so a rename would break ``perfbench/run.py --trace 1`` without
failing any other test.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from ormaps.search import _run_glue_engine, _run_walk_engine

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_is_an_ormaps_function(tracing):
    assert tracing.TARGETS
    for name, (module_name, attr) in tracing.TARGETS.items():
        assert module_name.split(".")[0] == "ormaps", name
        fn = getattr(importlib.import_module(module_name), attr, None)
        assert inspect.isfunction(fn), f"{name}: {module_name}.{attr}"


def test_engine_hooks_find_their_parameters(tracing):
    # the tracer reads the node clock of both engines and counts walk finds
    # through the walk engine's sink, locating both arguments by name
    assert tracing.TARGETS["walk.engine"] == ("ormaps.search", "_run_walk_engine")
    assert tracing.TARGETS["glue.engine"] == ("ormaps.search", "_run_glue_engine")
    walk = inspect.signature(_run_walk_engine).parameters
    glue = inspect.signature(_run_glue_engine).parameters
    assert {"clock", "sink"} <= set(walk)
    assert "clock" in glue
    # the tracer counts every call through a parameter named ``sink`` as a
    # walk find, so a glue callback of that name would count its
    # completions as ``walk.finds``
    assert "sink" not in glue
