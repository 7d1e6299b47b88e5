"""Layer-boundary spans recorded from outside the library.

The tracer replaces each layer's public functions with a timing wrapper in
every module namespace that binds them.  ``search`` and ``cli`` import
``canonical_form``, ``validate``, ``dual``, ``vertex_connectivity`` and
``find_cutsets`` by name, so patching the defining module alone would miss
their calls; ``install`` therefore rebinds every global of every loaded
``ormaps`` module that holds a traced function.  The workloads reach the
library through module attributes, so they call the wrappers too.

Each span is ``(name, start, end, parent)`` with ``parent`` the index of
the enclosing span or -1.  Spans stay in memory until ``dump``.  A span's
self time is its duration minus the durations of its direct children,
which nest inside it and never overlap one another.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
from collections import defaultdict

# span name -> (module, attribute); the span name's prefix is its layer
TARGETS = {
    "core.parse": ("ormaps.core", "parse"),
    "core.emit": ("ormaps.core", "emit"),
    "core.from_rotations": ("ormaps.core", "from_rotations"),
    "core.validate": ("ormaps.core", "validate"),
    "canonical.code": ("ormaps.core", "canonical_code"),
    "canonical.form": ("ormaps.core", "canonical_form"),
    "kappa.vertex_connectivity": ("ormaps.connectivity", "vertex_connectivity"),
    "kappa.bruteforce": ("ormaps.connectivity", "vertex_connectivity_bruteforce"),
    "kappa.flow": ("ormaps.connectivity", "vertex_connectivity_flow"),
    "cutsets.find_cutsets": ("ormaps.connectivity", "find_cutsets"),
    "dual.dual": ("ormaps.dual", "dual"),
    "walk.engine": ("ormaps.search", "_run_walk_engine"),
    "glue.engine": ("ormaps.search", "_run_glue_engine"),
    "search.enumerate_empty": ("ormaps.search", "enumerate_empty"),
    "search.search_witness": ("ormaps.search", "search_witness"),
    "search.triangular_complete_map": ("ormaps.search", "triangular_complete_map"),
    "search.enumerate_connected_maps": ("ormaps.search", "enumerate_connected_maps"),
    "search.empty_map_problems": ("ormaps.search", "empty_map_problems"),
    "cli.main": ("ormaps.cli", "main"),
}


def _surgery_targets() -> dict[str, tuple[str, str]]:
    """Every public function defined in ``ormaps.surgery``."""
    module = sys.modules["ormaps.surgery"]
    return {
        f"surgery.{name}": ("ormaps.surgery", name)
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and not name.startswith("_")
        and obj.__module__ == "ormaps.surgery"
    }


class Tracer:
    """Spans and boundary counts of one traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.stack = [-1]
        self.active = True
        self.walk_nodes = 0
        self.walk_finds = 0
        self.glue_nodes = 0
        self.canonical_darts = 0
        self.subsets_computed = 0
        self.codes: set[bytes] = set()
        self.code_calls = 0

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name: str, fn, before=None, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                state, args, kwargs = before(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
                if before is not None:
                    self._settle(name, state)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _engine_hooks(self, fn):
        """Read the engine's node clock around each call; count walk finds."""
        params = list(inspect.signature(fn).parameters)
        clock_at = params.index("clock")
        sink_at = params.index("sink") if "sink" in params else None

        def before(args, kwargs):
            clock = args[clock_at] if len(args) > clock_at else kwargs["clock"]
            if sink_at is not None:
                args = list(args)
                sink = args[sink_at]

                def counted(m):
                    self.walk_finds += 1
                    return sink(m)

                args[sink_at] = counted
            return (clock, clock.nodes), tuple(args), kwargs

        return before

    def _settle(self, name: str, state) -> None:
        clock, nodes_before = state
        if name == "walk.engine":
            self.walk_nodes += clock.nodes - nodes_before
        else:
            self.glue_nodes += clock.nodes - nodes_before

    def _after(self, name: str):
        if name.startswith("canonical."):
            is_code = name == "canonical.code"

            def after(args, result):
                self.canonical_darts += args[0].dart_count
                if is_code:
                    self.code_calls += 1
                    self.codes.add(result)

            return after
        if name == "cutsets.find_cutsets":

            def after(args, result):
                g, k = args[0], args[1]
                n = g.vertex_count if hasattr(g, "vertex_count") else len(g)
                self.subsets_computed += sum(
                    math.comb(n, s) for s in range(1, min(k, n - 2) + 1)
                )

            return after
        return None

    def install(self) -> None:
        """Wrap every target in every ``ormaps`` namespace that binds it."""
        import ormaps.surgery  # noqa: F401  (targets are listed from it)

        targets = dict(TARGETS)
        targets.update(_surgery_targets())
        replacement = {}
        for name, (module_name, attr) in targets.items():
            module = sys.modules.get(module_name)
            fn = getattr(module, attr, None) if module is not None else None
            if fn is None:
                raise RuntimeError(f"traced function {module_name}.{attr} is missing")
            before = None
            if name in ("walk.engine", "glue.engine"):
                before = self._engine_hooks(fn)
            replacement[id(fn)] = (fn, self._wrap(name, fn, before, self._after(name)))
        namespaces = [
            vars(module)
            for module_name, module in list(sys.modules.items())
            if module_name == "ormaps" or module_name.startswith("ormaps.")
        ]
        for namespace in namespaces:
            for key, value in list(namespace.items()):
                hit = replacement.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[key] = hit[1]

    # -- results --------------------------------------------------------------

    def dump(self, path) -> None:
        """Write the spans as JSON: names once, then [name, start, end, parent]."""
        names: dict[str, int] = {}
        rows = []
        for name, start, end, parent in self.spans:
            rows.append([names.setdefault(name, len(names)), start, end, parent])
        with open(path, "w") as handle:
            json.dump({"names": list(names), "spans": rows}, handle)

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics named in BENCHMARK.json (except the overhead)."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        # keyed by span name (every call) and by layer (entries from outside it)
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        glue_completions = 0
        for i, (name, start, end, parent) in enumerate(spans):
            own = end - start - covered[i]
            layer = name.split(".", 1)[0]
            parent_name = spans[parent][0] if parent >= 0 else ""
            self_time[name] += own
            self_time[layer] += own
            calls[name] += 1
            if parent_name.split(".", 1)[0] != layer:
                calls[layer] += 1
            if name == "core.validate" and parent_name == "glue.engine":
                glue_completions += 1

        def rate(nodes: int, seconds: float) -> float:
            return nodes / seconds if seconds > 0 else 0.0

        return {
            "walk.nodes": self.walk_nodes,
            "walk.self_s": self_time["walk"],
            "walk.nodes_per_s": rate(self.walk_nodes, self_time["walk"]),
            "walk.finds": self.walk_finds,
            "glue.nodes": self.glue_nodes,
            "glue.self_s": self_time["glue"],
            "glue.nodes_per_s": rate(self.glue_nodes, self_time["glue"]),
            "glue.completions": glue_completions,
            "canonical.calls": calls["canonical"],
            "canonical.darts": self.canonical_darts,
            "canonical.self_s": self_time["canonical"],
            "canonical.unique_ratio": (
                len(self.codes) / self.code_calls if self.code_calls else 0.0
            ),
            "core.parse_s": self_time["core.parse"],
            "core.emit_s": self_time["core.emit"],
            "core.build_s": self_time["core.from_rotations"],
            "core.validate_s": self_time["core.validate"],
            "core.validate_calls": calls["core.validate"],
            "kappa.calls": calls["kappa"],
            "kappa.self_s": self_time["kappa"],
            "cutsets.calls": calls["cutsets"],
            "cutsets.self_s": self_time["cutsets"],
            "cutsets.subsets_computed": self.subsets_computed,
            "dual.calls": calls["dual"],
            "dual.self_s": self_time["dual"],
            "surgery.self_s": self_time["surgery"],
            "cli.self_s": self_time["cli"],
        }
