"""The four workloads: inputs made from the seed, operations, output checks.

A workload object is built in a fresh interpreter.  ``setup`` makes its
inputs, ``ops`` yields ``(label, thunk)`` pairs that the worker times one
after another (a closed loop with one client), and ``check`` audits each
result afterwards, outside the timed loop and with tracing paused.  Checks
use only facts that survive relabelling: counts, verdicts, genus and
connectivity.  Canonical codes, node counts and map order are not pinned.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
import re
from collections import deque
from pathlib import Path

import ormaps
from ormaps import cli, connectivity

# -- certify -------------------------------------------------------------------

# (case, sweep spec in the public grammar, expected finds, node budget);
# each budget is at least four times the sweep's node count when written
CERTIFY_SWEEPS = [
    ("i", "k=3; mode=circuit; constraints=distinct-neighbors", 0, 10_000),
    ("i", "k=4; mode=circuit; constraints=distinct-neighbors", 0, 10_000),
    ("i", "k=5; mode=circuit; constraints=distinct-neighbors", 0, 10_000),
    ("ii", "k=3; mode=circuit; constraints=detached-face", 0, 10_000),
    ("ii", "k=4; mode=circuit; constraints=detached-face", 0, 10_000),
    ("ii", "k=5; mode=circuit; constraints=detached-face", 0, 10_000),
    ("iii", "k=6; mode=circuit; constraints=distinct-neighbors", 11, 1_500_000),
    ("iv", "k=6; mode=circuit; constraints=single-neighbor,min-faces:3", 0, 1_000_000),
    ("v", "k=6; mode=pair; constraints=distinct-neighbors", 4, 1_500_000),
    ("vi", "k=6; mode=pair; constraints=single-neighbor,min-faces:4", 0, 1_000_000),
    ("ix", "k=7; mode=pair; constraints=distinct-neighbors; max-vertices=6", 0, 400_000),
    ("ix", "k=7; mode=pair; constraints=distinct-neighbors; min-vertices=7; max-edges=13",
     0, 5_000_000),
]

# bounds cases: every find has exactly this many vertices and at least this many edges
CERTIFY_BOUNDS = {"iii": (6, 13), "v": (6, 12)}


class Certify:
    """Remark 24 cases i-vi and ix, one enumerate_empty call per sweep."""

    def setup(self, seed: int, workdir: Path) -> None:
        self.specs = {text: ormaps.parse_empty_spec(text) for _, text, _, _ in CERTIFY_SWEEPS}

    def ops(self):
        for case, text, _, budget in CERTIFY_SWEEPS:
            spec = self.specs[text]
            limit = ormaps.SearchBudget(max_nodes=budget)
            yield f"{case}: {text}", lambda spec=spec, limit=limit: ormaps.enumerate_empty(spec, limit)

    def check(self, label: str, outcome) -> list[str]:
        case, text = label.split(": ", 1)
        _, _, want, _ = next(row for row in CERTIFY_SWEEPS if row[1] == text)
        spec = self.specs[text]
        if not outcome.complete:
            return ["node budget exhausted"]
        problems = []
        if len(outcome.maps) != want:
            problems.append(f"{len(outcome.maps)} finds, expected {want}")
        codes = set()
        for m in outcome.maps:
            problems.extend(ormaps.empty_map_problems(m, spec))
            codes.add(ormaps.canonical_code(m))
            if case in CERTIFY_BOUNDS:
                v, e = CERTIFY_BOUNDS[case]
                if m.vertex_count != v or m.edge_count < e:
                    problems.append(
                        f"find with V={m.vertex_count} E={m.edge_count} breaks the bound"
                    )
        if len(codes) != len(outcome.maps):
            problems.append("two finds are isomorphic")
        return problems


# -- glue ----------------------------------------------------------------------

GLUE_SEARCHES = [
    ("fig2", "c=2; pair-sum=7; dual=simple,has-2-cut; pair=shares-two-vertices; "
             "max-vertices=6; max-edges=15", True, 10_000),
    ("fig2-complement", "c=2; pair-sum=6; dual=simple,has-2-cut; "
                        "pair=shares-two-vertices; max-vertices=6; max-edges=15", False, 10_000),
    ("c3-none", "c=3; pair-sum=8; dual=simple,has-2-cut; pair=shares-two-vertices; "
                "max-vertices=7; max-edges=18", False, 3_500_000),
]


def _pair_plus_triangles(sizes: list[int], total: int) -> bool:
    for i, j in itertools.combinations(range(len(sizes)), 2):
        rest = sizes[:i] + sizes[i + 1:j] + sizes[j + 1:]
        if sizes[i] + sizes[j] == total and all(s == 3 for s in rest):
            return True
    return False


class Glue:
    """Three witness searches and the torus K7, all on the face-gluing engine."""

    def setup(self, seed: int, workdir: Path) -> None:
        self.specs = {name: ormaps.parse_witness_spec(text) for name, text, _, _ in GLUE_SEARCHES}

    def ops(self):
        for name, _, _, budget in GLUE_SEARCHES:
            spec = self.specs[name]
            limit = ormaps.SearchBudget(max_nodes=budget)
            yield name, lambda spec=spec, limit=limit: ormaps.search_witness(spec, limit)
        # takes no budget: it stops itself after nine completions
        yield "k7-torus", lambda: ormaps.triangular_complete_map(7)

    def check(self, label: str, result) -> list[str]:
        if label == "k7-torus":
            m = result
            sizes = {f.size for f in m.faces}
            if (m.vertex_count, m.edge_count, ormaps.genus(m), sizes) != (7, 21, 1, {3}):
                return [f"not a triangular torus K7: V={m.vertex_count} E={m.edge_count}"]
            if not m.is_simple_graph() or not ormaps.validate(m).ok:
                return ["K7 map is not a valid simple map"]
            return []
        _, _, found, _ = next(row for row in GLUE_SEARCHES if row[0] == label)
        if not result.complete:
            return ["node budget exhausted"]
        if not found:
            return [] if result.map is None else ["found a map where none exists"]
        m = result.map
        if m is None:
            return ["no witness found"]
        spec = self.specs[label]
        problems = []
        if not ormaps.validate(m).ok or not m.is_simple_graph():
            problems.append("witness is not a valid simple map")
        sizes = sorted(f.size for f in m.faces)
        if not _pair_plus_triangles(sizes, spec.pair_sum):
            problems.append(f"face sizes {sizes} are not a pair summing to "
                            f"{spec.pair_sum} plus triangles")
        if ormaps.vertex_connectivity(m) != spec.connectivity:
            problems.append("witness has the wrong connectivity")
        rep = ormaps.dual(m)
        if not rep.simple or ormaps.vertex_connectivity(rep.dual) > 2:
            problems.append("witness dual is not simple with a 2-cut")
        return problems


# -- corpus --------------------------------------------------------------------

CORPUS_EDGES = 8
CORPUS_CLASSES = 2158


class Corpus:
    """Cold corpus build, then one oracle operation per map in seeded order."""

    def setup(self, seed: int, workdir: Path) -> None:
        self.rng = random.Random(seed)
        self.maps = None
        self.mirror_codes: set[bytes] = set()

    def _build(self):
        self.maps = ormaps.enumerate_connected_maps(CORPUS_EDGES)
        return len(self.maps)

    @staticmethod
    def _oracle(m):
        return (
            ormaps.genus(m),
            ormaps.dual(m).verdict,
            connectivity.vertex_connectivity_bruteforce(m),
            connectivity.vertex_connectivity_flow(m),
            ormaps.canonical_code(m.mirror()),
        )

    def ops(self):
        yield "build", self._build
        if self.maps is None:
            return
        order = list(range(len(self.maps)))
        self.rng.shuffle(order)
        for i in order:
            yield f"map {i}", lambda m=self.maps[i]: self._oracle(m)

    def check(self, label: str, result) -> list[str]:
        if label == "build":
            return [] if result == CORPUS_CLASSES else [f"{result} classes, expected {CORPUS_CLASSES}"]
        m = self.maps[int(label.split()[1])]
        g, verdict, brute, flow, mirror_code = result
        problems = []
        if brute != flow:
            problems.append(f"brute-force kappa {brute} != flow kappa {flow}")
        if g != (2 - m.vertex_count + m.edge_count - len(m.faces)) // 2 or g < 0:
            problems.append(f"genus {g} disagrees with Euler's formula")
        if verdict not in ("simple", "loop", "multi"):
            problems.append(f"unknown dual verdict {verdict!r}")
        if mirror_code in self.mirror_codes:
            problems.append("two maps share a mirror class")
        self.mirror_codes.add(mirror_code)
        return problems


# -- cli -----------------------------------------------------------------------

# K7 on the torus: vertex i sees i+1, i+3, i+2, i+6, i+4, i+5 (mod 7) clockwise
K7_ROTATIONS = [[(i + s) % 7 for s in (1, 3, 2, 6, 4, 5)] for i in range(7)]

STACKED_SIZES = (6, 8, 12, 16, 20, 40)


def _base_maps() -> dict[str, "ormaps.Map"]:
    maps = {f"stack{n}": ormaps.stacked_triangulation(n) for n in STACKED_SIZES}
    maps["k7"] = ormaps.from_rotations(K7_ROTATIONS)
    for c in (3, 5, 6, 7):
        maps[f"zc{c}"] = ormaps.cycle_square_gadget(c)
    maps["k4wedge"] = ormaps.k4_wedge()
    maps["delta1-c1"] = ormaps.build_one_cut_witness(1).map
    maps["delta1-c3"] = ormaps.build_one_cut_witness(3).map
    maps["wheel6"] = ormaps.wheel(6)
    maps["wheel8"] = ormaps.wheel(8)
    return maps


def _relabel(m, rng: random.Random):
    """Permute the vertices and shift where each rotation is written to start."""
    n = m.vertex_count
    perm = list(range(n))
    rng.shuffle(perm)
    rows: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        nbrs = [m.vertex_of[m.reverse[d]] for d in m.rotations[v]]
        shift = rng.randrange(len(nbrs))
        rows[perm[v]] = [perm[w] for w in nbrs[shift:] + nbrs[:shift]]
    return ormaps.from_rotations(rows)


ANALYSES = ["validate", "faces", "genus", "dual", "connectivity", "connectivity --dual",
            "check-thresholds", "export"]

CONSTRUCTS = [
    ("k4-wedge", ["k4-wedge"]),
    ("zc3", ["zc", "--c", "3"]),
    ("zc5", ["zc", "--c", "5"]),
    ("zc6", ["zc", "--c", "6"]),
    ("zc7", ["zc", "--c", "7"]),
    ("fill-wheel6", ["interior-fill", "@wheel6", "--c", "2", "--l", "4"]),
    ("fill-wheel8", ["interior-fill", "@wheel8", "--c", "3", "--l", "4"]),
    ("glue-stack6", ["glue", "@stack6", "@stack6"]),
    ("insert-stack40", ["insert-cycle", "@stack40"]),
    ("delta1-c1", ["delta1-witness", "--c", "1"]),
    ("delta1-c3", ["delta1-witness", "--c", "3"]),
    ("delta1-stack40", ["delta1-witness", "--c", "3", "--triangulation", "@stack40"]),
]

# Relabel-invariant facts per input, checked against the cli's stdout:
# V, E, genus, face sizes {size: count}, kappa, dual verdict, self-dual,
# multi-pair lines, kappa of the dual, and check-thresholds at c = kappa as
# (one-cut guarantee, faces at threshold, two-cut guarantee, pairs at
# threshold), or None where the dual is not simple and the command exits 2.
CLI_EXPECTED = {
    "stack6": (6, 12, 0, {3: 8}, 3, "simple", "no", 0, 3, ("yes", 0, "yes", 0)),
    "stack8": (8, 18, 0, {3: 12}, 3, "simple", "no", 0, 3, ("yes", 0, "yes", 0)),
    "stack12": (12, 30, 0, {3: 20}, 3, "simple", "no", 0, 3, ("yes", 0, "yes", 0)),
    "stack16": (16, 42, 0, {3: 28}, 3, "simple", "no", 0, 3, ("yes", 0, "yes", 0)),
    "stack20": (20, 54, 0, {3: 36}, 3, "simple", "no", 0, 3, ("yes", 0, "yes", 0)),
    "stack40": (40, 114, 0, {3: 76}, 3, "simple", "no", 0, 3, ("yes", 0, "yes", 0)),
    "k7": (7, 21, 1, {3: 14}, 6, "simple", "no", 0, 3, ("yes", 0, "yes", 0)),
    "zc3": (6, 9, 1, {3: 1, 6: 1, 9: 1}, 2, "multi", "no", 2, 1, None),
    "zc5": (5, 10, 2, {5: 2, 10: 1}, 4, "multi", "no", 2, 1, None),
    "zc6": (6, 12, 2, {3: 2, 6: 1, 12: 1}, 4, "multi", "no", 3, 1, None),
    "zc7": (7, 14, 3, {7: 2, 14: 1}, 4, "multi", "no", 2, 1, None),
    "k4wedge": (7, 12, 0, {3: 6, 6: 1}, 1, "simple", "yes", 0, 1, ("no", 1, "no", 6)),
    "delta1-c1": (7, 12, 0, {3: 6, 6: 1}, 1, "simple", "yes", 0, 1, ("no", 1, "no", 6)),
    "delta1-c3": (8, 18, 1, {3: 9, 9: 1}, 3, "simple", "no", 0, 1, ("no", 1, "no", 9)),
    "wheel6": (7, 12, 0, {3: 6, 6: 1}, 3, "simple", "yes", 0, 3, ("yes", 0, "yes", 0)),
    "wheel8": (9, 16, 0, {3: 8, 8: 1}, 3, "simple", "yes", 0, 3, ("yes", 0, "no", 8)),
}

# min1f(c) and min2f(c): the face sizes at which the guarantees start
FACE_THRESHOLDS = {1: (6, 7), 3: (9, 10), 6: (12, 12)}

# stdout of each construct, without the output path and the pivot list
CONSTRUCT_EXPECTED = {
    "k4-wedge": ["constructed: vertices=7 edges=12 faces=7 genus=0"],
    "zc3": ["constructed: vertices=6 edges=9 faces=3 genus=1"],
    "zc5": ["constructed: vertices=5 edges=10 faces=3 genus=2"],
    "zc6": ["constructed: vertices=6 edges=12 faces=4 genus=2"],
    "zc7": ["constructed: vertices=7 edges=14 faces=3 genus=3"],
    "fill-wheel6": ["constructed: vertices=11 edges=26 faces=17 genus=0"],
    "fill-wheel8": ["constructed: vertices=13 edges=32 faces=21 genus=0"],
    "glue-stack6": ["constructed: vertices=9 edges=21 faces=14 genus=0"],
    "insert-stack40": ["constructed: vertices=40 edges=120 faces=72 genus=5"],
    "delta1-c1": [
        "construction: two plane K4 copies wedged at a vertex",
        "connectivity: 1", "vertices: 7", "edges: 12", "faces: 7", "genus: 0",
        "big-face-size: 6", "dual: simple, cut vertex at the big face", "checks: passed",
        "constructed: vertices=7 edges=12 faces=7 genus=0",
    ],
    "delta1-c3": [
        "construction: gadget on 3 vertices with both satellites glued over",
        "connectivity: 3", "vertices: 8", "edges: 18", "faces: 10", "genus: 1",
        "big-face-size: 9", "dual: simple, cut vertex at the big face", "checks: passed",
        "constructed: vertices=8 edges=18 faces=10 genus=1",
    ],
    "delta1-stack40": [
        "construction: 6-cycle threaded through six triangles, hexagon capped",
        "host-vertices: 40", "host-genus: 0", "vertices: 40", "edges: 129", "faces: 79",
        "genus: 6 (host + 6)", "big-face-size: 24", "dual: simple, cut vertex at the 24-gon",
        "checks: passed", "constructed: vertices=40 edges=129 faces=79 genus=6",
    ],
}


def _threshold_lines(kappa: int, kappa_dual: int, expected) -> list[str]:
    one, faces, two, pairs = expected
    min1, min2 = FACE_THRESHOLDS[kappa]
    return (
        [f"min1f({kappa})={min1}; one-cut-guarantee={one}"]
        + ["  face at threshold: f*"] * faces
        + [f"min2f({kappa})={min2}; two-cut-guarantee={two}"]
        + ["  doubly intersecting pair at threshold: f* f*"] * pairs
        + [f"kappa(dual)={kappa_dual}", "cross-check: pass"]
    )


_LABEL = re.compile(r"\bf\d+(?:#\d+)?\b")


def _components_after(adj: list[set[int]], removed: set[int]) -> int:
    seen = set(removed)
    parts = 0
    for v in range(len(adj)):
        if v in seen:
            continue
        parts += 1
        seen.add(v)
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return parts


def _cut_problems(adj: list[set[int]], cut: set[int], kappa: int) -> list[str]:
    problems = []
    if len(cut) != kappa:
        problems.append(f"printed cut has {len(cut)} vertices, kappa is {kappa}")
    if _components_after(adj, cut) < 2:
        problems.append("printed cut does not separate the graph")
    return problems


class Cli:
    """Every analysis command on every relabelled .rot file, then constructs."""

    def setup(self, seed: int, workdir: Path) -> None:
        rng = random.Random(seed)
        self.workdir = workdir
        self.files: dict[str, str] = {}
        for name, m in _base_maps().items():
            if not m.is_simple_graph():
                raise RuntimeError(f"cli input {name} is not simple; relabelling needs that")
            path = workdir / f"{name}.rot"
            path.write_text(ormaps.emit(_relabel(m, rng)))
            self.files[name] = str(path)

    def _argv(self, words: list[str]) -> list[str]:
        return [self.files[w[1:]] if w.startswith("@") else w for w in words]

    @staticmethod
    def _run(argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    def ops(self):
        for name, path in self.files.items():
            kappa = CLI_EXPECTED[name][4]
            for command in ANALYSES:
                argv = command.split() + [path]
                if command == "check-thresholds":
                    argv += ["--c", str(kappa)]
                elif command == "export":
                    argv += ["--format", "graph-description"]
                yield f"{name} {command}", lambda argv=argv: self._run(argv)
        for name, words in CONSTRUCTS:
            out = str(self.workdir / f"built-{name}.rot")
            argv = ["construct"] + self._argv(words) + ["-o", out]
            yield f"construct {name}", lambda argv=argv: self._run(argv)

    def check(self, label: str, result) -> list[str]:
        code, out = result
        name, command = label.split(" ", 1)
        if name == "construct":
            lines = [
                line for line in out.splitlines()
                if not line.startswith(("written:", "pivots:"))
            ]
            if code != 0:
                return [f"exit code {code}"]
            want = CONSTRUCT_EXPECTED[command]
            return [] if lines == want else [f"stdout {lines} differs from {want}"]
        return self._check_analysis(name, command, code, out)

    def _check_analysis(self, name: str, command: str, code: int, out: str) -> list[str]:
        V, E, genus, size_counts, kappa, verdict, self_dual, multi, kappa_dual, thresholds = (
            CLI_EXPECTED[name]
        )
        sizes = sorted(s for s, n in size_counts.items() for _ in range(n))
        lines = out.splitlines()
        if command == "check-thresholds":
            got = [_LABEL.sub("f*", line) for line in lines]
            if thresholds is None:
                ok = code == 2 and not got
            else:
                ok = code == 0 and got == _threshold_lines(kappa, kappa_dual, thresholds)
            return [] if ok else [f"check-thresholds exited {code} printing {got}"]
        if code != 0:
            return [f"exit code {code}"]
        if command == "validate":
            want = [f"ok: vertices={V} edges={E} faces={len(sizes)} genus={genus}"]
            return [] if lines == want else [f"validate printed {lines}"]
        if command == "faces":
            got = sorted(int(re.search(r"size (\d+);", line).group(1)) for line in lines[1:])
            ok = lines[0] == f"faces: {len(sizes)}" and got == sizes
            return [] if ok else [f"faces printed sizes {got}"]
        if command == "genus":
            return [] if lines == [str(genus)] else [f"genus printed {lines}"]
        if command == "dual":
            pairs = sum(line.startswith("multi pair:") for line in lines)
            ok = lines[0] == f"{verdict}; self-dual: {self_dual}" and pairs == multi
            return [] if ok and len(lines) == 1 + multi else [f"dual printed {lines}"]
        if command == "export":
            want = [f"vertices: {V}", f"edges: {E}", f"faces: {len(sizes)}", f"genus: {genus}"]
            got = sorted(int(s) for s in re.findall(r"^face \d+: size (\d+);", out, re.M))
            return [] if lines[1:5] == want and got == sizes else [f"export printed {lines[:5]}"]
        m = ormaps.parse(Path(self.files[name]).read_text())
        if command == "connectivity":
            match = re.fullmatch(r"kappa=(\d+); cut=(none|\{[\d,]+\})", lines[-1])
            if len(lines) != 1 or not match or int(match.group(1)) != kappa:
                return [f"connectivity printed {lines}"]
            if match.group(2) == "none":
                return [] if kappa == V - 1 else ["no cut printed for a non-complete graph"]
            cut = {int(v) for v in match.group(2)[1:-1].split(",")}
            return _cut_problems([set(a) for a in m.adjacency], cut, kappa)
        # connectivity --dual: the cut is printed as face labels f<size>[#<index>]
        note = [] if verdict == "simple" else [f"dual not simple ({verdict})"]
        match = re.fullmatch(r"kappa\(dual\)=(\d+); cut=(none|\{[^}]*\})", lines[-1])
        if lines[:-1] != note or not match or int(match.group(1)) != kappa_dual:
            return [f"connectivity --dual printed {lines}"]
        faces = len(m.faces)
        if match.group(2) == "none":
            return [] if kappa_dual == faces - 1 else ["no dual cut printed"]
        cut = {
            int(label.split("#")[1]) if "#" in label
            else next(f.index for f in m.faces if f.size == int(label[1:]))
            for label in match.group(2)[1:-1].split(",")
        }
        adj: list[set[int]] = [set() for _ in range(faces)]
        fidx = m.face_index_of
        for d in range(m.dart_count):
            a, b = fidx[d], fidx[m.reverse[d]]
            if a != b:
                adj[a].add(b)
        return _cut_problems(adj, cut, kappa_dual)


WORKLOADS = {"certify": Certify, "glue": Glue, "corpus": Corpus, "cli": Cli}
