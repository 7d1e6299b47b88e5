"""Command-line interface for analyzing, constructing, and searching maps.

Every command prints its analysis to stdout and emits a machine-parseable
run manifest (``key: value`` lines) to stderr, or to the file named by
``--manifest``.  Exit codes: 0 success / certified; 1 I/O or usage error;
2 invalid input or failed precondition; 3 search budget exhausted;
4 internal error (a broken invariant inside the library).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import locale
import sys
import time
from pathlib import Path

from .bounds import (
    check_one_cut_guarantee,
    check_two_cut_guarantee,
    one_cut_size_threshold,
    two_cut_size_threshold,
)
from .connectivity import min_cut, vertex_connectivity
from .core import (
    Map,
    canonical_code,
    degree_multiset,
    emit,
    face_size_multiset,
    genus,
    parse,
    validate,
    walk_vertices,
)
from .dual import dual
from .search import (
    CASE_LABELS,
    SearchBudget,
    enumerate_empty,
    parse_empty_spec,
    parse_witness_spec,
    search_empty_9_cycle,
    search_witness,
    verify_remark24,
)
from .surgery import (
    SurgeryError,
    build_one_cut_witness,
    cycle_square_gadget,
    find_disjoint_triangles,
    glue_faces,
    insert_cycle_in_triangles,
    interior_fill,
    k4_wedge,
    one_cut_witness_from_triangulation,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2
EXIT_EXHAUSTED = 3
EXIT_INTERNAL = 4


class _Manifest:
    """Accumulates the run record; written once per invocation."""

    def __init__(self, command: str):
        self.entries: list[tuple[str, str]] = [
            ("manifest", "ormaps/1"),
            ("command", command),
        ]

    def add(self, key: str, value) -> None:
        self.entries.append((key, str(value)))

    def add_file(self, key: str, path: str, data: bytes) -> None:
        """Record a file read ("input") or written ("output") with the sha256 of
        ``data``, the bytes that were parsed or written."""
        digest = hashlib.sha256(data).hexdigest()
        self.add(key, f"{path} sha256={digest}")

    def write(self, destination: str | None) -> None:
        text = "".join(f"{k}: {v}\n" for k, v in self.entries)
        if destination:
            Path(destination).write_text(text)
        else:
            sys.stderr.write(text)


def _load(path: str, manifest: _Manifest, *, require_valid: bool = True) -> Map:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise _Failure(EXIT_IO, f"cannot read {path}: {exc.strerror or exc}") from exc
    # one read, so the digest names the bytes parsed; parse splits with
    # splitlines, so a text-mode read's newline translation is not needed
    text = data.decode(locale.getpreferredencoding(False))  # UnicodeDecodeError: exit 2
    manifest.add_file("input", path, data)
    m = parse(text)  # RotParseError propagates; mapped to exit 2
    if require_valid:
        report = validate(m)
        if not report.ok:
            raise _Failure(EXIT_INVALID, "invalid map: " + "; ".join(report.problems))
    return m


class _Failure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _write_map(m: Map, path: str, manifest: _Manifest) -> None:
    data = emit(m).encode(locale.getpreferredencoding(False))
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise _Failure(EXIT_IO, f"cannot write {path}: {exc.strerror or exc}") from exc
    manifest.add_file("output", path, data)


def _face_labels(m: Map) -> list[str]:
    """Name each face f<size>, disambiguating repeated sizes by index."""
    from collections import Counter

    counts = Counter(f.size for f in m.faces)
    return [
        f"f{f.size}" if counts[f.size] == 1 else f"f{f.size}#{f.index}"
        for f in m.faces
    ]


def _self_dual(m: Map, d: Map) -> bool:
    """Whether ``d``, the dual of ``m``, is isomorphic to ``m`` or its mirror.

    The face sizes of ``m`` are the vertex degrees of ``d``, so when they
    differ from the degrees of ``m`` as multisets no code is computed.
    """
    if degree_multiset(m) != face_size_multiset(m):
        return False
    code = canonical_code(m)
    return canonical_code(d) == code or canonical_code(d.mirror()) == code


# -- analysis commands -------------------------------------------------------------


def _cmd_validate(args, manifest) -> int:
    m = _load(args.file, manifest, require_valid=False)
    report = validate(m)
    manifest.add("check.validate", "pass" if report.ok else "fail")
    if report.ok:
        print(
            f"ok: vertices={m.vertex_count} edges={m.edge_count} "
            f"faces={len(m.faces)} genus={genus(m)}"
        )
        return EXIT_OK
    for problem in report.problems:
        print(f"problem: {problem}")
    return EXIT_INVALID


def _cmd_faces(args, manifest) -> int:
    m = _load(args.file, manifest)
    print(f"faces: {len(m.faces)}")
    for f in m.faces:
        verts = " ".join(str(v) for v in walk_vertices(m, f.darts))
        print(f"f{f.index}: size {f.size}; vertices {verts}")
    manifest.add("faces", len(m.faces))
    return EXIT_OK


def _cmd_genus(args, manifest) -> int:
    m = _load(args.file, manifest)
    g = genus(m)
    print(g)
    manifest.add("genus", g)
    return EXIT_OK


def _cmd_dual(args, manifest) -> int:
    m = _load(args.file, manifest)
    report = dual(m)
    self_dual = _self_dual(m, report.dual)
    print(f"{report.verdict}; self-dual: {'yes' if self_dual else 'no'}")
    labels = _face_labels(m)
    if report.loops:
        print("loop edges:", " ".join(str(e) for e in report.loops))
    for a, b in report.multi_pairs:
        print(f"multi pair: {labels[a]} {labels[b]}")
    manifest.add("dual.verdict", report.verdict)
    manifest.add("dual.self-dual", "yes" if self_dual else "no")
    return EXIT_OK


def _cmd_connectivity(args, manifest) -> int:
    m = _load(args.file, manifest)
    if args.dual:
        report = dual(m)
        if not report.simple:
            print(f"dual not simple ({report.verdict})")
        g, labels, name, key = report.dual, _face_labels(m), "kappa(dual)", "kappa.dual"
    else:
        g, labels, name, key = m, [str(v) for v in range(m.vertex_count)], "kappa", "kappa"
    kappa, cut = min_cut(g)
    shown = "none" if cut is None else "{" + ",".join(labels[v] for v in cut) + "}"
    print(f"{name}={kappa}; cut={shown}")
    manifest.add(key, kappa)
    return EXIT_OK


def _cmd_check_thresholds(args, manifest) -> int:
    m = _load(args.file, manifest)
    c = args.c
    kappa = vertex_connectivity(m)
    if kappa < c:
        raise _Failure(EXIT_INVALID, f"map is {kappa}-connected, below the claimed {c}")
    report = dual(m)
    if not report.simple:
        raise _Failure(EXIT_INVALID, f"dual is not simple ({report.verdict})")
    labels = _face_labels(m)
    one = check_one_cut_guarantee(m, c)
    two = check_two_cut_guarantee(m, c)
    print(f"min1f({c})={one.threshold}; one-cut-guarantee={'yes' if one.guaranteed else 'no'}")
    for face in one.violations:
        print(f"  face at threshold: {labels[face]}")
    print(f"min2f({c})={two.threshold}; two-cut-guarantee={'yes' if two.guaranteed else 'no'}")
    for a, b in two.violations:
        print(f"  doubly intersecting pair at threshold: {labels[a]} {labels[b]}")
    kappa_dual = vertex_connectivity(report.dual)
    print(f"kappa(dual)={kappa_dual}")
    manifest.add("check.one-cut", "yes" if one.guaranteed else "no")
    manifest.add("check.two-cut", "yes" if two.guaranteed else "no")
    manifest.add("kappa.dual", kappa_dual)
    if (one.guaranteed and kappa_dual < 2) or (two.guaranteed and kappa_dual < 3):
        print("cross-check: GUARANTEE VIOLATION")
        manifest.add("check.cross", "violation")
        return EXIT_INVALID
    print("cross-check: pass")
    manifest.add("check.cross", "pass")
    return EXIT_OK


# -- construction commands ----------------------------------------------------------


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise _Failure(EXIT_IO, f"expected a comma-separated integer list: {text!r}") from exc


def _cmd_construct(args, manifest) -> int:
    name = args.what
    manifest.add("construction", name)
    report_lines: tuple[str, ...] = ()
    if name == "k4-wedge":
        out = k4_wedge()
    elif name == "zc":
        if args.c is None:
            raise _Failure(EXIT_IO, "zc needs --c")
        out = cycle_square_gadget(args.c)
    elif name == "interior-fill":
        if args.file is None or args.c is None or args.l is None:
            raise _Failure(EXIT_IO, "interior-fill needs a file, --c, and --l")
        host = _load(args.file, manifest)
        face = args.face if args.face is not None else next(
            (f.index for f in host.faces if f.size >= args.l * (args.c - 1)), None
        )
        if face is None:
            raise _Failure(EXIT_INVALID, "no face is large enough to fill")
        out = interior_fill(host, face, args.c, args.l).map
    elif name == "glue":
        if args.file is None or args.other is None:
            raise _Failure(EXIT_IO, "glue needs two map files")
        a = _load(args.file, manifest)
        b = _load(args.other, manifest)
        fa = args.face if args.face is not None else 0
        fb = args.face_b if args.face_b is not None else 0
        if not (0 <= fa < len(a.faces) and 0 <= fb < len(b.faces)):
            raise _Failure(EXIT_INVALID, "face index out of range")
        if args.offset is not None:
            alignments = [(args.offset, args.mirror)]
        else:
            alignments = [
                (o, mir) for o in range(a.faces[fa].size) for mir in (False, True)
            ]
        out = _try_glue(a, b, fa, fb, alignments)
    elif name == "insert-cycle":
        if args.file is None:
            raise _Failure(EXIT_IO, "insert-cycle needs a triangulation file")
        host = _load(args.file, manifest)
        if bool(args.triangles) != bool(args.pivots):
            raise _Failure(EXIT_IO, "give both triangles and pivots, or neither")
        if args.triangles:
            tris = _parse_int_list(args.triangles)
            pivots = _parse_int_list(args.pivots)
        else:
            found = find_disjoint_triangles(host)
            if found is None:
                raise _Failure(EXIT_INVALID, "no six disjoint triangles with a pivot cycle")
            tris, pivots = found
        out = insert_cycle_in_triangles(host, tris, pivots).map
    else:  # delta1-witness, the last of argparse's choices
        if args.c is None:
            raise _Failure(EXIT_IO, "delta1-witness needs --c")
        if args.triangulation:
            host = _load(args.triangulation, manifest)
            outcome = one_cut_witness_from_triangulation(host, expect_connectivity=args.c)
        else:
            ingredients = tuple(
                _load(path, manifest) for path in (args.ingredient or ())
            )
            outcome = build_one_cut_witness(args.c, ingredients)
        out = outcome.map
        report_lines = outcome.report

    for line in report_lines:
        print(line)
    print(
        f"constructed: vertices={out.vertex_count} edges={out.edge_count} "
        f"faces={len(out.faces)} genus={genus(out)}"
    )
    if args.out:
        _write_map(out, args.out, manifest)
        print(f"written: {args.out}")
    else:
        sys.stdout.write(emit(out))
    manifest.add("vertices", out.vertex_count)
    manifest.add("edges", out.edge_count)
    return EXIT_OK


def _try_glue(a, b, fa, fb, alignments):
    last: SurgeryError | None = None
    for offset, mir in alignments:
        try:
            return glue_faces(a, b, fa, fb, offset, mir).map
        except SurgeryError as exc:
            last = exc
    raise _Failure(EXIT_INVALID, f"no alignment glues cleanly: {last}")


# -- search commands ----------------------------------------------------------------


def _budget(args) -> SearchBudget | None:
    if args.max_nodes is None and args.max_seconds is None:
        return None
    return SearchBudget(max_nodes=args.max_nodes, max_seconds=args.max_seconds)


def _write_found(maps, out_dir: str | None, stem: str, manifest) -> None:
    if out_dir is None:
        for m in maps:
            sys.stdout.write(emit(m))
        return
    directory = Path(out_dir)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _Failure(EXIT_IO, f"cannot create {out_dir}: {exc.strerror or exc}") from exc
    for i, m in enumerate(maps, start=1):
        _write_map(m, str(directory / f"{stem}-{i:03d}.rot"), manifest)


def _report_finds(outcome, out_dir: str | None, stem: str, manifest) -> None:
    """Print, write and record the finds of an ``EnumerationOutcome``."""
    complete = "yes" if outcome.complete else "no"
    print(f"found: {len(outcome.maps)}; complete: {complete}; nodes: {outcome.nodes}")
    _write_found(outcome.maps, out_dir, stem, manifest)
    manifest.add("found", len(outcome.maps))
    manifest.add("complete", complete)
    manifest.add("nodes", outcome.nodes)


def _cmd_search(args, manifest) -> int:
    kind = args.kind
    manifest.add("search", kind)
    if kind == "remark24":
        cases = tuple(args.case) if args.case else None
        # default budget: deterministic, and it certifies all ten cases (the
        # largest, viii, takes about 3.1M nodes)
        budget = _budget(args) or SearchBudget(max_nodes=20_000_000)
        report = verify_remark24(cases=cases, budget=budget)
        for line in report.lines():
            print(line)
        manifest.add("remark24.ok", "yes" if report.ok else "no")
        manifest.add(
            "budget",
            f"max-nodes={budget.max_nodes} max-seconds={budget.max_seconds}",
        )
        for case in report.cases:
            manifest.add(f"case.{case.case}", f"{case.status} nodes={case.nodes}")
        if any(case.holds is False for case in report.cases):
            return EXIT_INVALID  # a claim failed outright: never expected
        return EXIT_OK if report.ok else EXIT_EXHAUSTED

    if kind == "empty":
        if not args.spec:
            raise _Failure(EXIT_IO, "search empty needs --spec")
        spec = parse_empty_spec(args.spec)
        outcome = enumerate_empty(spec, _budget(args))
        _report_finds(outcome, args.out, "empty", manifest)
        return EXIT_OK if outcome.complete else EXIT_EXHAUSTED

    if kind == "witness":
        if not args.spec:
            raise _Failure(EXIT_IO, "search witness needs --spec")
        spec = parse_witness_spec(args.spec)
        outcome = search_witness(spec, _budget(args))
        manifest.add("nodes", outcome.nodes)
        for line in outcome.swept:
            manifest.add("swept", line)
        if outcome.map is not None:
            m = outcome.map
            print(
                f"found: vertices={m.vertex_count} edges={m.edge_count} "
                f"faces={len(m.faces)} genus={genus(m)}"
            )
            _write_found([m], args.out, "witness", manifest)
            manifest.add("found", 1)
            return EXIT_OK
        manifest.add("found", 0)
        if outcome.complete:
            print("no such map within the size budget (certified)")
            return EXIT_OK
        print(f"budget exhausted after {outcome.nodes} nodes; existence undecided")
        return EXIT_EXHAUSTED

    # nine-cycle, the last of argparse's choices
    outcome = search_empty_9_cycle(_budget(args), stop_at_first=args.stop_at_first)
    _report_finds(outcome, args.out, "nine-cycle", manifest)
    return EXIT_OK if outcome.maps or outcome.complete else EXIT_EXHAUSTED


def _cmd_export(args, manifest) -> int:
    m = _load(args.file, manifest)
    print("graph-description: ormaps/1")
    print(f"vertices: {m.vertex_count}")
    print(f"edges: {m.edge_count}")
    print(f"faces: {len(m.faces)}")
    print(f"genus: {genus(m)}")
    vertex_of, alpha = m.vertex_of, m.reverse
    for v, rotation in enumerate(m.rotations):
        neighbors = " ".join(str(vertex_of[alpha[d]]) for d in rotation)
        print(f"vertex {v}: neighbors {neighbors}")
    for i, eid in enumerate(sorted(m.edge_ids)):
        u, w = m.endpoints(eid)
        print(f"edge {i}: {u} {w}")
    for f in m.faces:
        verts = " ".join(str(v) for v in walk_vertices(m, f.darts))
        print(f"face {f.index}: size {f.size}; vertices {verts}")
    print("begin-rot")
    sys.stdout.write(emit(m))
    print("end-rot")
    manifest.add("format", args.format)
    return EXIT_OK


# -- argument plumbing ---------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later ``main``.

    It is read-only once built: ``parse_args`` returns a fresh namespace and
    the ``append`` action copies its list, so no call leaks into the next.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--manifest",
        metavar="PATH",
        default=argparse.SUPPRESS,
        help="write the run manifest to PATH instead of stderr",
    )
    parser = argparse.ArgumentParser(
        prog="ormaps",
        description="Analyze, construct, and exhaustively search rotation-system maps.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, helptext, run in [
        ("validate", "structural checks on a .rot file", _cmd_validate),
        ("faces", "facial walk inventory", _cmd_faces),
        ("genus", "orientable genus from the Euler characteristic", _cmd_genus),
        ("dual", "dual simplicity and self-duality", _cmd_dual),
    ]:
        p = sub.add_parser(name, help=helptext, parents=[common])
        p.set_defaults(run=run)
        p.add_argument("file")

    p = sub.add_parser(
        "connectivity", help="vertex connectivity and a minimum cut", parents=[common]
    )
    p.set_defaults(run=_cmd_connectivity)
    p.add_argument("file")
    p.add_argument("--dual", action="store_true", help="analyze the dual instead")

    p = sub.add_parser(
        "check-thresholds", help="face-size guarantees for dual cuts", parents=[common]
    )
    p.set_defaults(run=_cmd_check_thresholds)
    p.add_argument("file")
    p.add_argument("--c", type=int, required=True, help="claimed connectivity")

    p = sub.add_parser("construct", help="run a named construction", parents=[common])
    p.set_defaults(run=_cmd_construct)
    p.add_argument(
        "what",
        choices=["k4-wedge", "zc", "interior-fill", "glue", "insert-cycle", "delta1-witness"],
    )
    p.add_argument("file", nargs="?", help="input map when the construction needs one")
    p.add_argument("other", nargs="?", help="second input map (glue)")
    p.add_argument("--c", type=int, help="connectivity parameter")
    p.add_argument("--l", type=int, help="inner cycle length (interior-fill)")
    p.add_argument("--face", type=int, help="face index in the (first) input")
    p.add_argument("--face-b", type=int, help="face index in the second input (glue)")
    p.add_argument("--offset", type=int, help="alignment offset (glue)")
    p.add_argument("--mirror", action="store_true", help="flip the alignment (glue)")
    p.add_argument("--triangles", help="comma-separated triangle face indices (insert-cycle)")
    p.add_argument("--pivots", help="comma-separated pivot vertices (insert-cycle)")
    p.add_argument(
        "--ingredient",
        action="append",
        metavar="FILE",
        help="ingredient map for delta1-witness (repeatable)",
    )
    p.add_argument(
        "--triangulation",
        metavar="FILE",
        help="triangular host: thread a 6-cycle and cap it (delta1-witness)",
    )
    p.add_argument("-o", "--out", help="write the result to this .rot file")

    p = sub.add_parser("search", help="exhaustive searches with budgets", parents=[common])
    p.set_defaults(run=_cmd_search)
    p.add_argument("kind", choices=["empty", "witness", "remark24", "nine-cycle"])
    p.add_argument("--spec", help="declarative search spec (see README)")
    p.add_argument(
        "--case",
        action="append",
        choices=CASE_LABELS,
        help="restrict remark24 to these cases (repeatable)",
    )
    p.add_argument("--max-nodes", type=int, help="stop after this many search nodes")
    p.add_argument("--max-seconds", type=float, help="stop after this much wall time")
    p.add_argument("--stop-at-first", action="store_true", help="nine-cycle: stop at first hit")
    p.add_argument("-o", "--out", metavar="DIR", help="write found maps into this directory")

    p = sub.add_parser(
        "export", help="emit a generic labeled-graph description", parents=[common]
    )
    p.set_defaults(run=_cmd_export)
    p.add_argument("file")
    p.add_argument("--format", choices=["graph-description"], required=True)

    return parser


def _fail(manifest: _Manifest, message: str, code: int) -> int:
    """Report an error on stderr and in the manifest; return its exit code."""
    print(f"error: {message}", file=sys.stderr)
    manifest.add("outcome", "error")
    manifest.add("error", message)
    return code


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_IO
    manifest_path = getattr(args, "manifest", None)

    manifest = _Manifest(args.command)
    manifest.add("argv", " ".join(argv))
    started = time.perf_counter()
    try:
        code = args.run(args, manifest)
    except _Failure as exc:
        code = _fail(manifest, str(exc), exc.code)
    except ValueError as exc:  # RotParseError, SurgeryError, SearchError
        code = _fail(manifest, str(exc), EXIT_INVALID)
    except RuntimeError as exc:  # a broken library invariant, not bad input
        code = _fail(manifest, f"internal: {exc}", EXIT_INTERNAL)
    else:
        manifest.add(
            "outcome",
            {EXIT_OK: "ok", EXIT_EXHAUSTED: "exhausted"}.get(code, "error"),
        )
    manifest.add("seconds", f"{time.perf_counter() - started:.3f}")
    manifest.add("exit-code", code)
    try:
        manifest.write(manifest_path)
    except OSError as exc:
        print(f"error: cannot write manifest: {exc}", file=sys.stderr)
        return EXIT_IO
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
