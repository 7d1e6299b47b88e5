"""End-to-end tests for the command-line interface."""

import argparse
import ast
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import ormaps
from ormaps.cli import _self_dual, main
from ormaps.core import ValidationReport, canonical_code, emit, parse
from ormaps.dual import dual
from ormaps.search import enumerate_connected_maps, triangular_complete_map
from ormaps.surgery import delete_vertex, k4_wedge, stacked_triangulation, wheel

from conftest import make_cube


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def clobber_after(monkeypatch, target, replacement, *methods):
    """Make each ``Path`` method named overwrite ``target`` with ``replacement``
    right after it has read or written it, as a concurrent writer might."""
    for name in methods:
        def wrapper(self, *args, _method=getattr(Path, name), **kwargs):
            result = _method(self, *args, **kwargs)
            if self == target:
                with open(target, "wb") as handle:
                    handle.write(replacement)
            return result

        monkeypatch.setattr(Path, name, wrapper)


@pytest.fixture(scope="module")
def rot_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("rot")
    (d / "tetrahedron.rot").write_text(emit(triangular_complete_map(4)))
    (d / "k4wedge.rot").write_text(emit(k4_wedge()))
    (d / "k6torus.rot").write_text(emit(delete_vertex(triangular_complete_map(7), 0)))
    return d


class TestBindingOutputs:
    def test_dual_of_the_tetrahedron(self, capsys, rot_dir):
        code, out, _ = run_cli(capsys, "dual", str(rot_dir / "tetrahedron.rot"))
        assert code == 0
        assert out.splitlines()[0] == "simple; self-dual: yes"

    def test_dual_of_the_plane_four_cycle_is_a_multigraph(self, capsys, tmp_path):
        path = tmp_path / "c4.rot"
        path.write_text("vertices: 4\n1: 2 4\n2: 3 1\n3: 4 2\n4: 1 3\n")
        code, out, _ = run_cli(capsys, "dual", str(path))
        assert code == 0
        assert out.splitlines() == ["multi; self-dual: no", "multi pair: f4#0 f4#1"]

    def test_self_dual_shortcut_matches_the_three_codes(self):
        # unequal degree and face-size multisets answer "no" without a code;
        # the full comparison is the oracle
        maps = enumerate_connected_maps(6)
        answers = set()
        for m in maps:
            d = dual(m).dual
            code = canonical_code(m)
            full = canonical_code(d) == code or canonical_code(d.mirror()) == code
            assert _self_dual(m, d) == full
            answers.add(full)
        assert answers == {True, False}

    def test_dual_connectivity_of_the_wedge(self, capsys, rot_dir):
        code, out, _ = run_cli(
            capsys, "connectivity", str(rot_dir / "k4wedge.rot"), "--dual"
        )
        assert code == 0
        assert out.splitlines()[-1] == "kappa(dual)=1; cut={f6}"

    def test_genus_of_the_toroidal_k6(self, capsys, rot_dir):
        code, out, _ = run_cli(capsys, "genus", str(rot_dir / "k6torus.rot"))
        assert code == 0
        assert out.strip() == "1"

    def test_python_dash_m_runs_the_tool(self, rot_dir):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-m", "ormaps", "genus", str(rot_dir / "k6torus.rot")],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "1"


def separates(adj, cut):
    """Whether deleting ``cut`` leaves at least two components."""
    rest = [v for v in range(len(adj)) if v not in cut]
    seen = {rest[0]}
    stack = [rest[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in cut and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) < len(rest)


class TestConnectivityAtScale:
    # listing the C(796, 3) vertex triples of the dual would take hours
    @pytest.mark.parametrize("on_dual", [False, True], ids=["primal", "dual"])
    def test_stacked_triangulation_on_400_vertices(self, capsys, tmp_path, on_dual):
        m = stacked_triangulation(400)
        path = tmp_path / "stack400.rot"
        path.write_text(emit(m))
        argv = ["connectivity", str(path)] + (["--dual"] if on_dual else [])
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        match = re.fullmatch(r"kappa(?:\(dual\))?=3; cut=\{(.*)\}", out.strip())
        assert match, out
        if on_dual:
            adj = dual(m).dual.adjacency
            sizes = [f.size for f in m.faces]
            cut = {
                int(label.split("#")[1]) if "#" in label else sizes.index(int(label[1:]))
                for label in match.group(1).split(",")
            }
        else:
            adj = m.adjacency
            cut = {int(v) for v in match.group(1).split(",")}
        assert len(cut) == 3
        assert separates(adj, cut)


class TestExitCodes:
    def test_missing_file_is_an_io_error(self, capsys, rot_dir):
        code, _, err = run_cli(capsys, "genus", str(rot_dir / "nope.rot"))
        assert code == 1
        assert "error:" in err

    def test_unparseable_file_is_invalid(self, capsys, tmp_path):
        bad = tmp_path / "bad.rot"
        bad.write_text("this is not a rotation file\n")
        code, _, err = run_cli(capsys, "genus", str(bad))
        assert code == 2

    def test_undecodable_file_is_invalid(self, capsys, tmp_path):
        bad = tmp_path / "bad.rot"
        bad.write_bytes(b"vertices: 1\n1: 1 1 \xff\n")
        code, _, err = run_cli(capsys, "genus", str(bad))
        assert code == 2
        assert err.startswith("error: ")
        assert "input: " not in err

    def test_unknown_spec_key_is_invalid(self, capsys):
        code, _, err = run_cli(capsys, "search", "empty", "--spec", "k=6; zz=1")
        assert code == 2
        assert "zz" in err

    @pytest.mark.parametrize(
        "kind, text, key",
        [
            ("witness", "c=2; pair-sum=7; max-vertices=-3", "max-vertices"),
            ("empty", "k=6; max-vertices=-1", "max-vertices"),
        ],
    )
    def test_negative_spec_bound_is_invalid(self, capsys, kind, text, key):
        code, out, err = run_cli(capsys, "search", kind, "--spec", text)
        assert code == 2
        assert key in err and "negative" in err
        assert "certified" not in out and "complete" not in out

    @pytest.mark.parametrize(
        "flag, value, key",
        [("--max-nodes", "-5", "max-nodes"), ("--max-seconds", "-1", "max-seconds")],
    )
    def test_negative_budget_is_invalid(self, capsys, flag, value, key):
        code, out, err = run_cli(
            capsys, "search", "empty", "--spec", "k=3; mode=circuit", flag, value
        )
        assert code == 2
        assert key in err and "negative" in err
        assert "complete" not in out

    def test_nan_seconds_is_invalid(self, capsys):
        code, out, err = run_cli(
            capsys, "search", "empty", "--spec", "k=3; mode=circuit", "--max-seconds", "nan"
        )
        assert code == 2
        assert "max-seconds" in err and "NaN" in err
        assert "complete" not in out

    def test_budget_exhaustion_is_exit_three(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "remark24", "--case", "viii", "--max-nodes", "2000"
        )
        assert code == 3
        assert "exhausted" in out

    def test_usage_error_is_exit_one(self, capsys):
        assert run_cli(capsys, "no-such-command")[0] == 1
        assert run_cli(capsys)[0] == 1

    def test_help_is_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "ormaps" in out

    def test_failed_precondition_is_invalid(self, capsys, rot_dir):
        # the wedge has a cut vertex, so it is not 2-connected
        code, _, err = run_cli(
            capsys, "check-thresholds", str(rot_dir / "k4wedge.rot"), "--c", "2"
        )
        assert code == 2
        assert "connected" in err


class TestValidate:
    def test_valid_map_summary(self, capsys, rot_dir):
        code, out, _ = run_cli(capsys, "validate", str(rot_dir / "k6torus.rot"))
        assert code == 0
        assert out.startswith("ok: vertices=6 edges=15 faces=9 genus=1")

    def test_invalid_map_lists_problems(self, capsys, tmp_path):
        # two disconnected triangles in one file
        broken = tmp_path / "broken.rot"
        broken.write_text(
            "vertices: 6\n"
            "1: 2 3\n2: 3 1\n3: 1 2\n"
            "4: 5 6\n5: 6 4\n6: 4 5\n"
        )
        code, out, _ = run_cli(capsys, "validate", str(broken))
        assert code == 2
        assert "problem:" in out


class TestThresholdCommand:
    def test_tetrahedron_thresholds(self, capsys, rot_dir):
        code, out, _ = run_cli(
            capsys, "check-thresholds", str(rot_dir / "tetrahedron.rot"), "--c", "3"
        )
        assert code == 0
        lines = out.splitlines()
        assert "min1f(3)=9; one-cut-guarantee=yes" in lines
        assert "min2f(3)=10; two-cut-guarantee=yes" in lines
        assert "cross-check: pass" in lines
        assert any(line.startswith("kappa(dual)=") for line in lines)


class TestConstruct:
    def test_wedge_written_to_disk_parses_back(self, capsys, tmp_path):
        out_file = tmp_path / "w.rot"
        code, out, _ = run_cli(capsys, "construct", "k4-wedge", "-o", str(out_file))
        assert code == 0
        m = parse(out_file.read_text())
        assert canonical_code(m) == canonical_code(k4_wedge())

    def test_witness_report_lines_are_printed(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "delta1-witness", "--c", "1")
        assert code == 0
        assert "dual: simple, cut vertex at the big face" in out
        assert "checks: passed" in out

    def test_glue_of_two_tetrahedra(self, capsys, rot_dir, tmp_path):
        out_file = tmp_path / "glued.rot"
        tetra = str(rot_dir / "tetrahedron.rot")
        code, out, _ = run_cli(
            capsys, "construct", "glue", tetra, tetra, "-o", str(out_file)
        )
        assert code == 0
        m = parse(out_file.read_text())
        assert (m.vertex_count, m.edge_count) == (5, 9)

    @pytest.mark.parametrize(
        "half", [["--triangles", "1,19,34,43,53,59"], ["--pivots", "0,32,15,9,21,30"]]
    )
    def test_half_given_placement_is_usage_error(self, capsys, tmp_path, half):
        host = tmp_path / "stack33.rot"
        host.write_text(emit(stacked_triangulation(33)))
        code, out, err = run_cli(capsys, "construct", "insert-cycle", str(host), *half)
        assert code == 1
        assert out == ""
        assert "error: give both triangles and pivots, or neither" in err

    def test_triangulation_witness_is_certified_at_the_given_connectivity(
        self, capsys, tmp_path
    ):
        host = tmp_path / "stack33.rot"
        host.write_text(emit(stacked_triangulation(33)))
        code, out, err = run_cli(
            capsys, "construct", "delta1-witness", "--c", "4", "--triangulation", str(host)
        )
        assert code == 2
        assert out == ""
        assert "last attempt: connectivity 3, expected 4" in err

    def test_missing_parameter_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "construct", "zc")
        assert code == 1
        assert "--c" in err


class TestSearchCommands:
    def test_certified_empty_search(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "empty", "--spec", "k=3; constraints=distinct-neighbors"
        )
        assert code == 0
        assert "found: 0; complete: yes" in out

    def test_found_maps_written_to_directory(self, capsys, tmp_path):
        out_dir = tmp_path / "found"
        code, out, _ = run_cli(
            capsys,
            "search", "empty",
            "--spec", "k=6; mode=pair; constraints=distinct-neighbors",
            "--out", str(out_dir),
        )
        assert code == 0
        files = sorted(out_dir.glob("*.rot"))
        assert len(files) == 4
        for f in files:
            m = parse(f.read_text())
            assert m.vertex_count == 6

    def test_pair_search_with_disjoint_walks_exits_zero(self, capsys):
        # some completions leave the two walks unjoined; they are dropped
        code, out, _ = run_cli(
            capsys, "search", "empty", "--spec", "k=6; mode=pair; max-edges=7"
        )
        assert code == 0
        assert "found: 4; complete: yes" in out

    def test_incomplete_search_is_exit_three(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "search", "empty",
            "--spec", "k=7; constraints=single-neighbor,min-faces:3",
            "--max-nodes", "1500",
        )
        assert code == 3
        assert "complete: no" in out

    def test_remark24_fast_cases_certify(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "remark24", "--case", "i", "--case", "iv"
        )
        assert code == 0
        assert out.count("holds [certified]") == 2

    def test_remark24_applies_a_default_node_budget(self, capsys):
        _, _, err = run_cli(capsys, "search", "remark24", "--case", "i")
        assert "budget: max-nodes=20000000" in err

    def test_witness_search_finds_the_small_example(self, capsys, tmp_path):
        out_dir = tmp_path / "wit"
        code, out, _ = run_cli(
            capsys,
            "search", "witness",
            "--spec", "c=2; pair-sum=7; dual=simple,has-2-cut; pair=shares-two-vertices",
            "--out", str(out_dir),
        )
        assert code == 0
        assert "found: vertices=6 edges=11" in out
        assert len(list(out_dir.glob("*.rot"))) == 1

    def test_witness_complement_is_certified_empty(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "search", "witness",
            "--spec", "c=2; pair-sum=6; dual=simple,has-2-cut; pair=shares-two-vertices",
        )
        assert code == 0
        assert "certified" in out


    def test_witness_search_out_of_budget_is_exit_three(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        code, out, _ = run_cli(
            capsys,
            "search", "witness",
            "--spec", "c=3; pair-sum=8; dual=simple,has-2-cut; pair=shares-two-vertices; "
            "max-vertices=7; max-edges=18",
            "--max-nodes", "1000",
            "--manifest", str(path),
        )
        assert code == 3
        assert out == "budget exhausted after 1001 nodes; existence undecided\n"
        assert "swept: budget exhausted" in path.read_text().splitlines()


class TestExport:
    def test_round_trip_through_the_embedded_block(self, capsys, rot_dir):
        code, out, _ = run_cli(
            capsys, "export", str(rot_dir / "k6torus.rot"),
            "--format", "graph-description",
        )
        assert code == 0
        body = out[out.index("begin-rot") + len("begin-rot") : out.index("end-rot")]
        m = parse(body)
        original = parse((rot_dir / "k6torus.rot").read_text())
        assert canonical_code(m) == canonical_code(original)

    def test_description_counts_match(self, capsys, rot_dir):
        code, out, _ = run_cli(
            capsys, "export", str(rot_dir / "tetrahedron.rot"),
            "--format", "graph-description",
        )
        lines = out.splitlines()
        assert "vertices: 4" in lines
        assert "edges: 6" in lines
        assert sum(1 for line in lines if line.startswith("edge ")) == 6
        assert sum(1 for line in lines if line.startswith("face ")) == 4

    def test_wedge_export_lists_its_hexagon(self, capsys, rot_dir):
        _, out, _ = run_cli(
            capsys, "export", str(rot_dir / "k4wedge.rot"),
            "--format", "graph-description",
        )
        assert any(
            line.startswith("face ") and "size 6" in line
            for line in out.splitlines()
        )


class TestManifest:
    def test_manifest_is_machine_parseable(self, capsys, rot_dir, tmp_path):
        path = tmp_path / "m.txt"
        code, _, err = run_cli(
            capsys, "genus", str(rot_dir / "k6torus.rot"), "--manifest", str(path)
        )
        assert code == 0
        assert err == ""  # redirected away from stderr
        lines = path.read_text().splitlines()
        assert all(re.fullmatch(r"[a-z0-9.-]+: .*", line) for line in lines)
        record = {}
        for line in lines:
            key, _, value = line.partition(": ")
            record.setdefault(key, value)
        assert record["manifest"] == "ormaps/1"
        assert record["command"] == "genus"
        assert record["exit-code"] == "0"
        assert record["outcome"] == "ok"
        assert "sha256=" in record["input"]

    def test_manifest_goes_to_stderr_by_default(self, capsys, rot_dir):
        _, _, err = run_cli(capsys, "genus", str(rot_dir / "k6torus.rot"))
        assert "manifest: ormaps/1" in err
        assert "command: genus" in err

    def test_flag_accepted_before_the_subcommand(self, capsys, rot_dir, tmp_path):
        path = tmp_path / "m.txt"
        code, _, _ = run_cli(
            capsys, "--manifest", str(path), "genus", str(rot_dir / "k6torus.rot")
        )
        assert code == 0
        assert path.exists()

    def test_manifest_written_even_on_failure(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        code, _, _ = run_cli(
            capsys, "genus", str(tmp_path / "nope.rot"), "--manifest", str(path)
        )
        assert code == 1
        assert "outcome: error" in path.read_text()

    def test_input_digest_is_of_the_bytes_parsed(self, capsys, rot_dir, tmp_path, monkeypatch):
        original = (rot_dir / "k6torus.rot").read_bytes()
        path = tmp_path / "k6torus.rot"
        path.write_bytes(original)
        replacement = emit(triangular_complete_map(4)).encode()
        clobber_after(monkeypatch, path, replacement, "read_text", "read_bytes")
        code, out, err = run_cli(capsys, "genus", str(path))
        assert code == 0
        assert out.strip() == "1"
        assert f"input: {path} sha256={hashlib.sha256(original).hexdigest()}" in err.splitlines()

    def test_output_digest_is_of_the_bytes_written(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "wedge.rot"
        clobber_after(monkeypatch, path, b"vertices: 1\n1: 1 1\n", "write_text", "write_bytes")
        code, _, err = run_cli(capsys, "construct", "k4-wedge", "-o", str(path))
        assert code == 0
        digest = hashlib.sha256(emit(k4_wedge()).encode()).hexdigest()
        assert f"output: {path} sha256={digest}" in err.splitlines()

    def test_internal_error_is_exit_four(self, capsys, tmp_path, monkeypatch):
        def broken(spec, budget):
            raise RuntimeError("search produced a broken map")

        monkeypatch.setattr("ormaps.cli.enumerate_empty", broken)
        path = tmp_path / "m.txt"
        code, _, err = run_cli(
            capsys, "search", "empty", "--spec", "k=4", "--manifest", str(path)
        )
        assert code == 4
        assert err == "error: internal: search produced a broken map\n"
        record = path.read_text().splitlines()
        assert "outcome: error" in record
        assert "error: internal: search produced a broken map" in record
        assert "exit-code: 4" in record

    def test_broken_surgery_counts_exit_four(self, capsys, tmp_path, monkeypatch):
        # every assembly comes back as the same 5-vertex wheel, so the
        # wedge's vertex count is off and its postcondition must fire
        monkeypatch.setattr("ormaps.surgery.assemble", lambda rotations, mate: (wheel(4), {}))
        path = tmp_path / "m.txt"
        code, out, err = run_cli(capsys, "construct", "k4-wedge", "--manifest", str(path))
        assert code == 4
        assert out == ""
        assert err.startswith("error: internal: surgery broke its counts")
        record = path.read_text().splitlines()
        assert "outcome: error" in record
        assert "exit-code: 4" in record

    def test_failed_surgery_check_exits_four(self, capsys, tmp_path, monkeypatch):
        # a postcondition that fails must reach the CLI as an internal error,
        # not as a raw AssertionError, and must not vanish under python -O
        monkeypatch.setattr(
            "ormaps.surgery.validate", lambda m: ValidationReport(("forced failure",))
        )
        host = tmp_path / "W6.rot"
        host.write_text(emit(wheel(6)))
        code, out, err = run_cli(
            capsys, "construct", "interior-fill", str(host), "--c", "2", "--l", "3"
        )
        assert code == 4
        assert out == ""
        assert err.startswith("error: internal: interior fill produced an invalid map\n")

    def test_cli_lists_no_vertex_subsets(self):
        # the subset-listing cut search is the tests' oracle, never a CLI path
        tree = ast.parse(Path(ormaps.cli.__file__).read_text())
        names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for alias in node.names}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not names & {"find_cutsets", "cut_inventory"}

    def test_library_has_no_assert_statements(self):
        package = Path(ormaps.__file__).parent
        found = [
            f"{path.name}:{node.lineno}"
            for path in sorted(package.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Assert)
        ]
        assert found == []

    def test_package_exports_match_its_public_names(self):
        public = {
            name
            for name, value in vars(ormaps).items()
            if not name.startswith("_") and not isinstance(value, ModuleType)
        }
        assert ormaps.__all__ == sorted(set(ormaps.__all__))
        assert set(ormaps.__all__) == public


class TestDeterminism:
    def test_identical_runs_produce_identical_stdout(self, capsys):
        args = ("search", "empty", "--spec", "k=6; mode=pair; constraints=distinct-neighbors")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_search_output_reports_node_count(self, capsys):
        _, out, _ = run_cli(
            capsys, "search", "empty", "--spec", "k=4; constraints=distinct-neighbors"
        )
        assert re.search(r"nodes: \d+", out)


class TestRepeatedCalls:
    """``main`` builds its parser once per process; no call may leak into the next."""

    def test_appended_cases_start_empty(self, capsys):
        run_cli(capsys, "search", "remark24", "--case", "i", "--case", "ii")
        _, out, _ = run_cli(capsys, "search", "remark24", "--case", "i")
        assert [line.split(":")[0] for line in out.splitlines()] == ["case i"]

    def test_manifest_path_is_not_remembered(self, capsys, rot_dir, tmp_path):
        path = tmp_path / "m.txt"
        run_cli(capsys, "--manifest", str(path), "genus", str(rot_dir / "k6torus.rot"))
        first = path.read_text()
        _, _, err = run_cli(capsys, "genus", str(rot_dir / "k6torus.rot"))
        assert "manifest: ormaps/1" in err
        assert path.read_text() == first

    def test_help_is_unchanged_by_a_failed_parse(self, capsys):
        _, before, _ = run_cli(capsys, "--help")
        assert run_cli(capsys, "no-such-command")[0] == 1
        _, after, _ = run_cli(capsys, "--help")
        assert after == before

    def test_second_call_builds_no_parser(self, capsys, rot_dir, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        argv = ("genus", str(rot_dir / "k6torus.rot"))
        assert run_cli(capsys, *argv)[0] == 0
        first = len(built)
        assert run_cli(capsys, *argv)[0] == 0
        assert len(built) == first


# -- golden run: every command on a fixed corpus --------------------------------

# argv per command; "@name" stands for corpus file name.rot
GOLDEN_COMMANDS = {
    **{
        f"{command} {name}": [*command.split(), f"@{name}", *extra]
        for name, c in (
            ("tetrahedron", 3),
            ("k4wedge", 1),
            ("k6torus", 5),
            ("wheel6", 3),
            ("cube", 3),
            ("stack12", 3),
            ("loop", 1),
            ("broken", 1),
        )
        for command, extra in (
            ("validate", []),
            ("faces", []),
            ("genus", []),
            ("dual", []),
            ("connectivity", []),
            ("connectivity --dual", []),
            ("check-thresholds", ["--c", str(c)]),
            ("export", ["--format", "graph-description"]),
        )
    },
    "construct k4-wedge": ["construct", "k4-wedge"],
    **{f"construct zc {c}": ["construct", "zc", "--c", str(c)] for c in (3, 4, 5, 6, 7)},
    "construct zc no-c": ["construct", "zc"],
    "construct fill": ["construct", "interior-fill", "@wheel6", "--c", "2", "--l", "3"],
    "construct fill face": [
        "construct", "interior-fill", "@wheel6", "--c", "2", "--l", "3", "--face", "6",
    ],
    "construct fill too-small": ["construct", "interior-fill", "@wheel6", "--c", "3", "--l", "4"],
    "construct fill no-l": ["construct", "interior-fill", "@wheel6", "--c", "3"],
    "construct glue": ["construct", "glue", "@tetrahedron", "@tetrahedron"],
    "construct glue cubes": [
        "construct", "glue", "@cube", "@cube", "--face", "0", "--face-b", "1",
        "--offset", "1", "--mirror",
    ],
    "construct glue mismatch": ["construct", "glue", "@tetrahedron", "@cube"],
    "construct glue range": ["construct", "glue", "@cube", "@cube", "--face-b", "9"],
    "construct glue one-file": ["construct", "glue", "@cube"],
    "construct insert-cycle": ["construct", "insert-cycle", "@stack33"],
    "construct insert-cycle placed": [
        "construct", "insert-cycle", "@stack33",
        "--triangles", "1,19,34,43,53,59", "--pivots", "0,32,15,9,21,30",
    ],
    "construct insert-cycle cube": ["construct", "insert-cycle", "@cube"],
    "construct delta1 1": ["construct", "delta1-witness", "--c", "1"],
    "construct delta1 3": ["construct", "delta1-witness", "--c", "3"],
    "construct delta1 3 given": [
        "construct", "delta1-witness", "--c", "3",
        "--ingredient", "@wheel6", "--ingredient", "@tetrahedron",
    ],
    "construct delta1 5": ["construct", "delta1-witness", "--c", "5"],
    "construct delta1 no-c": ["construct", "delta1-witness"],
    "construct delta1 stack33": [
        "construct", "delta1-witness", "--c", "3", "--triangulation", "@stack33",
    ],
    "construct delta1 cube": [
        "construct", "delta1-witness", "--c", "3", "--triangulation", "@cube",
    ],
    "search empty": [
        "search", "empty", "--spec", "k=5; constraints=distinct-neighbors", "--max-nodes", "5000",
    ],
    "search empty budget": [
        "search", "empty", "--spec", "k=6; mode=pair", "--max-nodes", "300",
    ],
    "search witness": [
        "search", "witness", "--spec",
        "c=2; pair-sum=7; dual=simple,has-2-cut; pair=shares-two-vertices",
        "--max-nodes", "3000",
    ],
    "search nine-cycle": ["search", "nine-cycle", "--max-nodes", "3000"],
    "search remark24 i": ["search", "remark24", "--case", "i", "--max-nodes", "20000"],
}

# SHA-1 of each command's exit code, stdout and manifest (see _golden_record)
GOLDEN_DIGESTS = {
    "check-thresholds broken": "39913a2483c9c7b196b4f62a6b8dec8723345ed6",
    "check-thresholds cube": "afb66c1bb45f4e758da4a903f4e8e94cc8c96085",
    "check-thresholds k4wedge": "50e35ed4eba1a615ecb788967cf82ec42b1515e5",
    "check-thresholds k6torus": "c282218bc574221a1e8c608636f9117b63912443",
    "check-thresholds loop": "15cd845c1cfdf8b80c4c0cf77bb2ee392242780f",
    "check-thresholds stack12": "723ecda1c411309d674a508e44e0f69624c55acd",
    "check-thresholds tetrahedron": "c280aa9d085d5037856d73b72ce68bfad9bd4d19",
    "check-thresholds wheel6": "b2a690b521f71b55f81eb9dc49f4092057dd29b1",
    "connectivity --dual broken": "952fcef8f747b7a8beae940dd0e397ab4a52b14c",
    "connectivity --dual cube": "a893c300afed25c43182ea5df625c74f23cd002d",
    "connectivity --dual k4wedge": "5c2fb0b587a7033722f9ba94592c0f2338953891",
    "connectivity --dual k6torus": "bf89643e82ae406cb4438d2c37b7c484f16db799",
    "connectivity --dual loop": "fd937ba6ae732ca2dcc1846da441043971ddc8cc",
    "connectivity --dual stack12": "0c330ffee9e9b42a013e48e47362453f1a4de53d",
    "connectivity --dual tetrahedron": "2dc42b22b0b8cd100004c46358c08971152a7f30",
    "connectivity --dual wheel6": "86671d82bf0e5cac5b0f0f3263042e30f6c2dcd0",
    "connectivity broken": "852ec01c7d1e8d2b6ded92a4875c93996560b0c1",
    "connectivity cube": "ebb084f3cdc1f6a0d3d0ec3f25cc8b3c2d6b64a1",
    "connectivity k4wedge": "4cfe5d2d5895748d3563f54dc7472e78fc8a8f4c",
    "connectivity k6torus": "219e66c82bd9ac70c2078b28a4d82ab99eb7e33f",
    "connectivity loop": "9ea5f0e748279f2f9a1a555dbbfe28347c7ec312",
    "connectivity stack12": "a8e81d0573668e12486916af8ebdc5b5b5f3ccbe",
    "connectivity tetrahedron": "e116bae181f7cbc6cccedaca920a8a76bd2fdb3d",
    "connectivity wheel6": "b6283a7c09d99fdad1a73367669683e3af0d39bc",
    "construct delta1 1": "259822c25d5a420ebcc6a47815de16c84807c4d8",
    "construct delta1 3": "888fedb0f1e4da1fa4d9cd1d7713e6d6f77101a4",
    "construct delta1 3 given": "4507fdbc9866c375657d64f03142f2983ffeba93",
    "construct delta1 5": "43a95f0f2c5b3cd9cbc1f17d98663934b8571581",
    "construct delta1 cube": "14b09b7d18ce011cb7c339a7c5cd05c57987fa98",
    "construct delta1 no-c": "7b706d655cd262c0f85ae42eff494307010f79f2",
    "construct delta1 stack33": "4bcf210c0726a45466cdd38daf07f1033b8c199e",
    "construct fill": "deaaa4d8df515f878fed9cdd66a4324f74291d3f",
    "construct fill face": "02279d4e3a4bd43475acc2bc89b89eca768b8a89",
    "construct fill no-l": "c42b197fa30686304fe2a80ebcd8734a7f03bba3",
    "construct fill too-small": "39cdd04cfcc1893e46747d11027574bfcc1f354a",
    "construct glue": "82fa1c6d2443d82acbf47d051ce02e2357164973",
    "construct glue cubes": "27b92f4fe130e9bfd194534f25601efc7fbf71bb",
    "construct glue mismatch": "b73f4e1338f5e31cc533245f1bebbfc5223173f2",
    "construct glue one-file": "6437f57cf3ec012987440ffc368227d7bb3aeebe",
    "construct glue range": "cc35a32d162dfee55a71fc154a995c3df155491e",
    "construct insert-cycle": "66ae83606f8f4217d5ee8b13aff71ceaa055d82e",
    "construct insert-cycle cube": "f3f7c1ce73fd24f5a17c2dc849b2c4411c844cca",
    "construct insert-cycle placed": "74bf788f9685e57ea5974876248fd5a24bc2dbcb",
    "construct k4-wedge": "ae5e5b2637735628972b619b5592a6a192ec43f4",
    "construct zc 3": "1559a5b5e0761118e4e5c0f8733aace07fc1c0e4",
    "construct zc 4": "671c025b104517a284f3ad13283c50c6266a6fc4",
    "construct zc 5": "8d4075119688df38d73c112179a84ad229177b19",
    "construct zc 6": "eaf2480092e80401317d58c079bce9593b14c288",
    "construct zc 7": "4ff4e704d7a7d7ac6e785f713798e56a011e4f17",
    "construct zc no-c": "595857d74991b5eed7264746abd5a92a721c5232",
    "dual broken": "01368b4e903e4d5264f67e75d52b97282a9652cb",
    "dual cube": "1ecbec1269aad0ac45e9a8e6eb7e349d9cf436ab",
    "dual k4wedge": "bf74a2af276948cf3a85fdddcba3f8266dde1cdf",
    "dual k6torus": "a4332d8ed392d95ac0a32211db1389c0955ab0e6",
    "dual loop": "3564000834c021e5c43cc5409c8b19fc6e639b86",
    "dual stack12": "20ace51e1991027f3848af20f35f20383f32cc61",
    "dual tetrahedron": "e45422bac405b5a4defd3befc491975bb877402a",
    "dual wheel6": "1c96e182ef1b12b7312c51d472ca436605cb8846",
    "export broken": "dffd1138cc5f614a89a4adf1d49aea3a3aaf126b",
    "export cube": "aaf067ee7925c06fe7be95e1425b98f9263677fe",
    "export k4wedge": "b852a170bae1fa9132d845fba55665e2d0d65041",
    "export k6torus": "7e2df49a8504cb05add8e3c97bc6a1fbcb0886a0",
    "export loop": "c5178b81fab31b05be3f8e38654f6ee781eeb489",
    "export stack12": "c1fe246f679acb43524bd9d441233a4f289b2eae",
    "export tetrahedron": "7dd4aee8c7bd5704463e492a65ec58b0ea0b6d39",
    "export wheel6": "53fed29ca0f5eebc6da88a3993d648985f504f0b",
    "faces broken": "2af747beefdc014021d9bf2f61c24789e82f15ad",
    "faces cube": "63df331c7da675f2408fc614d4c011d94107a967",
    "faces k4wedge": "57634594442fef3ce3abd4bec1c2cb6aba2d3ef3",
    "faces k6torus": "c5f7543d2b850dcee7b688f2b6467ca868254c82",
    "faces loop": "b11f3471aa8335794e02dd1592d1f88da5345518",
    "faces stack12": "a49cd897a24aec4459adef2d3457f83a2d6661b4",
    "faces tetrahedron": "4f0c837e9629ebca771025b33a57ae8228ee6f0f",
    "faces wheel6": "4b5d6cbfb1f18d638bfd29e1a4375d9b3f9ea9d2",
    "genus broken": "87d7f756954f151e05163c491db50a3867d0a4da",
    "genus cube": "5bf60671d8c71b6d776d8022e253cd9f2e467208",
    "genus k4wedge": "e15fbb4a9008041b643c952eced78280fc575660",
    "genus k6torus": "50de5f76a9ba38f2ba062685dd695d18fd9142e9",
    "genus loop": "fad4dd1056a45ca09fdf1a9f96be66342b39cd75",
    "genus stack12": "2c042070c03c5c695d66071093db1e3478e16881",
    "genus tetrahedron": "2547c78a2ed9f6e5487b499522935a397eabb8fa",
    "genus wheel6": "bb86b04c77c7384e9e54f56a538ce1b422731933",
    "search empty": "1397ab36c005a7adcc982a796499196825a09459",
    "search empty budget": "97311fe2ff79e4738916446652c8d32a6a6a8fca",
    "search nine-cycle": "ee285789dbd7486b7edf42151a2c16d4c636ee6e",
    "search remark24 i": "526cba57cd16ea8206735043e768eca473b5f7ff",
    "search witness": "322ddb7729e4ccc211ca4d0e122d9d2a6aaa5f97",
    "validate broken": "f042b38bb05ce9e1e876379d49ec88663a1ac4b3",
    "validate cube": "79f397c96432f7b3052375052c405da2edbe0101",
    "validate k4wedge": "0c9091df24cedf1ce3e4dcadae99561efc556dba",
    "validate k6torus": "86d13403d91563e321f753dc39075a25f40b0a39",
    "validate loop": "82ad644727e51fd1228814065dcc9d2d97bfd17e",
    "validate stack12": "7545df009e47d385be1dcdc4b72d3d745b76158d",
    "validate tetrahedron": "0f194cbc8dda16bee4e84719759321c0bea8dab6",
    "validate wheel6": "8e2605a03654b971c6f36fb722bbb0141b5ef0c3",
}


@pytest.fixture(scope="module")
def golden_corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    for name, m in (
        ("tetrahedron", triangular_complete_map(4)),
        ("k4wedge", k4_wedge()),
        ("k6torus", delete_vertex(triangular_complete_map(7), 0)),
        ("wheel6", wheel(6)),
        ("cube", make_cube()),
        ("stack12", stacked_triangulation(12)),
        ("stack33", stacked_triangulation(33)),
    ):
        (d / f"{name}.rot").write_text(emit(m))
    (d / "loop.rot").write_text("vertices: 2\n1: 1 2 1\n2: 1\n")
    (d / "broken.rot").write_text("vertices: 3\n1: 2\n2: 1\n3: 3\n")
    return d


def _golden_record(capsys, corpus, argv) -> str:
    """Exit code, stdout and manifest minus seconds:, with the corpus path masked."""
    manifest = corpus / "manifest.txt"
    manifest.unlink(missing_ok=True)
    argv = [str(corpus / f"{w[1:]}.rot") if w.startswith("@") else w for w in argv]
    code = main(argv + ["--manifest", str(manifest)])
    out = capsys.readouterr().out
    record = manifest.read_text() if manifest.exists() else "no manifest\n"
    kept = [line for line in record.splitlines() if not line.startswith("seconds:")]
    text = f"exit: {code}\n{out}" + "\n".join(kept)
    return text.replace(str(corpus), "<corpus>")


@pytest.mark.golden
@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_run(capsys, golden_corpus, name):
    text = _golden_record(capsys, golden_corpus, GOLDEN_COMMANDS[name])
    assert hashlib.sha1(text.encode()).hexdigest() == GOLDEN_DIGESTS[name], text
