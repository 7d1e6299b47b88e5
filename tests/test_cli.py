"""End-to-end tests for the command-line interface."""

import re

import pytest

from ormaps.cli import main
from ormaps.core import canonical_code, emit, parse
from ormaps.search import triangular_complete_map
from ormaps.surgery import delete_vertex, k4_wedge


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_unknown_spec_key_is_invalid(self, capsys):
        code, _, err = run_cli(capsys, "search", "empty", "--spec", "k=6; zz=1")
        assert code == 2
        assert "zz" in err

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
