"""CLI behaviour: exit codes, artifact files, determinism."""

from __future__ import annotations

from pathlib import Path

import pytest

from citeflow.cli import main


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def _compute(fix7_files, out_dir, *extra) -> int:
    nodes, edges, membership = fix7_files
    return main(
        [
            "compute",
            "--nodes", str(nodes),
            "--edges", str(edges),
            "--membership", str(membership),
            "--out", str(out_dir),
            *extra,
        ]
    )


class TestValidate:
    def test_fix7_passes(self, fix7_files, capsys):
        nodes, edges, membership = fix7_files
        code = main(
            ["validate", "--nodes", str(nodes), "--edges", str(edges),
             "--membership", str(membership)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "nodes: 7" in out
        assert "edges: 8" in out

    def test_unknown_edge_id_exits_2(self, fix7_files, tmp_path):
        nodes, _, membership = fix7_files
        bad = tmp_path / "bad_edges.csv"
        bad.write_text("citing,cited\n1,zzz\n", encoding="utf-8")
        code = main(
            ["validate", "--nodes", str(nodes), "--edges", str(bad),
             "--membership", str(membership)]
        )
        assert code == 2

    def test_empty_nodes_exits_2(self, fix7_files, tmp_path):
        _, edges, membership = fix7_files
        empty = tmp_path / "empty_nodes.csv"
        empty.write_text("id,year,month\n", encoding="utf-8")
        code = main(
            ["validate", "--nodes", str(empty), "--edges", str(edges),
             "--membership", str(membership)]
        )
        assert code == 2

    def test_missing_file_exits_2(self, fix7_files, tmp_path):
        _, edges, membership = fix7_files
        code = main(
            ["validate", "--nodes", str(tmp_path / "nope.csv"),
             "--edges", str(edges), "--membership", str(membership)]
        )
        assert code == 2


class TestCompute:
    def test_writes_all_artifacts(self, fix7_files, tmp_path):
        out = tmp_path / "out"
        assert _compute(fix7_files, out) == 0
        expected = {
            "F.csv", "F0.csv", "M_1.csv", "M_2.csv", "M_3.csv",
            "contributions.csv", "E.csv", "fhat.csv", "summary.csv",
            "r.csv", "communities.csv", "betweenness.csv", "rao.csv",
            "positive.dot", "negative.dot", "contributions.svg",
        }
        assert {p.name for p in out.iterdir()} == expected

    def test_contribution_shares_are_printed_verbatim(self, fix7_files, tmp_path):
        out = tmp_path / "out"
        _compute(fix7_files, out)
        text = _read(out / "contributions.csv")
        assert "0.555555555556" in text
        assert "0.333333333333" in text
        assert "0.111111111111" in text

    def test_flow_csv_contains_fix7_values(self, fix7_files, tmp_path):
        out = tmp_path / "out"
        _compute(fix7_files, out)
        lines = _read(out / "F.csv").splitlines()
        assert lines[0] == "discipline,X,Y,Z"
        assert lines[1] == "X,4.25,1.75,3"

    def test_max_order_one_truncates(self, fix7_files, tmp_path):
        out = tmp_path / "out"
        _compute(fix7_files, out, "--max-order", "1")
        order_files = sorted(p.name for p in out.iterdir() if p.name.startswith("M_"))
        assert order_files == ["M_1.csv"]
        lines = _read(out / "r.csv").splitlines()
        assert lines[1] == "1,2"  # order-limited dependence of node 1

    def test_repeat_runs_are_byte_identical(self, fix7_files, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        _compute(fix7_files, out1)
        _compute(fix7_files, out2)
        assert _tree_bytes(out1) == _tree_bytes(out2)

    def test_thread_counts_are_byte_identical(self, fix7_files, tmp_path):
        out1, out2 = tmp_path / "t1", tmp_path / "t8"
        _compute(fix7_files, out1, "--threads", "1")
        _compute(fix7_files, out2, "--threads", "8")
        assert _tree_bytes(out1) == _tree_bytes(out2)

    def test_env_threads_fallback(self, fix7_files, tmp_path, monkeypatch):
        monkeypatch.setenv("CITEFLOW_THREADS", "3")
        out = tmp_path / "env"
        assert _compute(fix7_files, out) == 0

    @pytest.mark.parametrize(("extra", "files"), [((), 16), (("--max-order", "1"), 14)])
    def test_logged_file_count_matches_out_dir(
        self, fix7_files, tmp_path, capsys, extra, files
    ):
        out = tmp_path / "out"
        assert _compute(fix7_files, out, *extra) == 0
        assert len(list(out.iterdir())) == files
        assert f"wrote {files} files" in capsys.readouterr().err

    def test_bad_percentiles_exit_2(self, fix7_files, tmp_path):
        code = _compute(fix7_files, tmp_path / "x", "--hi-pct", "10", "--lo-pct", "90")
        assert code == 2

    def test_unwritable_out_dir_exits_2(self, fix7_files, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory", encoding="utf-8")
        assert _compute(fix7_files, blocker) == 2

    def test_zero_max_order_rejected_by_parser(self, fix7_files, tmp_path):
        with pytest.raises(SystemExit) as err:
            _compute(fix7_files, tmp_path / "x", "--max-order", "0")
        assert err.value.code == 2


class TestMalformedInput:
    """Bad input exits 2 with the line number and no traceback."""

    @pytest.mark.parametrize(
        ("index", "text"),
        [
            (0, "id,year,month\n1,2016," + "9" * 140_000 + "\n"),
            (1, "citing,cited\n1," + "x" * 140_000 + "\n"),
            (2, "id,discipline,weight\n1," + "X" * 140_000 + ",1\n"),
            (0, "id,year,month\na,99999999999999999999,1\n"),
        ],
        ids=["long-month", "long-cited", "long-discipline", "year-beyond-int64"],
    )
    def test_exits_2_with_line_number(self, fix7_files, tmp_path, capsys, index, text):
        files = list(fix7_files)
        files[index] = tmp_path / "bad.csv"
        files[index].write_text(text, encoding="utf-8")
        assert _compute(files, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "line 2" in err
        assert "Traceback" not in err


class TestSynth:
    def test_round_trips_through_validate(self, tmp_path):
        out = tmp_path / "synth"
        code = main(
            ["synth", "--n", "7", "--m", "8", "--k", "3", "--seed", "1",
             "--out", str(out)]
        )
        assert code == 0
        code = main(
            ["validate", "--nodes", str(out / "nodes.csv"),
             "--edges", str(out / "edges.csv"),
             "--membership", str(out / "membership.csv")]
        )
        assert code == 0

    def test_single_node_dataset(self, tmp_path):
        out = tmp_path / "one"
        code = main(
            ["synth", "--n", "1", "--m", "0", "--k", "1", "--seed", "0",
             "--out", str(out)]
        )
        assert code == 0
        assert _read(out / "nodes.csv").count("\n") == 2
        assert _read(out / "edges.csv") == "citing,cited\n"

    def test_same_flags_are_byte_identical(self, tmp_path):
        args = ["synth", "--n", "50", "--m", "120", "--k", "4", "--seed", "9"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")

    def test_invalid_flags_exit_2(self, tmp_path):
        code = main(
            ["synth", "--n", "3", "--m", "99", "--k", "1", "--seed", "0",
             "--out", str(tmp_path / "bad")]
        )
        assert code == 2

    def test_synth_output_computes(self, tmp_path):
        data = tmp_path / "data"
        main(["synth", "--n", "40", "--m", "100", "--k", "3", "--seed", "5",
              "--out", str(data)])
        code = main(
            ["compute", "--nodes", str(data / "nodes.csv"),
             "--edges", str(data / "edges.csv"),
             "--membership", str(data / "membership.csv"),
             "--out", str(tmp_path / "result")]
        )
        assert code == 0
        assert (tmp_path / "result" / "F.csv").exists()
