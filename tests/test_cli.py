"""CLI behaviour: exit codes, artifact files, determinism."""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citeflow import cli, dependence
from citeflow.cli import _field_table, _number_column, _write_gathered, _write_table, main
from conftest import EDGES_CSV, MEMBERSHIP_CSV, MUTATIONS, NODES_CSV, mutate_line


ROOT = Path(__file__).resolve().parents[1]


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


# The writer that every table went through before ``_write_table`` and
# ``_write_gathered``, kept as the oracle of their format: one
# ``csv.writer`` row at a time. Rows are quoted as for a "\r\n"
# terminator, so that a lone "\r" is quoted too, and end in "\n".
def _fmt(x) -> str:
    v = float(x)
    if v == 0.0:
        v = 0.0  # canonical zero, never "-0"
    return f"{v:.12g}"


def _write_rows(path: Path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for row in rows:
            buffer = io.StringIO()
            csv.writer(buffer, lineterminator="\r\n").writerow(row)
            fh.write(buffer.getvalue()[:-2] + "\n")


def _matrix_rows(labels, matrix):
    yield ["discipline", *labels]
    for label, row in zip(labels, np.asarray(matrix)):
        yield [label, *(_fmt(x) for x in row)]


# Text fields with every character the csv module may quote for, and a
# few it must leave alone (inner spaces, a non-ASCII letter, a BOM).
_FIELDS = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "\u00e9", "\ufeff", "a"]),
                  max_size=5)
_FLOATS = st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan]
) | st.floats() | st.integers(-(10**6), 10**6).map(float)
# Years, months, orders and community numbers, printed with str before.
_INTEGERS = st.integers(-(10**12) + 1, 10**12 - 1)


def _table_bytes(tmp_path: Path, write, *args) -> bytes:
    path = tmp_path / "table.csv"
    write(path, *args)
    return path.read_bytes()


class TestWriteTable:
    """``_write_table`` and ``_write_gathered`` write what the csv-module
    oracle writes, byte for byte."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_the_oracle(self, data):
        rows = data.draw(st.integers(0, 4), label="rows")
        text_count = data.draw(st.integers(0, 3), label="text columns")
        integer_columns = data.draw(
            st.lists(st.booleans(), min_size=max(0, 2 - text_count), max_size=3),
            label="integer columns",
        )
        header = data.draw(
            st.lists(_FIELDS, min_size=text_count + len(integer_columns),
                     max_size=text_count + len(integer_columns)),
            label="header",
        )
        # Each text column is drawn as a few strings and an index that
        # picks, with repeats, the string of each row.
        distinct = [
            data.draw(st.lists(_FIELDS, min_size=1, max_size=4))
            for _ in range(text_count)
        ]
        indices = [
            np.array(data.draw(st.lists(st.integers(0, len(strings) - 1),
                                        min_size=rows, max_size=rows)), dtype=np.intp)
            for strings in distinct
        ]
        texts = [[strings[i] for i in index] for strings, index in zip(distinct, indices)]
        numbers = [
            data.draw(st.lists(_INTEGERS if is_int else _FLOATS,
                               min_size=rows, max_size=rows))
            for is_int in integer_columns
        ]
        printed = [
            [str(x) if is_int else _fmt(x) for x in column]
            for is_int, column in zip(integer_columns, numbers)
        ]
        oracle = [header, *(list(row) for row in zip(*texts, *printed))]
        array = np.array(numbers, dtype=np.float64).reshape(len(numbers), rows).T
        columns = [(_field_table(strings), index)
                   for strings, index in zip(distinct, indices)]
        columns += [_number_column(column) for column in array.T]
        block = data.draw(st.integers(1, 3), label="rows per block")
        with (tempfile.TemporaryDirectory() as tmp,
              mock.patch("citeflow.cli._BLOCK_ROWS", block)):
            expected = _table_bytes(Path(tmp), _write_rows, oracle)
            assert _table_bytes(Path(tmp), _write_table, header, texts, array) == expected
            assert _table_bytes(Path(tmp), _write_gathered, header, columns) == expected

    @given(
        labels=st.lists(_FIELDS, min_size=1, max_size=4),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_matrix_matches_the_oracle(self, labels, data):
        k = len(labels)
        cells = data.draw(st.lists(_FLOATS, min_size=k * k, max_size=k * k))
        matrix = np.array(cells, dtype=np.float64).reshape(k, k)
        with tempfile.TemporaryDirectory() as tmp:
            table = _table_bytes(
                Path(tmp), _write_table, ["discipline", *labels], [labels], matrix
            )
            assert table == _table_bytes(
                Path(tmp), _write_rows, _matrix_rows(labels, matrix)
            )

    def test_edgeless_graph_has_no_contribution_rows(self, fix7_files, tmp_path):
        edges = tmp_path / "edgeless.csv"
        edges.write_text("citing,cited\n", encoding="utf-8")
        out = tmp_path / "out"
        assert _compute((fix7_files[0], edges, fix7_files[2]), out) == 0
        header = ["order", "l1_norm", "l1_share", "frob_norm", "frob_share"]
        assert (out / "contributions.csv").read_bytes() == _table_bytes(
            tmp_path, _write_rows, [header]
        )

    def test_quoted_labels_and_ids_read_back(self, tmp_path):
        # FIX7 with node 4 renamed "4,a" and disciplines X, Y, Z renamed.
        labels = {"X": "X,1", "Y": 'Y"q', "Z": "Z\rz"}
        quoted = {"4": '"4,a"', "X": '"X,1"', "Y": '"Y""q"', "Z": '"Z\rz"'}

        def rename(text):
            return "\n".join(
                ",".join(quoted.get(field, field) for field in line.split(","))
                for line in text.split("\n")
            )

        files = [tmp_path / name for name in ("nodes.csv", "edges.csv", "m.csv")]
        for path, text in zip(files, (NODES_CSV, EDGES_CSV, MEMBERSHIP_CSV)):
            path.write_text(rename(text), encoding="utf-8", newline="")
        out = tmp_path / "out"
        assert _compute(files, out) == 0

        def read_back(name):
            with open(out / name, newline="", encoding="utf-8") as fh:
                return list(csv.reader(fh))

        expected = sorted(labels.values())
        for name in ("F.csv", "F0.csv", "M_1.csv", "M_2.csv", "M_3.csv", "E.csv",
                     "fhat.csv"):
            header, *rows = read_back(name)
            assert header[0] == "discipline"
            assert sorted(header[1:]) == expected
            assert [row[0] for row in rows] == header[1:]
            assert all(len(row) == 4 for row in rows)
        for name in ("summary.csv", "communities.csv", "betweenness.csv", "rao.csv"):
            header, *rows = read_back(name)
            assert sorted(row[0] for row in rows) == expected
            assert all(len(row) == len(header) for row in rows)
        header, *rows = read_back("r.csv")
        assert sorted(row[0] for row in rows) == ["1", "2", "3", "4,a", "5", "6", "7"]
        assert all(len(row) == 2 for row in rows)


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

    def test_empty_nodes_exits_2(self, fix7_files, tmp_path, capsys):
        _, edges, membership = fix7_files
        empty = tmp_path / "empty_nodes.csv"
        empty.write_text("id,year,month\n", encoding="utf-8")
        code = main(
            ["validate", "--nodes", str(empty), "--edges", str(edges),
             "--membership", str(membership)]
        )
        assert code == 2
        # zero nodes is reported ahead of the edges' unknown ids
        assert "zero nodes" in capsys.readouterr().err

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

    def test_frobenius_norm_changes_only_the_chart(self, fix7_files, tmp_path):
        default, frobenius = tmp_path / "l1", tmp_path / "frobenius"
        assert _compute(fix7_files, default) == 0
        assert _compute(fix7_files, frobenius, "--norm", "frobenius") == 0
        svg = _read(frobenius / "contributions.svg")
        assert "citation flow share by path order (frobenius)</text>" in svg
        with open(frobenius / "contributions.csv", newline="", encoding="utf-8") as fh:
            shares = [f"{float(row['frob_share']):.4f}" for row in csv.DictReader(fh)]
        assert re.findall(r'font-size="11">(\d\.\d{4})</text>', svg) == shares
        files, expected = _tree_bytes(frobenius), _tree_bytes(default)
        del files["contributions.svg"], expected["contributions.svg"]
        assert files == expected

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

    @pytest.mark.parametrize(
        ("extra", "width", "logged"),
        [
            (
                (),
                64,
                "3 orders beyond the identity, edge work 15 of 24 (0.625), "
                "in 1 column group",
            ),
            (
                ("--max-order", "1"),
                64,
                "1 orders beyond the identity, edge work 8 of 8 (1.000), "
                "in 1 column group",
            ),
            (
                (),
                2,
                "3 orders beyond the identity, edge work 30 of 48 (0.625), "
                "in 2 column groups",
            ),
        ],
        ids=["auto", "max-order-1", "two-column-groups"],
    )
    def test_logs_edge_work(self, fix7_files, tmp_path, capsys, extra, width, logged):
        out = tmp_path / "out"
        # FIX7's [Q | 1] has 4 columns: one group, or two of width 2.
        with mock.patch.object(dependence, "_GROUP_COLUMNS", width):
            assert _compute(fix7_files, out, *extra) == 0
        err = capsys.readouterr().err
        assert f"dependence: {logged}, peak RSS " in err
        for text in ("edge work", "column group"):
            assert not any(text in p.read_text() for p in out.iterdir())
        # Ingest and the engine each log the process's peak RSS so far.
        for stage in ("graph", "dependence"):
            line = next(x for x in err.splitlines() if f"] {stage}: " in x)
            assert re.search(r", peak RSS [0-9]+\.[0-9] MiB$", line)
        assert not any("peak RSS" in p.read_text() for p in out.iterdir())

    def test_logs_ingest_seconds_before_the_graph(self, fix7_files, tmp_path, capsys):
        assert _compute(fix7_files, tmp_path / "out") == 0
        lines = capsys.readouterr().err.splitlines()
        stages = [line.split("] ")[1].split(":")[0] for line in lines]
        assert stages.index("ingest") + 1 == stages.index("graph")
        ingest = lines[stages.index("ingest")]
        number = r"[0-9]+\.[0-9]{3} s"
        assert re.fullmatch(
            rf"\[citeflow\] ingest: nodes {number}, edges {number}, membership {number}",
            ingest,
        )

    def test_logs_zero_weight_positive_edges(self, fix7_files, tmp_path, capsys):
        # FIX7's only positive edge, Y-Z, is the largest pair value, but
        # that value is negative, so its weight is floored to 0.
        out = tmp_path / "out"
        assert _compute(fix7_files, out) == 0
        err = capsys.readouterr().err
        assert "analytics: k=3 communities=3 positive_edges=1 zero_weight=1\n" in err
        assert not any("zero_weight" in p.read_text() for p in out.iterdir())

    @pytest.mark.parametrize("pcts", ["10/90", "50/50", "101/10", "90/-1"])
    def test_bad_percentiles_exit_2(self, tmp_path, capsys, pcts):
        # inputs that do not exist: the range is checked before any is read
        hi, lo = pcts.split("/")
        missing = [tmp_path / name for name in ("n.csv", "e.csv", "m.csv")]
        out = tmp_path / "x"
        assert _compute(missing, out, "--hi-pct", hi, "--lo-pct", lo) == 2
        err = capsys.readouterr().err
        assert f"need 0 <= lo_pct < hi_pct <= 100, got {lo}/{hi}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_rerun_replaces_earlier_artifacts(self, fix7_files, tmp_path):
        out = tmp_path / "out"
        assert _compute(fix7_files, out) == 0
        assert _compute(fix7_files, out, "--max-order", "1") == 0
        names = {p.name for p in out.iterdir()}
        assert len(names) == 14 and "M_2.csv" not in names
        inputs = {p.name for p in fix7_files}
        assert {p.name for p in tmp_path.iterdir()} == inputs | {"out"}

    def test_files_compute_does_not_write_are_kept(self, fix7_files, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        inputs = [out / p.name for p in fix7_files]
        for src, dst in zip(fix7_files, inputs):
            dst.write_bytes(src.read_bytes())
        (out / "M_notes.txt").write_text("mine", encoding="utf-8")
        kept = _tree_bytes(out)
        assert _compute(inputs, out) == 0
        assert _compute(inputs, out, "--max-order", "1") == 0
        after = _tree_bytes(out)
        assert {name: after[name] for name in kept} == kept
        assert len(after) == len(kept) + 14 and "M_2.csv" not in after

    def test_out_dot_is_the_working_directory(self, fix7_files, tmp_path, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        monkeypatch.chdir(out)
        assert _compute(fix7_files, Path(".")) == 0
        assert len(list(out.iterdir())) == 16
        assert _compute(fix7_files, Path("."), "--max-order", "1") == 0
        assert len(list(out.iterdir())) == 14

    def test_symlinked_out_stays_a_link(self, fix7_files, tmp_path):
        real, link = tmp_path / "real", tmp_path / "link"
        real.mkdir()
        link.symlink_to(real, target_is_directory=True)
        assert _compute(fix7_files, link) == 0
        assert _compute(fix7_files, link, "--max-order", "1") == 0
        assert link.is_symlink() and len(list(real.iterdir())) == 14
        inputs = {p.name for p in fix7_files}
        assert {p.name for p in tmp_path.iterdir()} == inputs | {"real", "link"}

    def test_failed_run_leaves_earlier_out(self, fix7_files, tmp_path):
        out = tmp_path / "out"
        assert _compute(fix7_files, out) == 0
        before = _tree_bytes(out)
        bad = tmp_path / "bad.csv"
        bad.write_text("id,discipline,weight\n1,X,-1\n", encoding="utf-8")
        assert _compute((*fix7_files[:2], bad), out) == 2
        assert len(before) == 16
        assert _tree_bytes(out) == before
        inputs = {p.name for p in fix7_files}
        assert {p.name for p in tmp_path.iterdir()} == inputs | {"out", "bad.csv"}

    def test_unwritable_out_dir_exits_2(self, fix7_files, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory", encoding="utf-8")
        assert _compute(fix7_files, blocker) == 2

    def test_zero_max_order_rejected_by_parser(self, fix7_files, tmp_path):
        for option in ("--max-order", "--threads"):
            with pytest.raises(SystemExit) as err:
                _compute(fix7_files, tmp_path / "x", option, "0")
            assert err.value.code == 2

    def test_weighted_betweenness_rejected_by_parser(self, fix7_files, tmp_path):
        with pytest.raises(SystemExit) as err:
            _compute(fix7_files, tmp_path / "x", "--betweenness", "weighted")
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
            (1, "citing,cited\nzzz,1\n"),
            (1, "citing,cited\n1,zzz\n"),
        ],
        ids=[
            "long-month", "long-cited", "long-discipline", "year-beyond-int64",
            "unknown-citing", "unknown-cited",
        ],
    )
    def test_exits_2_with_line_number(self, fix7_files, tmp_path, capsys, index, text):
        files = list(fix7_files)
        files[index] = tmp_path / "bad.csv"
        files[index].write_text(text, encoding="utf-8")
        assert _compute(files, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "line 2" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "rows", ["1,X,1e308\n1,Y,1e308\n", "1,X,1e308\n1,X,1e308\n"],
        ids=["two-disciplines", "same-discipline-twice"],
    )
    def test_weights_beyond_float_range_exit_2(
        self, fix7_files, tmp_path, capsys, rows
    ):
        bad = tmp_path / "membership.csv"
        bad.write_text("id,discipline,weight\n" + rows, encoding="utf-8")
        out = tmp_path / "out"
        assert _compute((*fix7_files[:2], bad), out) == 2
        err = capsys.readouterr().err
        assert f"{bad}: line 3: weights for 1 sum beyond the float range" in err
        assert "Traceback" not in err
        assert not (out / "F.csv").exists()

    @pytest.mark.parametrize("filler", [0, 2000], ids=["under-8-kib", "over-8-kib"])
    def test_invalid_utf8_names_file_and_line(
        self, fix7_files, tmp_path, capsys, filler
    ):
        head = (NODES_CSV + "".join(f"x{i},2010,1\n" for i in range(filler))).encode()
        bad = tmp_path / "nodes.csv"
        bad.write_bytes(head + b"y\xff,2010,1\n")
        lineno = head.count(b"\n") + 1
        assert (len(head) > 8192) == (filler > 0)
        assert _compute((bad, *fix7_files[1:]), tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"citeflow: error: {bad}: line {lineno}: ")
        assert f"byte 0xff in position {len(head) + 1}:" in err
        assert "Traceback" not in err

    def test_unknown_edge_id_names_its_line_not_its_index(
        self, fix7_files, tmp_path, capsys
    ):
        bad = tmp_path / "bad.csv"
        bad.write_text("citing,cited\n1,2\n\n1,zzz\n", encoding="utf-8")
        assert _compute((fix7_files[0], bad, fix7_files[2]), tmp_path / "out") == 2
        assert f"{bad}: line 4: unknown cited id 'zzz'" in capsys.readouterr().err


class TestFuzzIngest:
    """Mutated FIX7 inputs exit 0 or 2 with a message, never a traceback."""

    @given(
        file=st.integers(min_value=0, max_value=2),
        line=st.integers(min_value=0, max_value=8),
        field=st.integers(min_value=0, max_value=2),
        mutations=st.lists(st.sampled_from(sorted(MUTATIONS)), min_size=1, max_size=2),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_exits_0_or_2(self, file, line, field, mutations):
        texts = [NODES_CSV, EDGES_CSV, MEMBERSHIP_CSV]
        texts[file] = mutate_line(texts[file], line, field, mutations)
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            paths = [root / "nodes.csv", root / "edges.csv", root / "membership.csv"]
            for path, text in zip(paths, texts):
                path.write_text(text, encoding="utf-8")
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = _compute(paths, root / "out")
            assert code in (0, 2)
            if code == 2:
                assert err.getvalue().startswith("citeflow: error: ")
            assert {p.name for p in root.iterdir()} == {p.name for p in paths} | {"out"}


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

    def test_failed_write_leaves_earlier_out(self, tmp_path, monkeypatch):
        out = tmp_path / "synth"
        args = ["synth", "--n", "300", "--m", "1200", "--k", "3", "--out", str(out)]
        assert main([*args, "--seed", "1"]) == 0
        before = _tree_bytes(out)
        write = cli._write_gathered

        def fail_on_membership(path, header, columns):
            if path.name == "membership.csv":
                raise OSError(28, "No space left on device")
            write(path, header, columns)

        monkeypatch.setattr(cli, "_write_gathered", fail_on_membership)
        assert main([*args, "--seed", "2"]) == 2
        assert sorted(p.name for p in out.iterdir()) == sorted(before)  # no .citeflow-*
        assert sorted(before) == ["edges.csv", "membership.csv", "nodes.csv"]
        assert _tree_bytes(out) == before

    def test_directory_in_the_way_leaves_earlier_out(self, tmp_path):
        out = tmp_path / "synth"
        args = ["synth", "--n", "300", "--m", "1200", "--k", "3", "--out", str(out)]
        assert main([*args, "--seed", "1"]) == 0
        (out / "membership.csv").unlink()
        (out / "membership.csv").mkdir()

        def snapshot():
            return {p.name: p.is_file() and p.read_bytes() for p in out.iterdir()}

        before = snapshot()
        assert main([*args, "--seed", "2"]) == 2
        assert snapshot() == before

    def test_logs_its_stages_under_warnings_as_errors(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-c",
             "from citeflow.cli import entry; entry()", "synth", "--n", "300",
             "--m", "1200", "--k", "3", "--seed", "1", "--out", str(tmp_path / "s")],
            capture_output=True, text=True, cwd=ROOT, timeout=120,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stderr.splitlines()
        number = r"[0-9]+\.[0-9]{3}"
        stage = rf"edges {number} s, membership {number} s, write {number} s"
        assert re.fullmatch(rf"\[citeflow\] synth: {stage}", lines[-2]), proc.stderr
        assert lines[-1].startswith("[citeflow] synthesized n=300 m=1200 k=3 into ")

    @pytest.mark.parametrize(
        ("flags", "infeasible", "digests"),
        [
            (
                ["--n", "3000", "--m", "12000", "--k", "7", "--seed", "3"],
                False,
                {
                    "nodes.csv": "912f52d86855fc86282c64e248fff01c"
                    "84669a31c6ca8bc253405158484b1dec",
                    "edges.csv": "d3fab4b18b08c5df0bb1861e98daa10a"
                    "d87a8f250808c1c497460f0dda48a15a",
                    "membership.csv": "d918d8a149b3ddf44e374a21018d6477"
                    "1e1c065ee106826f3f05f8980dbab357",
                },
            ),
            (
                ["--n", "30", "--m", "300", "--k", "3", "--seed", "4",
                 "--month-span", "2"],
                True,
                {
                    "nodes.csv": "9529f91078c2adaa4ff73864ef5a1a80"
                    "1f4ba8c856fc9ff261c02775a7606a1a",
                    "edges.csv": "0be052f9de931f2ec56b302ecb831ef3"
                    "4ba9f1ce97a94337b99d67e3d141db31",
                    "membership.csv": "c38a3afa20ea10da69934c458ca0ff06"
                    "0595fcb5daac1afa1d02ebac0e85455a",
                },
            ),
            (
                # Labels d01 to d99 and d100 to d120: the gather masks label
                # fields of two widths.
                ["--n", "2000", "--m", "8000", "--k", "120", "--seed", "3"],
                False,
                {
                    "nodes.csv": "acebcc55c8481e30789849dc35e91afe"
                    "f9aa435997381eebc723836a10d8f17a",
                    "edges.csv": "b180730c437c3361e7d3df3d7b399a56"
                    "1d1e4f61fd137652cbaaec5d462ac749",
                    "membership.csv": "36a7354cd124f35b160378b26b037da8"
                    "fab7a8a264ec84f6a66f1025487786bf",
                },
            ),
        ],
        ids=["month-span-24", "infeasible-target", "two-label-widths"],
    )
    def test_output_bytes_are_pinned(self, tmp_path, capsys, flags, infeasible, digests):
        # Warnings are errors in the tests, so an infeasible target must
        # reach the stage log as a line, not escape as a warning.
        out = tmp_path / "synth"
        assert main(["synth", *flags, "--out", str(out)]) == 0
        warned = re.findall(r"^\[citeflow\] warning: (.*)$", capsys.readouterr().err, re.M)
        assert [" infeasible " in text for text in warned] == ([True] if infeasible else [])
        assert {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()
        } == digests


class TestStartup:
    @pytest.mark.parametrize("given, expected", [(None, "4"), ("30", "30")])
    def test_openblas_timeout_is_set_before_numpy_loads(self, given, expected):
        """In a fresh interpreter, numpy's first import sees citeflow's
        OpenBLAS thread timeout, or the caller's own value."""
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
        if given is not None:
            env["OPENBLAS_THREAD_TIMEOUT"] = given
        env["PYTHONPATH"] = str(ROOT / "src")
        script = (
            "import os, sys\n"
            "seen = []\n"
            "def hook(event, args):\n"
            "    if event == 'import' and args[0] == 'numpy' and not seen:\n"
            "        seen.append(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))\n"
            "sys.addaudithook(hook)\n"
            "import citeflow.cli\n"
            "print(seen)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, cwd=ROOT, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == repr([expected])
