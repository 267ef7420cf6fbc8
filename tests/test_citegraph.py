"""Ingestion, DAG construction, ordering, and membership parsing."""

from __future__ import annotations

import collections
import csv
import math
import re
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citeflow import (
    CitationGraph,
    EdgeTable,
    IngestError,
    InternalInvariantError,
    NodeTable,
    PubTime,
    SynthSpec,
    UNCLASSIFIED,
    build_graph,
    build_operator,
    longest_path_length,
    parse_edges,
    parse_membership,
    parse_nodes,
    random_dag,
)
from citeflow import citegraph, cli
from citeflow.citegraph import MAX_YEAR
from citeflow.refkit import topological_order
from conftest import (
    EDGES_CSV,
    FIX7_EDGES,
    FIX7_LONGEST,
    FIX7_NODES,
    MEMBERSHIP_CSV,
    MUTATIONS,
    NODES_CSV,
    as_scipy,
    mutate_line,
)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParseNodes:
    def test_basic_row(self, tmp_path):
        path = _write(tmp_path, "n.csv", "id,year,month\np1,2016,5\n")
        nodes, warnings = parse_nodes(path)
        assert nodes.ids == ("p1",)
        assert nodes.time_keys.tolist() == [PubTime(2016, 5).key()]
        assert warnings == []

    def test_undecodable_header_is_reported_as_such(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_bytes(b"id,ye\xffar,month\np1,2016,5\n")
        with pytest.raises(IngestError, match="n.csv: line 1: .* in position 5:"):
            parse_nodes(path)

    def test_blank_month_defaults_with_warning(self, tmp_path):
        path = _write(tmp_path, "n.csv", "id,year,month\np2,2015,\n")
        nodes, warnings = parse_nodes(path)
        assert nodes.ids == ("p2",)
        assert nodes.time_keys.tolist() == [PubTime(2015, 1).key()]
        assert len(warnings) == 1 and "p2" in warnings[0]

    def test_duplicate_id_is_fatal(self, tmp_path):
        path = _write(tmp_path, "n.csv", "id,year,month\np1,2016,5\np1,2015,1\n")
        message = r"n.csv: line 3: duplicate node id p1 \(first on line 2\)"
        with pytest.raises(IngestError, match=message):
            parse_nodes(path)

    def test_non_integer_year_is_fatal(self, tmp_path):
        path = _write(tmp_path, "n.csv", "id,year,month\np1,abc,5\n")
        with pytest.raises(IngestError, match="year"):
            parse_nodes(path)

    def test_month_out_of_range_is_fatal(self, tmp_path):
        path = _write(tmp_path, "n.csv", "id,year,month\np1,2016,13\n")
        with pytest.raises(IngestError, match="month"):
            parse_nodes(path)

    def test_year_bound_keeps_month_key_in_int64(self, tmp_path):
        rows = f"a,{MAX_YEAR},12\nb,{-MAX_YEAR},1\n"
        nodes, _ = parse_nodes(_write(tmp_path, "n.csv", "id,year,month\n" + rows))
        graph, _ = build_graph(nodes, [EdgeTable.from_pairs([("a", "b")])])
        assert graph.m == 1
        path = _write(tmp_path, "big.csv", f"id,year,month\na,{MAX_YEAR + 1},1\n")
        with pytest.raises(IngestError, match="line 2: year"):
            parse_nodes(path)

    def test_line_number_counts_lines_inside_quoted_fields(self, tmp_path):
        text = 'id,year,month\n"a\nb",2016,1\nc,2016,13\n'
        with pytest.raises(IngestError, match="line 4: month"):
            parse_nodes(_write(tmp_path, "n.csv", text))

    def test_bad_header_is_fatal(self, tmp_path):
        path = _write(tmp_path, "n.csv", "identifier,year,month\np1,2016,5\n")
        with pytest.raises(IngestError, match="header"):
            parse_nodes(path)

    @given(
        rows=st.lists(
            st.tuples(
                st.integers(min_value=-3000, max_value=3000),
                st.integers(min_value=0, max_value=12),  # 0 writes a blank month
                st.booleans(),  # a blank line before the row
            ),
            max_size=12,
        )
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_keys_and_blank_month_lines_match_each_row(self, tmp_path_factory, rows):
        lines, keys, expected = ["id,year,month"], [], []
        for i, (year, month, blank_before) in enumerate(rows):
            if blank_before:
                lines.append("")
            lines.append(f"p{i},{year},{month or ''}")
            keys.append(PubTime(year, month or 1).key())
            if not month:
                expected.append(
                    f"node p{i}: blank month defaults to 1 (line {len(lines)})"
                )
        text = "\n".join(lines) + "\n"
        path = _write(tmp_path_factory.mktemp("nodes"), "n.csv", text)
        nodes, warns = parse_nodes(path)
        assert nodes.ids == tuple(f"p{i}" for i in range(len(rows)))
        assert nodes.time_keys.tolist() == keys
        assert warns == expected

    def test_first_bad_row_wins_over_a_later_malformed_row(self, tmp_path):
        text = "id,year,month\na,2016,1\nb,20x6,1\nc,2016\n"
        with pytest.raises(IngestError, match="line 3: year '20x6'"):
            parse_nodes(_write(tmp_path, "n.csv", text))


# Fields of years and months: plain digits of every length around the
# 18 that ``_digits`` reads, and the forms that only ``int`` reads or
# rejects (signs, underscores, digits beyond ASCII, letters, blanks).
_NUMBER_FIELD = (
    st.from_regex(r"[0-9]{1,20}", fullmatch=True)
    | st.integers(-(10**20), 10**20).map(str)
    | st.sampled_from(["", "0", "+5", "-0", "1_000", "\u0663", "0x1f", "12a", "9" * 18,
                       "9" * 19, "0" * 19 + "1", "-" + "9" * 19])
    | st.text(alphabet="0123456789+-_ a\u0663", max_size=20)
)


class TestNumbers:
    @given(
        fields=st.lists(_NUMBER_FIELD, max_size=20),
        blank=st.sampled_from(["", "1"]),
        as_bytes=st.booleans(),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_integers_match_int(self, fields, blank, as_bytes):
        """Each field reads as ``int`` reads it, clipped into int64, and is
        rejected where ``int`` raises, whichever path reads it."""
        column = citegraph._Fields.of(fields)
        if as_bytes:
            column = citegraph._Fields(column.data, column.starts, column.lengths)
        values, rejected = citegraph._numbers(int, column, np.int64, blank)
        expected, bad = [], []
        for field in fields:
            try:
                value = int(field or blank)
            except ValueError:
                value = None
            bad.append(value is None)
            limit = np.iinfo(np.int64)
            expected.append(0 if value is None else min(max(value, limit.min), limit.max))
        assert values.dtype == np.int64 and values.tolist() == expected
        assert (np.zeros(len(fields), bool) | rejected).tolist() == bad


def _edge_rows(path):
    """(citing, cited, line) of each row that ``parse_edges`` reads, over its blocks."""
    return [
        row
        for block in parse_edges(path)
        for row in zip(block.citing, block.cited, block.lines)
    ]


def _synth_edges(folder):
    """The edge table of a synthetic graph of 100 000 edges in ``folder``."""
    args = "synth --n 20000 --m 100000 --k 5 --seed 1 --out".split()
    assert cli.main([*args, str(folder)]) == 0
    return folder / "edges.csv"


def _edge_peaks(paths) -> list[int]:
    """The traced peak of reading each edge table of ``paths``."""
    peaks = []
    for path in paths:
        tracemalloc.start()
        try:
            collections.deque(parse_edges(path), maxlen=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


class TestParseEdges:
    def test_basic_pair(self, tmp_path):
        path = _write(tmp_path, "e.csv", "citing,cited\np1,p2\n")
        assert _edge_rows(path) == [("p1", "p2", 2)]

    def test_empty_body(self, tmp_path):
        path = _write(tmp_path, "e.csv", "citing,cited\n")
        assert _edge_rows(path) == []

    def test_missing_cited_id(self, tmp_path):
        path = _write(tmp_path, "e.csv", "citing,cited\np1,\n")
        with pytest.raises(IngestError, match="e.csv: line 2: missing cited id"):
            _edge_rows(path)

    def test_missing_citing_id(self, tmp_path):
        path = _write(tmp_path, "e.csv", "citing,cited\np1,p2\n,p3\n")
        with pytest.raises(IngestError, match="e.csv: line 3: missing citing id"):
            _edge_rows(path)

    def test_lone_carriage_returns_end_lines(self, tmp_path):
        path = _write(tmp_path, "e.csv", "citing,cited\rp1,p2\rp2,p3\r")
        assert _edge_rows(path) == [("p1", "p2", 2), ("p2", "p3", 3)]

    def test_crlf_file_peaks_as_its_lf_form(self, tmp_path):
        """A CRLF table is split without an LF copy of the file."""
        lf = _synth_edges(tmp_path)
        crlf = tmp_path / "edges-crlf.csv"
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        peaks = _edge_peaks([lf, crlf])
        assert peaks[1] <= 1.02 * peaks[0]

    def test_padded_and_non_ascii_files_peak_as_their_plain_form(self, tmp_path):
        """Fields with a space and a tab around them, or ids beyond ASCII,
        are split as bytes too, without a decoded copy of the file."""
        plain = _synth_edges(tmp_path)
        data = plain.read_bytes()
        spaced = tmp_path / "edges-spaced.csv"
        spaced.write_bytes(re.sub(rb"[^,\n]+", rb" \g<0>\t", data))
        utf8 = tmp_path / "edges-utf8.csv"
        utf8.write_bytes(re.sub(rb"\bp[0-9]+\b", "é".encode() + rb"\g<0>", data))
        for path in (spaced, utf8):
            assert citegraph._byte_table(path, citegraph.EDGE_HEADER)
        peaks = _edge_peaks([plain, spaced, utf8])
        assert max(peaks[1:]) <= 1.2 * peaks[0]

    def test_graph_peaks_under_eight_times_the_file(self, tmp_path):
        """Resolving the ids a block at a time keeps no string per field."""
        args = "synth --n 20000 --m 100000 --k 5 --seed 1 --out".split()
        assert cli.main([*args, str(tmp_path)]) == 0
        nodes, _ = parse_nodes(tmp_path / "nodes.csv")
        path = tmp_path / "edges.csv"
        tracemalloc.start()
        try:
            graph, _ = build_graph(nodes, parse_edges(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert graph.m == 100_000
        assert peak <= 8 * path.stat().st_size


# Fields of a plain table, and the flaws a table may carry: a field of
# spaces, characters that str.strip removes, quotes, NUL, separators or
# non-ASCII text; one near or over the field-size limit; a line with a
# field too few or too many; a line end that is CRLF, a lone CR, or a
# blank or whitespace-only line.
_PLAIN_FIELD = st.text(alphabet="ab1", max_size=4)
_FLAW_CHARS = [*"ab1", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
               "\xa0", "\x85", "\u2028", "\ufeff", "é", '"', "\x00", "\r", ",", "\n"]
_FLAWED_FIELD = st.text(
    alphabet=st.sampled_from(_FLAW_CHARS), min_size=1, max_size=6
) | st.sampled_from(["x" * 10, "x" * 11, "é" * 5, "é" * 6])
_FLAWED_END = st.sampled_from(["\r\n", "\r", "\n\n", "\n \n", "\n\x1c\n", ""])
_BAD_UTF8 = st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xef\xbb"])
# csv.field_size_limit() while reading: "discipline" is exactly at it,
# and the flawed fields fall on both sides of it.
_FIELD_LIMIT = 10


@st.composite
def _tables(draw):
    """(header, file bytes) of a plain table with up to three flaws."""
    header = draw(
        st.sampled_from(
            [citegraph.NODE_HEADER, citegraph.EDGE_HEADER, citegraph.MEMBERSHIP_HEADER]
        )
    )
    width = len(header)
    lines = [list(header)] + draw(
        st.lists(st.lists(_PLAIN_FIELD, min_size=width, max_size=width), max_size=5)
    )
    ends = ["\n"] * len(lines)
    prefix = draw(st.sampled_from([b"", b"", b"\xef\xbb\xbf"]))
    bad_bytes = b""
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        kind = draw(st.sampled_from(["field", "field", "drop", "add", "end", "bytes"]))
        if kind == "field" and lines[i]:
            j = draw(st.integers(min_value=0, max_value=len(lines[i]) - 1))
            lines[i][j] = draw(_FLAWED_FIELD)
        elif kind == "drop" and lines[i]:
            lines[i].pop()
        elif kind == "add":
            lines[i].append(draw(_PLAIN_FIELD))
        elif kind == "end":
            ends[i] = draw(_FLAWED_END)
        else:
            bad_bytes = draw(_BAD_UTF8)
    if draw(st.booleans()):
        ends[-1] = ""
    data = prefix + "".join(",".join(l) + e for l, e in zip(lines, ends)).encode()
    if bad_bytes:
        at = draw(st.integers(min_value=0, max_value=len(data)))
        data = data[:at] + bad_bytes + data[at:]
    return header, data


# A node table whose every field, the header's too, has a space, a tab and
# \x1c on both sides, so that reads of 1 or 7 bytes end inside the padding.
_PADDED = (citegraph.NODE_HEADER, "".join(
    ",".join(f" \t\x1c{f}\x1c\t " for f in line) + "\n"
    for line in [citegraph.NODE_HEADER, ("p1", "2016", "5"), ("é2", "", "")]
).encode())


class _Declined(Exception):
    """Raised in place of ``_csv_rows``: the plain-table path declined the file."""


def _read_both(path, header, block=citegraph._BLOCK):
    """(line, fields) of each row of ``path`` as the plain-table path reads
    it, in blocks of about ``block`` characters, and as ``_csv_rows`` reads it.

    Either is None when its reader declines or rejects the file.
    """
    limit = csv.field_size_limit(_FIELD_LIMIT)
    try:
        try:
            with (
                mock.patch.object(citegraph, "_csv_rows", side_effect=_Declined),
                mock.patch.object(citegraph, "_BLOCK", block),
            ):
                plain = [
                    (line, list(row))
                    for b in citegraph._blocks(path, header)
                    for line, *row in zip(b.lines, *b.columns)
                ]
        except _Declined:
            plain = None
        try:
            rows = list(_rows(path, header))
        except IngestError:
            rows = None
    finally:
        csv.field_size_limit(limit)
    return plain, rows


class TestPlainTableReader:
    """The plain-table path declines, or reads what the csv module reads."""

    @given(table=_tables(), block=st.sampled_from([1, 7, citegraph._BLOCK]))
    @example(table=_PADDED, block=1)
    @example(table=_PADDED, block=7)
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_declines_or_matches_csv_rows(self, tmp_path_factory, table, block):
        header, data = table
        path = tmp_path_factory.mktemp("table") / "t.csv"
        path.write_bytes(data)
        plain, rows = _read_both(path, header, block)
        assert plain is None or plain == rows

    @pytest.mark.parametrize(
        "text",
        [
            "citing,cited\n",
            "citing,cited\np1,p2\np2,p3",
            "\ufeffciting,cited\np1,p2\n",
            " citing , cited\t\n  p1,p2 \n",
            "citing,cited\n\x1cp1\x1f,\x0bp2\x0c\n",
            "citing,cited\né1,pé\n",
            "citing,cited\n,\n \t, \n",
            "citing,cited\n" + "x" * _FIELD_LIMIT + ",p2\n",
            "citing,cited\r\np1,p2\r\n p2 ,p3\r\n",
        ],
        ids=[
            "empty-body", "no-final-newline", "bom", "spaces", "ascii-separators",
            "non-ascii", "blank-fields", "field-at-the-limit", "crlf",
        ],
    )
    def test_plain_tables_take_the_plain_path(self, tmp_path, text):
        path = _write(tmp_path, "e.csv", text)
        assert citegraph._byte_table(path, citegraph.EDGE_HEADER)
        plain, rows = _read_both(path, citegraph.EDGE_HEADER)
        assert plain is not None and plain == rows

    def test_space_beyond_ascii_takes_the_csv_path(self, tmp_path):
        path = _write(tmp_path, "e.csv", "citing,cited\n\xa0é1\u2028,\u2028p2\xa0\n")
        assert not citegraph._byte_table(path, citegraph.EDGE_HEADER)
        plain, rows = _read_both(path, citegraph.EDGE_HEADER)
        assert plain is None and rows == [(2, ["é1", "p2"])]
        read = [(line, list(row)) for b in citegraph._blocks(path, citegraph.EDGE_HEADER)
                for line, *row in zip(b.lines, *b.columns)]
        assert read == rows

    def test_space_beyond_ascii_is_what_str_strip_removes(self):
        """A block is declined exactly when it holds a character beyond ASCII
        for which ``str.isspace`` holds: every code point is tried."""
        chars = [chr(c) for c in range(0x80, 0x110000) if not 0xD800 <= c < 0xE000]
        spaces = [c for c in chars if c.isspace()]
        assert not any(citegraph._narrow(f"a{c}b\n".encode()) for c in spaces)
        others = "".join(c for c in chars if not c.isspace())
        assert citegraph._narrow(others.encode())

    def test_long_padding_is_cut_at_once(self, tmp_path):
        # 360 KB of fields padded by 60 000 spaces a side: cutting one byte
        # of padding per numpy round took seconds
        pad = " " * 60_000
        text = "citing,cited\n" + "".join(
            f"{pad}p{i}{pad},\tp{i + 1}\n" for i in range(3)
        )
        path = _write(tmp_path, "e.csv", text)
        assert citegraph._byte_table(path, citegraph.EDGE_HEADER)
        started = time.perf_counter()
        plain = [(line, list(row)) for b in citegraph._blocks(path, citegraph.EDGE_HEADER)
                 for line, *row in zip(b.lines, *b.columns)]
        assert time.perf_counter() - started < 0.5
        assert plain == list(_rows(path, citegraph.EDGE_HEADER))
        assert plain[0] == (2, ["p0", "p1"])

    def test_overlong_last_field_without_newline_takes_the_csv_path(self, tmp_path):
        path = _write(tmp_path, "e.csv", "citing,cited\np1," + "x" * (_FIELD_LIMIT + 1))
        plain, rows = _read_both(path, citegraph.EDGE_HEADER)
        assert plain is None and rows is None  # the csv module rejects the field

    def test_lone_carriage_return_takes_the_csv_path(self, tmp_path):
        path = _write(tmp_path, "e.csv", "citing,cited\r\np1\rx,p2\r\n")
        plain, rows = _read_both(path, citegraph.EDGE_HEADER)
        assert plain is None and rows is None  # the csv module ends a row at \r


class TestBuildGraph:
    def test_fix7_counts(self, fix7_graph):
        assert fix7_graph.n == 7
        assert fix7_graph.m == 8

    def test_synchronous_edge_discarded(self):
        nodes = [("a", PubTime(2016, 5)), ("b", PubTime(2016, 5))]
        graph, report = build_graph(
            NodeTable.from_pairs(nodes), [EdgeTable.from_pairs([("a", "b")])]
        )
        assert graph.m == 0
        assert report.synchronous_edges_discarded == 1

    def test_older_citing_discarded(self):
        nodes = [("a", PubTime(2015, 5)), ("b", PubTime(2016, 5))]
        graph, report = build_graph(
            NodeTable.from_pairs(nodes), [EdgeTable.from_pairs([("a", "b")])]
        )
        assert graph.m == 0
        assert report.synchronous_edges_discarded == 1

    def test_self_loop_counts_as_synchronous(self):
        nodes = [("a", PubTime(2016, 5))]
        graph, report = build_graph(
            NodeTable.from_pairs(nodes), [EdgeTable.from_pairs([("a", "a")])]
        )
        assert graph.m == 0
        assert report.synchronous_edges_discarded == 1

    def test_duplicate_edge_collapsed(self):
        nodes = [("a", PubTime(2016, 5)), ("b", PubTime(2015, 5))]
        edges = [("a", "b"), ("a", "b")]
        graph, report = build_graph(
            NodeTable.from_pairs(nodes), [EdgeTable.from_pairs(edges)]
        )
        assert graph.m == 1
        assert report.duplicate_edges_discarded == 1

    def test_counts_reconcile(self):
        nodes = [
            ("a", PubTime(2016, 5)),
            ("b", PubTime(2015, 5)),
            ("c", PubTime(2015, 5)),
        ]
        edges = [("a", "b"), ("a", "b"), ("b", "c"), ("a", "c")]
        graph, report = build_graph(
            NodeTable.from_pairs(nodes), [EdgeTable.from_pairs(edges)]
        )
        assert report.edges_read == 4
        assert (
            report.edges_read
            == graph.m
            + report.synchronous_edges_discarded
            + report.duplicate_edges_discarded
        )
        assert graph.m == 2  # b->c is synchronous, one a->b duplicate dropped

    def test_unknown_endpoint_is_fatal(self):
        nodes = [("a", PubTime(2016, 5))]
        with pytest.raises(IngestError, match="unknown cited id"):
            build_graph(
                NodeTable.from_pairs(nodes), [EdgeTable.from_pairs([("a", "zz")])]
            )

    def test_zero_nodes_is_fatal(self):
        with pytest.raises(IngestError, match="zero nodes"):
            build_graph(NodeTable.from_pairs([]), [EdgeTable.from_pairs([])])

    def test_every_stored_edge_strictly_decreases_time(self, fix7_graph):
        tkey = fix7_graph.time_keys
        for u in range(fix7_graph.n):
            for v in fix7_graph.out_neighbors(u):
                assert tkey[u] > tkey[v]

    def test_outdegree_matches_stored_edges(self, fix7_graph):
        assert fix7_graph.outdegree.tolist() == [2, 2, 1, 1, 2, 0, 0]
        assert int(fix7_graph.outdegree.sum()) == fix7_graph.m


class TestTopologicalOrder:
    def test_fix7_order(self, fix7_graph):
        order = [fix7_graph.node_ids[i] for i in topological_order(fix7_graph)]
        assert order[0] == "1"
        assert set(order[-2:]) == {"6", "7"}

    def test_single_node(self):
        graph, _ = build_graph(
            NodeTable.from_pairs([("a", PubTime(2016, 1))]), [EdgeTable.from_pairs([])]
        )
        assert topological_order(graph).tolist() == [0]

    def test_isolated_nodes_tie_break_by_id(self):
        graph, _ = build_graph(
            NodeTable.from_pairs([("b", PubTime(2016, 1)), ("a", PubTime(2015, 1))]),
            [EdgeTable.from_pairs([])],
        )
        order = [graph.node_ids[i] for i in topological_order(graph)]
        assert order == ["a", "b"]

    def test_every_edge_goes_forward(self, fix7_graph):
        order = topological_order(fix7_graph)
        pos = {int(u): i for i, u in enumerate(order)}
        for u in range(fix7_graph.n):
            for v in fix7_graph.out_neighbors(u):
                assert pos[u] < pos[int(v)]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_permuted_adjacency_is_strictly_upper_triangular(self, seed):
        graph, _ = random_dag(SynthSpec(n=60, target_m=150, k=2, seed=seed))
        order = topological_order(graph)
        pos = np.empty(graph.n, dtype=np.int64)
        pos[order] = np.arange(graph.n)
        dense = np.zeros((graph.n, graph.n))
        for u in range(graph.n):
            dense[pos[u], pos[graph.out_neighbors(u)]] = 1.0
        assert np.all(np.tril(dense) == 0.0)


class TestLongestPath:
    def test_fix7(self, fix7_graph):
        assert longest_path_length(fix7_graph) == FIX7_LONGEST

    def test_edgeless(self):
        graph, _ = build_graph(
            NodeTable.from_pairs([("a", PubTime(2016, 1)), ("b", PubTime(2015, 1))]),
            [EdgeTable.from_pairs([])],
        )
        assert longest_path_length(graph) == 0

    def test_chain_of_five(self):
        nodes = [(f"n{i}", PubTime(2016, 12 - i)) for i in range(5)]
        edges = [(f"n{i}", f"n{i+1}") for i in range(4)]
        graph, _ = build_graph(
            NodeTable.from_pairs(nodes), [EdgeTable.from_pairs(edges)]
        )
        assert longest_path_length(graph) == 4

    @pytest.mark.parametrize("size", [1, 2, 40])
    def test_chain_and_edgeless_match_heap_order_dp(self, size):
        nodes = NodeTable(
            ids=tuple(f"n{i}" for i in range(size)),
            time_keys=np.arange(size, 0, -1, dtype=np.int64),
        )
        chain, _ = build_graph(
            nodes,
            [EdgeTable.from_pairs((f"n{i}", f"n{i + 1}") for i in range(size - 1))],
        )
        edgeless, _ = build_graph(nodes, [EdgeTable.from_pairs([])])
        assert longest_path_length(chain) == _heap_order_dp(chain) == size - 1
        assert longest_path_length(edgeless) == _heap_order_dp(edgeless) == 0

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=60),
        per_node=st.integers(min_value=0, max_value=6),
        month_span=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_frontier_matches_heap_order_dp(self, seed, n, per_node, month_span):
        spec = SynthSpec(
            n=n,
            target_m=min(per_node * n, n * (n - 1) // 2),
            k=1,
            seed=seed,
            month_span=month_span,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # infeasible targets
            graph, _ = random_dag(spec)
        assert longest_path_length(graph) == _heap_order_dp(graph)
        assert graph.heights.tolist() == _heap_order_heights(graph).tolist()
        assert build_operator(graph).order_bound == int(graph.heights.max())

    def test_heights_are_computed_once(self, fix7_graph):
        assert longest_path_length(fix7_graph) == FIX7_LONGEST
        assert fix7_graph.heights is fix7_graph.heights
        assert build_operator(fix7_graph).heights is fix7_graph.heights
        assert fix7_graph.heights.tolist() == [3, 2, 2, 1, 1, 0, 0]

    def test_cycle_is_an_internal_error(self):
        graph = CitationGraph(
            node_ids=("a", "b", "c"),
            time_keys=np.zeros(3, dtype=np.int64),
            indptr=np.array([0, 1, 2, 3]),
            indices=np.array([1, 2, 1]),
            n=3,
            m=3,
        )
        with pytest.raises(InternalInvariantError, match="cycle"):
            longest_path_length(graph)


def _heap_order_heights(graph):
    """Height of each node by DP over the heap topological order."""
    dist = np.zeros(graph.n, dtype=np.int64)
    for u in topological_order(graph)[::-1]:
        cited = graph.out_neighbors(u)
        if cited.size:
            dist[u] = 1 + dist[cited].max()
    return dist


def _heap_order_dp(graph):
    """Longest path by DP over the heap topological order, node by node."""
    return int(_heap_order_heights(graph).max())


class TestParseMembership:
    def test_single_row(self, tmp_path, fix7_graph):
        path = _write(
            tmp_path,
            "m.csv",
            "id,discipline,weight\n"
            + "".join(f"{i},X,1\n" for i in "1234567"),
        )
        membership, warnings = parse_membership(path, fix7_graph)
        assert membership.k == 1
        assert membership.labels == ("X",)
        assert warnings == []
        row = as_scipy(membership)[fix7_graph.id_index["1"]].toarray().ravel()
        assert row.tolist() == [1.0]

    def test_split_membership_renormalized_with_warning(self, tmp_path, fix7_graph):
        body = "1,X,1\n1,Y,1\n" + "".join(f"{i},X,1\n" for i in "234567")
        path = _write(tmp_path, "m.csv", "id,discipline,weight\n" + body)
        membership, warnings = parse_membership(path, fix7_graph)
        row = as_scipy(membership)[fix7_graph.id_index["1"]].toarray().ravel()
        assert row.tolist() == [0.5, 0.5]
        assert any("renormalized" in w for w in warnings)

    def test_missing_publication_gets_unclassified(self, tmp_path, fix7_graph):
        body = "".join(f"{i},X,1\n" for i in "123456")  # node 7 missing
        path = _write(tmp_path, "m.csv", "id,discipline,weight\n" + body)
        membership, warnings = parse_membership(path, fix7_graph)
        assert membership.labels == ("X", UNCLASSIFIED)
        row = as_scipy(membership)[fix7_graph.id_index["7"]].toarray().ravel()
        assert row.tolist() == [0.0, 1.0]
        assert any("7" in w for w in warnings)

    def test_nonpositive_weight_is_fatal(self, tmp_path, fix7_graph):
        path = _write(tmp_path, "m.csv", "id,discipline,weight\n1,X,0\n")
        with pytest.raises(IngestError, match="nonpositive weight"):
            parse_membership(path, fix7_graph)

    def test_unknown_id_is_fatal(self, tmp_path, fix7_graph):
        path = _write(tmp_path, "m.csv", "id,discipline,weight\nnope,X,1\n")
        with pytest.raises(IngestError, match="unknown id"):
            parse_membership(path, fix7_graph)

    def test_label_order_is_first_appearance(self, tmp_path, fix7_graph):
        body = "1,Q,1\n2,A,1\n3,Q,1\n4,A,1\n5,A,1\n6,A,1\n7,A,1\n"
        path = _write(tmp_path, "m.csv", "id,discipline,weight\n" + body)
        membership, _ = parse_membership(path, fix7_graph)
        assert membership.labels == ("Q", "A")

    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from("1234567"),
                st.sampled_from(["A", "B", "C", UNCLASSIFIED]),
                st.floats(min_value=1e-3, max_value=1e3),
            ),
            max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_matches_row_by_row_grouping(self, tmp_path_factory, rows):
        fix7_graph, _ = build_graph(
            NodeTable.from_pairs(FIX7_NODES), [EdgeTable.from_pairs(FIX7_EDGES)]
        )
        body = "".join(f"{nid},{label},{weight!r}\n" for nid, label, weight in rows)
        text = "id,discipline,weight\n" + body
        path = _write(tmp_path_factory.mktemp("membership"), "m.csv", text)
        membership, _ = parse_membership(path, fix7_graph)
        labels, dense = _membership_by_rows(rows, fix7_graph)
        assert membership.labels == labels
        assert as_scipy(membership).has_canonical_format  # sorted, no repeats
        assert as_scipy(membership).toarray().tobytes() == dense.tobytes()

    @given(
        weights=st.lists(
            st.integers(min_value=1, max_value=50), min_size=1, max_size=5
        )
    )
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_rows_always_sum_to_one(self, tmp_path_factory, weights):
        tmp_path = tmp_path_factory.mktemp("membership")
        nodes = [("a", PubTime(2016, 1))]
        graph, _ = build_graph(NodeTable.from_pairs(nodes), [EdgeTable.from_pairs([])])
        body = "".join(f"a,d{j},{w}\n" for j, w in enumerate(weights))
        path = _write(tmp_path, "m.csv", "id,discipline,weight\n" + body)
        membership, _ = parse_membership(path, graph)
        row = as_scipy(membership).toarray()[0]
        assert np.all(row >= 0)
        assert abs(math.fsum(row) - 1.0) <= 1e-9


def _membership_by_rows(rows, graph):
    """Labels and dense weights, grouped and renormalized one row at a time."""
    per_node: dict[int, dict[str, float]] = {}
    for node_id, label, weight in rows:
        bucket = per_node.setdefault(graph.id_index[node_id], {})
        bucket[label] = bucket.get(label, 0.0) + weight
    labels = list(dict.fromkeys(label for _, label, _ in rows))
    if len(per_node) < graph.n and UNCLASSIFIED not in labels:
        labels.append(UNCLASSIFIED)
    dense = np.zeros((graph.n, len(labels)))
    for i in range(graph.n):
        bucket = per_node.get(i, {UNCLASSIFIED: 1.0})
        total = math.fsum(bucket.values())
        for label, weight in bucket.items():
            dense[i, labels.index(label)] = weight / total
    return tuple(labels), dense


def _rows(path, header):
    """``_csv_rows`` over the file ``path``."""
    return citegraph._csv_rows(path, header)


# The row-by-row checks that once worded ingest's errors, kept as the
# oracle of the column checks.


def _check_node_rows(path) -> list[str]:
    """Check the publication table row by row.

    Returns the blank-month warnings, each with its line number.

    Raises:
        IngestError: the first bad row, with its line number.
    """
    warnings: list[str] = []
    seen: dict[str, int] = {}
    for lineno, (node_id, year_s, month_s) in _rows(path, citegraph.NODE_HEADER):
        if not node_id:
            raise IngestError(f"{path}: line {lineno}: empty node id")
        if node_id in seen:
            raise IngestError(
                f"{path}: line {lineno}: duplicate node id {node_id} "
                f"(first on line {seen[node_id]})"
            )
        try:
            year = int(year_s)
        except ValueError:
            raise IngestError(
                f"{path}: line {lineno}: year {year_s!r} is not an integer"
            ) from None
        if abs(year) > MAX_YEAR:
            raise IngestError(
                f"{path}: line {lineno}: year {year} outside -{MAX_YEAR}..{MAX_YEAR}"
            )
        if not month_s:
            warnings.append(
                f"node {node_id}: blank month defaults to 1 (line {lineno})"
            )
        else:
            try:
                month = int(month_s)
            except ValueError:
                raise IngestError(
                    f"{path}: line {lineno}: month {month_s!r} is not an integer"
                ) from None
            if not 1 <= month <= 12:
                raise IngestError(
                    f"{path}: line {lineno}: month {month} outside 1..12"
                )
        seen[node_id] = lineno
    return warnings


def _check_edge_rows(path) -> None:
    """Check the citation table row by row.

    Raises:
        IngestError: the first bad row, with its line number.
    """
    for lineno, (citing, cited) in _rows(path, citegraph.EDGE_HEADER):
        if not citing:
            raise IngestError(f"{path}: line {lineno}: missing citing id")
        if not cited:
            raise IngestError(f"{path}: line {lineno}: missing cited id")


def _check_membership_rows(path, graph: CitationGraph) -> None:
    """Check the classification row by row.

    Raises:
        IngestError: the first bad row, with its line number.
    """
    # Per publication, the weight of each discipline summed in file
    # order, as parse_membership adds up repeated rows.
    cells: dict[str, dict[str, float]] = {}
    for lineno, (node_id, label, weight_s) in _rows(path, citegraph.MEMBERSHIP_HEADER):
        if not node_id or not label:
            raise IngestError(f"{path}: line {lineno}: empty id or discipline")
        try:
            weight = float(weight_s)
        except ValueError:
            raise IngestError(
                f"{path}: line {lineno}: weight {weight_s!r} is not a number"
            ) from None
        if not weight > 0 or not math.isfinite(weight):
            raise IngestError(
                f"{path}: line {lineno}: nonpositive weight {weight_s} for {node_id}"
            )
        if node_id not in graph.id_index:
            raise IngestError(
                f"{path}: line {lineno}: membership references unknown id {node_id!r}"
            )
        cell = cells.setdefault(node_id, {})
        cell[label] = cell.get(label, 0.0) + weight
        if not math.isfinite(citegraph._weight_sum(cell.values())):
            raise IngestError(
                f"{path}: line {lineno}: weights for {node_id} sum beyond "
                "the float range"
            )


def _fix7_graph():
    graph, _ = build_graph(
        NodeTable.from_pairs(FIX7_NODES), [EdgeTable.from_pairs(FIX7_EDGES)]
    )
    return graph


def _edges_against_fix7(path) -> None:
    """parse_edges, then build_graph on the FIX7 nodes, as ``validate`` runs them."""
    edges = parse_edges(path)
    try:
        build_graph(NodeTable.from_pairs(FIX7_NODES), edges)
    except citegraph.UnknownIdError as exc:
        raise exc.at(path) from None


def _edge_rows_against_fix7(path) -> None:
    """The oracle of ``_edges_against_fix7``: row checks, then the first
    row naming an id that FIX7 lacks."""
    _check_edge_rows(path)
    known = {node_id for node_id, _ in FIX7_NODES}
    for lineno, row in _rows(path, citegraph.EDGE_HEADER):
        for role, node_id in zip(("citing", "cited"), row):
            if node_id not in known:
                raise IngestError(
                    f"{path}: line {lineno}: unknown {role} id {node_id!r}"
                )


# Each input file, read by ingest and by its oracle. Only the node
# table's readers return something: its blank-month warnings.
_READERS = {
    "nodes": (lambda path: parse_nodes(path)[1], _check_node_rows),
    "edges": (_edges_against_fix7, _edge_rows_against_fix7),
    "membership": (
        lambda path: parse_membership(path, _fix7_graph()) and None,
        lambda path: _check_membership_rows(path, _fix7_graph()),
    ),
}
_TEXTS = {"nodes": NODES_CSV, "edges": EDGES_CSV, "membership": MEMBERSHIP_CSV}


def _outcome(read, path):
    """What ``read(path)`` returns, or the text of the IngestError it raises."""
    try:
        return read(path)
    except IngestError as exc:
        return str(exc)


class TestColumnChecksMatchRowChecks:
    """Ingest reports what the row checks report, message for message.

    Each file of FIX7 has up to two of its lines mutated, so that a bad
    field on one row meets a structural error on another.
    """

    _mutations = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=8),
            st.integers(min_value=0, max_value=2),
            st.lists(st.sampled_from(sorted(MUTATIONS)), min_size=1, max_size=2),
        ),
        min_size=1,
        max_size=2,
    )

    def _check(self, tmp_path_factory, file, mutations):
        text = _TEXTS[file]
        for line, field, names in mutations:
            text = mutate_line(text, line, field, names)
        path = _write(tmp_path_factory.mktemp(file), f"{file}.csv", text)
        read, oracle = _READERS[file]
        assert _outcome(read, path) == _outcome(oracle, path)

    @given(mutations=_mutations)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_nodes(self, tmp_path_factory, mutations):
        self._check(tmp_path_factory, "nodes", mutations)

    @given(mutations=_mutations)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_edges(self, tmp_path_factory, mutations):
        self._check(tmp_path_factory, "edges", mutations)

    @given(mutations=_mutations)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_membership(self, tmp_path_factory, mutations):
        self._check(tmp_path_factory, "membership", mutations)


_FILLER = "".join(f"x{i},2010,1\n" for i in range(800))


class TestFirstBadRow:
    """Which of two problems ingest reports, and on which line."""

    @pytest.mark.parametrize(
        ("file", "body", "expected"),
        [
            (
                "nodes",
                "a,2016,1\nb,20x6,1\n" + _FILLER + "y\udcff,2010,1\n",
                "{path}: line 3: year '20x6' is not an integer",
            ),
            (
                "nodes",
                "a,2016,1\nb,20x6,1\ny\udcff,2010,1\n",
                "{path}: line 3: year '20x6' is not an integer",
            ),
            (
                "nodes",
                'a,2016,1\n"b\n\udcffc",2016\n',
                "{path}: line 4: 'utf-8' codec can't decode byte 0xff in position 26: "
                "invalid start byte",
            ),
            (
                "nodes",
                "a,2016,1\nb,2016,\udcff" + "9" * 140_000 + "\n",
                "{path}: line 3: 'utf-8' codec can't decode byte 0xff in position 30: "
                "invalid start byte",
            ),
            (
                "nodes",
                "a,2016,1\nb,2016\nc,20x6,1\n",
                "{path}: line 3: expected 3 fields, got 2",
            ),
            (
                "membership",
                "1,X,1e308\n1,Y,1e308\nzzz,X,1\n",
                "{path}: line 3: weights for 1 sum beyond the float range",
            ),
            (
                "membership",
                "1,X,1e308\nzzz,X,1\n1,Y,1e308\n",
                "{path}: line 3: membership references unknown id 'zzz'",
            ),
            (
                "edges",
                '1,2\n"1\n",3\n1,zzz\n',
                "{path}: line 5: unknown cited id 'zzz'",
            ),
            (
                "nodes",
                '"a\nb",2016,1\nc,2016,\n',
                ["node c: blank month defaults to 1 (line 4)"],
            ),
        ],
        ids=[
            "bad-row-before-undecodable-byte-past-8-kib",
            "bad-row-before-undecodable-byte-under-8-kib",
            "undecodable-byte-in-short-multiline-row-under-8-kib",
            "undecodable-byte-in-overlong-field-under-8-kib",
            "short-line-before-bad-year",
            "overflow-before-unknown-id",
            "unknown-id-before-overflow",
            "unknown-edge-id-after-multiline-field",
            "blank-month-after-multiline-field",
        ],
    )
    def test_reports_the_first(self, request, tmp_path, file, body, expected):
        header = _TEXTS[file].partition("\n")[0]
        # "\udcff" writes the byte 0xff, which is not UTF-8.
        data = (header + "\n" + body).encode("utf-8", "surrogateescape")
        # The byte lies where the id says: within the first 8 KiB (the first
        # chunk of a chunked text reader) or past them.
        if b"\xff" in data:
            under = request.node.callspec.id.endswith("under-8-kib")
            assert (data.index(b"\xff") < 8192) == under
        path = tmp_path / f"{file}.csv"
        path.write_bytes(data)
        read, oracle = _READERS[file]
        if isinstance(expected, str):
            expected = expected.format(path=path)
        assert _outcome(read, path) == expected
        assert _outcome(oracle, path) == expected


def _edges_against_no_nodes(path) -> None:
    """parse_edges, then build_graph on an empty node table."""
    build_graph(NodeTable.from_pairs([]), parse_edges(path))


def _edge_rows_against_no_nodes(path) -> None:
    """The oracle of ``_edges_against_no_nodes``: row checks, then zero nodes."""
    _check_edge_rows(path)
    raise IngestError("zero nodes: cannot build a citation graph")


_NODE_TABLES = {
    "fix7": (_edges_against_fix7, _edge_rows_against_fix7),
    "empty": (_edges_against_no_nodes, _edge_rows_against_no_nodes),
}


@st.composite
def _edge_files(draw):
    """Bytes of an edge table whose ids are FIX7's, unknown or blank, with
    maybe a row of a wrong field count, in LF or CRLF, with or without a
    BOM, quotes around every field or a final newline."""
    ids = st.sampled_from([*"1234567", "zz", "", " "])
    pairs = st.lists(st.lists(ids, min_size=2, max_size=2))
    rows = [list(citegraph.EDGE_HEADER), *draw(pairs)]
    if draw(st.booleans()):
        width = draw(st.sampled_from([1, 3]))
        at = draw(st.integers(min_value=1, max_value=len(rows)))
        rows.insert(at, draw(st.lists(ids, min_size=width, max_size=width)))
    quote = draw(st.booleans())
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(
        ",".join(f'"{f}"' if quote else f for f in row) for row in rows
    )
    text += draw(st.sampled_from([newline, ""]))
    return (draw(st.sampled_from(["", "\ufeff"])) + text).encode()


class TestEdgeBlocks:
    """With blocks of a few characters, a small edge table spans many
    blocks, and ingest still reports what the row checks report."""

    @pytest.mark.parametrize(
        ("nodes", "text", "expected"),
        [
            (
                "fix7",
                "citing,cited\n1,2\n1,zz\n2,4\n2,5\n,3\n",
                "{path}: line 6: missing citing id",
            ),
            (
                "fix7",
                "citing,cited\n1,zz\n2,4\n2,5\n3\n",
                "{path}: line 5: expected 2 fields, got 1",
            ),
            (
                "fix7",
                "citing,cited\n1,2\n2,4\n2,5\n5,zz\n",
                "{path}: line 5: unknown cited id 'zz'",
            ),
            (
                "empty",
                "citing,cited\n1,2\n2,4\n",
                "zero nodes: cannot build a citation graph",
            ),
            ("empty", "citing,cited\n1,2\n2,\n", "{path}: line 3: missing cited id"),
            (
                "fix7",
                '\ufeff"citing","cited"\r\n"1","zz"\r\n"2","4"\r\n"2",""',
                "{path}: line 4: missing cited id",
            ),
            (
                "fix7",
                "\ufeffciting,cited\r\n1,2\r\n2,4\r\n5,zz",
                "{path}: line 4: unknown cited id 'zz'",
            ),
        ],
        ids=[
            "blank-id-in-a-later-block-than-an-unknown-id",
            "wrong-field-count-in-a-later-block",
            "unknown-id-in-a-later-block",
            "empty-node-table",
            "blank-id-before-zero-nodes",
            "quoted-crlf-bom-without-final-newline",
            "plain-crlf-bom-without-final-newline",
        ],
    )
    def test_reports_the_first(self, tmp_path, nodes, text, expected):
        path = _write(tmp_path, "edges.csv", text)
        read, oracle = _NODE_TABLES[nodes]
        with mock.patch.object(citegraph, "_BLOCK", 4):
            assert _outcome(read, path) == expected.format(path=path)
            assert _outcome(oracle, path) == expected.format(path=path)

    def test_unknown_id_names_its_edge(self, tmp_path):
        path = _write(tmp_path, "edges.csv", "citing,cited\n1,2\n2,4\n2,5\n5,zz\n")
        with (
            mock.patch.object(citegraph, "_BLOCK", 4),
            pytest.raises(citegraph.UnknownIdError, match="^edge 4: unknown cited"),
        ):
            build_graph(NodeTable.from_pairs(FIX7_NODES), parse_edges(path))

    @given(
        data=_edge_files(),
        block=st.integers(min_value=1, max_value=24),
        nodes=st.sampled_from(sorted(_NODE_TABLES)),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_the_row_checks(self, tmp_path_factory, data, block, nodes):
        path = tmp_path_factory.mktemp("edges") / "edges.csv"
        path.write_bytes(data)
        read, oracle = _NODE_TABLES[nodes]
        with mock.patch.object(citegraph, "_BLOCK", block):
            assert _outcome(read, path) == _outcome(oracle, path)


class TestRandomDagInvariants:
    @pytest.mark.parametrize("seed", [0, 5, 42])
    def test_generated_graphs_satisfy_invariants(self, seed):
        graph, membership = random_dag(
            SynthSpec(n=200, target_m=2000, k=8, seed=seed)
        )
        tkey = graph.time_keys
        pairs = set()
        for u in range(graph.n):
            neighbors = graph.out_neighbors(u)
            assert np.all(np.diff(neighbors) > 0)  # sorted, no duplicates
            for v in neighbors:
                assert tkey[u] > tkey[v]
                pairs.add((u, int(v)))
        assert len(pairs) == graph.m
        rows = np.asarray(as_scipy(membership).sum(axis=1)).ravel()
        assert np.allclose(rows, 1.0, atol=1e-9)
        assert membership.data.min() >= 0
        assert as_scipy(membership).has_canonical_format  # sorted, no repeats


def _colliding(keys, bits):
    """A hash that sends every key to slot 0, so each probe round runs."""
    return np.zeros(keys.shape[1], dtype=np.int64)


def _byte_column(path, header):
    """The first column of the table ``path``, which must be read as bytes."""
    with mock.patch.object(citegraph, "_csv_rows", side_effect=AssertionError):
        return citegraph._csv_columns(path, header).columns[0]


class TestIdTable:
    """The id table finds what a dict of the ids finds: the first row of each
    id, and -1 for a field that no id equals."""

    # Ids of 1 to 24 bytes (one to three words), many of them prefixes of
    # others; queries also blank, or longer than every id.
    _ids = st.lists(st.text(alphabet="p01", min_size=1, max_size=24), max_size=30)
    _queries = st.lists(st.text(alphabet="p01", max_size=30), max_size=30)

    @staticmethod
    def _oracle(ids) -> dict[str, int]:
        first: dict[str, int] = {}
        for i, node_id in enumerate(ids):
            first.setdefault(node_id, i)
        return first

    # Keys of one word at most, or of up to _WORDS: ids longer than the
    # words of their key are compared as whole strings on a hit.
    _words = st.sampled_from([1, citegraph._WORDS])

    @given(ids=_ids, queries=_queries, collide=st.booleans(), words=_words)
    @example(ids=["p0000000", "p1", "p10", "p1"], queries=["p00000001", "p1", ""],
             collide=False, words=citegraph._WORDS)
    @example(ids=["p00000000", "p00000001", "p00000000"],
             queries=["p00000001", "p00000002", "p0000000"], collide=True, words=1)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_a_dict_as_bytes(
        self, tmp_path_factory, ids, queries, collide, words
    ):
        folder = tmp_path_factory.mktemp("ids")
        nodes, edges = folder / "nodes.csv", folder / "edges.csv"
        nodes.write_text("id,year,month\n" + "".join(f"{i},2000,1\n" for i in ids))
        edges.write_text("citing,cited\n" + "".join(f"{q},{q}\n" for q in queries))
        hash_ = _colliding if collide else citegraph._hash
        with (
            mock.patch.object(citegraph, "_hash", hash_),
            mock.patch.object(citegraph, "_WORDS", words),
        ):
            table = citegraph.IdTable(_byte_column(nodes, citegraph.NODE_HEADER))
            found = table.find(_byte_column(edges, citegraph.EDGE_HEADER))
        first = self._oracle(ids)
        assert table.first.tolist() == [first[i] for i in ids]
        assert found.tolist() == [first.get(q, -1) for q in queries]

    @given(
        ids=st.lists(st.text(max_size=12), max_size=20),
        queries=st.lists(st.text(max_size=12), max_size=20),
        collide=st.booleans(),
        words=_words,
    )
    @example(ids=["a", "a\x00", "", "é"], queries=["\x00", "a\x00\x00"], collide=True,
             words=citegraph._WORDS)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_a_dict_as_strings(self, ids, queries, collide, words):
        """Any str, NUL and non-ASCII characters among them: "a" and
        "a\\x00" have the same words and differ only in length."""
        hash_ = _colliding if collide else citegraph._hash
        with (
            mock.patch.object(citegraph, "_hash", hash_),
            mock.patch.object(citegraph, "_WORDS", words),
        ):
            table = citegraph.IdTable(citegraph._Fields.of(ids))
            found = table.find(citegraph._Fields.of([*queries, *ids]))
        first = self._oracle(ids)
        assert table.first.tolist() == [first[i] for i in ids]
        assert found.tolist() == [first.get(q, -1) for q in [*queries, *ids]]


def _graph_outcome(path):
    """The arrays of the graph that the edge table ``path`` builds over FIX7."""
    graph, _ = build_graph(NodeTable.from_pairs(FIX7_NODES), parse_edges(path))
    return graph.indptr.tolist(), graph.indices.tolist()


def _membership_outcome(path):
    membership, warnings = parse_membership(path, _fix7_graph())
    arrays = (membership.indptr, membership.indices, membership.data)
    return membership.labels, [a.tolist() for a in arrays], warnings


_FULL_READERS = {
    "nodes": lambda path: (lambda n, w: (n.ids, n.time_keys.tolist(), w))(
        *parse_nodes(path)
    ),
    "edges": lambda path: _graph_outcome(path),
    "membership": _membership_outcome,
}


class TestByteReaderMatchesTextReader:
    """A table read as bytes, or sent back to the csv reader, or whose
    numbers the byte casts hand back to ``int`` and ``float``, reads as the
    csv reader reads it: the same values, warnings and messages."""

    @pytest.mark.parametrize(
        ("file", "text", "as_bytes"),
        [
            ("nodes", "\ufeffid,year,month\n1,2016,5\n2,2016,\n", True),
            ("edges", "citing,cited\r\n1,2\r\n2,4\r\n", True),
            ("edges", '"citing","cited"\n"1","2"\n', False),
            ("nodes", "id,year,month\n1,2016,5\né,2016,1\n", True),
            ("nodes", "id,year,month\n1,2016,5\n2 ,2016,1\n2,2016,1\n", True),
            ("nodes", "id,year,month\n1,2016,5\n\x1c2,2016,1\n2,2016,1\n", True),
            ("nodes", "id,year,month\n1,2016,5\n\xa02,2016,1\n2,2016,1\n", False),
            ("nodes", "id,year,month\n1,1_999,5\n2,+2016,0012\n", True),
            ("nodes", "id,year,month\n1,2016,5\n2,20x6,1\n", True),
            ("nodes", "id,year,month\n1,99999999999999999999,5\n", True),
            ("nodes", "id,year,month\n1,2016,5\n2,2016,1\n1,2015,1\n", True),
            ("membership", "id,discipline,weight\n1,X,1\n2,Y,nan\n", True),
            ("membership", "id,discipline,weight\n1,X,1e308\n1,Y,1e308\n", True),
            ("membership", "id,discipline,weight\n1,X,0.25\n1,Y,inf\n", True),
            ("membership", "id,discipline,weight\n1,Y,.5\n1,X,5.\n3,Y,1\n", True),
            ("edges", "citing,cited\n1,2\n2,123456789\n", True),
            ("edges", "citing,cited\n1,2\n1,\n", True),
            ("membership", f"id,discipline,weight\n1,X,0.{'0' * 70}1\n", True),
            ("nodes", f"id,year,month\n{'x' * 70},2016,1\n{'x' * 70},2015,1\n", True),
        ],
        ids=[
            "bom", "crlf", "quoted", "non-ascii-id", "id-with-space", "id-with-x1c",
            "id-with-nbsp",
            "year-with-underscore-and-signs", "year-not-an-integer",
            "year-beyond-int64", "duplicate-id", "weight-nan", "weights-overflow",
            "weight-inf", "weights-without-leading-or-trailing-digit",
            "edge-id-longer-than-every-node-id", "missing-cited-id",
            "weight-longer-than-a-cast-takes", "duplicate-id-longer-than-a-key",
        ],
    )
    def test_same_outcome(self, tmp_path, file, text, as_bytes):
        path = tmp_path / f"{file}.csv"
        path.write_bytes(text.encode())
        header = _TEXTS[file].partition("\n")[0].split(",")
        assert citegraph._byte_table(path, tuple(header)) is as_bytes
        read = _FULL_READERS[file]
        with mock.patch.object(citegraph, "_byte_table", return_value=False):
            expected = _outcome(read, path)
        assert _outcome(read, path) == expected
