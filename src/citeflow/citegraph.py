"""Citation graph ingestion and indexing.

CSV inputs describe publications (``id,year,month``), citations
(``citing,cited``) and a fractional discipline classification
(``id,discipline,weight``). Graph construction removes synchronous
citations (citing publication not strictly newer than the cited one),
which guarantees the stored graph is a DAG, collapses duplicate edges,
and keeps the adjacency in CSR layout sorted by (citing, cited) so
every downstream computation is reproducible byte for byte. A graph
and a classification are each laid out by one function from index
arrays, ``graph_from_indices`` and ``membership_from_indices``, which
the parsers and the synthetic generator share.

Each table is read and decoded once, then split a block of about 256K
characters of whole lines at a time, into columns with the line of each
row. A plain table (no quotes or NUL, carriage returns only in CRLF line
ends, the same number of fields on every line) is split with
``str.split``; any other file goes through the csv module, whose rows
are grouped into blocks of the same kind. The node and membership
tables join their blocks; ``parse_edges`` yields its blocks, and
``build_graph`` turns each into index arrays before the next is split,
so the id strings of a whole edge table are never alive at once. Each
input rule is a mask over the columns with its message: the first row a
mask rejects is reported with its line, ahead of any reader error that
comes after it (a wrong field count, or a byte that is not UTF-8,
wherever it lies in the file).
"""

from __future__ import annotations

import csv
import io
import math
import operator
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import repeat

import numpy as np

UNCLASSIFIED = "__unclassified__"
# Largest year magnitude whose month key (``PubTime.key``) fits in int64.
MAX_YEAR = 2**63 // 12 - 1
NODE_HEADER = ("id", "year", "month")
EDGE_HEADER = ("citing", "cited")
MEMBERSHIP_HEADER = ("id", "discipline", "weight")


class CiteflowError(Exception):
    """Base error for this package."""


class IngestError(CiteflowError):
    """Fatal problem with an input file or with graph construction."""


class InternalInvariantError(CiteflowError):
    """A structural guarantee failed; indicates a bug, not bad input."""


class UnknownIdError(IngestError):
    """An edge names a publication that the node table lacks."""

    def __init__(self, edge: int, role: str, node_id: str, line: int) -> None:
        super().__init__(f"edge {edge + 1}: unknown {role} id {node_id!r}")
        self.edge = edge
        self.role = role
        self.node_id = node_id
        self.line = line

    def at(self, path) -> IngestError:
        """The same problem, located at its line in the edge file ``path``."""
        return IngestError(
            f"{path}: line {self.line}: unknown {self.role} id {self.node_id!r}"
        )


@dataclass(frozen=True, order=True)
class PubTime:
    """Publication time at month granularity, ordered by (year, month)."""

    year: int
    month: int

    def __post_init__(self) -> None:
        if not 1 <= self.month <= 12:
            raise ValueError(f"month must be in 1..12, got {self.month}")

    def key(self) -> int:
        """Months since year zero; strictly larger means more recent."""
        return self.year * 12 + self.month - 1


@dataclass(frozen=True, eq=False)
class NodeTable:
    """Publications in file order: external ids and int64 month keys.

    ``time_keys[i]`` is ``PubTime.key()`` of the publication ``ids[i]``.
    """

    ids: tuple[str, ...]
    time_keys: np.ndarray

    @classmethod
    def from_pairs(cls, pairs) -> NodeTable:
        """Table of (id, PubTime) pairs, in their order."""
        pairs = list(pairs)
        return cls(
            ids=tuple(nid for nid, _ in pairs),
            time_keys=np.array([t.key() for _, t in pairs], dtype=np.int64),
        )


@dataclass(frozen=True, eq=False)
class EdgeTable:
    """Citations in file order: the citing and cited id and the line of each."""

    citing: Sequence[str]
    cited: Sequence[str]
    lines: Sequence[int]

    @classmethod
    def from_pairs(cls, pairs) -> EdgeTable:
        """Table of (citing id, cited id) pairs, the i-th put on line i + 2."""
        pairs = list(pairs)
        return cls(
            citing=tuple(citing for citing, _ in pairs),
            cited=tuple(cited for _, cited in pairs),
            lines=range(2, len(pairs) + 2),
        )


@dataclass(frozen=True, eq=False)
class CitationGraph:
    """Immutable citation DAG over externally named publications.

    Adjacency is stored citing -> cited in CSR form: the cited
    neighbours of node ``i`` are ``indices[indptr[i]:indptr[i+1]]``,
    sorted ascending. ``time_keys`` holds each node's month key
    (``PubTime.key()``); every stored edge strictly decreases it, which
    rules out cycles. ``heights`` is computed on first use and cached.
    Safe for concurrent reads.
    """

    node_ids: tuple[str, ...]
    time_keys: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    id_index: dict[str, int]
    n: int
    m: int

    @property
    def outdegree(self) -> np.ndarray:
        return np.diff(self.indptr)

    def out_neighbors(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    @cached_property
    def heights(self) -> np.ndarray:
        """Length of the longest path that starts at each publication.

        Computed once, by frontier steps over the edges. It starts from
        all edges, and each step keeps the edges whose cited end still
        begins a path, that is, still cites through a kept edge. After t
        steps an edge is kept exactly when a path of t more edges starts
        at its cited end, so the citing ends of the edges left after t
        steps are the publications of height t + 1 or more; each step
        adds one to the height of the citing ends it finds.

        Raises:
            InternalInvariantError: a step drops no edge, so the edges
                contain a cycle.
        """
        citing = np.repeat(np.arange(self.n), self.outdegree)
        cited = self.indices
        begins = np.zeros(self.n, dtype=bool)
        heights = np.zeros(self.n, dtype=np.int64)
        while cited.size:
            begins[:] = False
            begins[citing] = True
            heights += begins
            keep = begins[cited]
            if keep.all():
                raise InternalInvariantError("cycle detected in citation graph")
            citing, cited = citing[keep], cited[keep]
        heights.setflags(write=False)
        return heights


@dataclass(frozen=True)
class IngestReport:
    """What happened while turning raw edge rows into a graph."""

    nodes_read: int
    edges_read: int
    synchronous_edges_discarded: int
    duplicate_edges_discarded: int
    warnings: tuple[str, ...] = ()

    @property
    def edges_kept(self) -> int:
        return (
            self.edges_read
            - self.synchronous_edges_discarded
            - self.duplicate_edges_discarded
        )


@dataclass(frozen=True, eq=False)
class Membership:
    """Row-stochastic publication-to-discipline weights.

    The n x k weights are held as the CSR arrays ``indptr``, ``indices``
    and ``data``, with each row's disciplines in ascending order and
    none repeated.
    """

    k: int
    labels: tuple[str, ...]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    def sizes(self) -> np.ndarray:
        """Per-discipline publication mass (column sums of the weights),
        each added up in entry order."""
        return np.bincount(self.indices, weights=self.data, minlength=self.k)


# Bytes that the plain-table reader leaves to the csv module, and the
# ASCII characters that str.strip removes (\x1c-\x1f among them).
_CSV_ONLY = (b'"', b"\x00")
_ASCII_SPACE = " \t\x0b\x0c\x1c\x1d\x1e\x1f"
# About how many characters of whole lines are checked, split or looked up
# at a time, so that the fields of a whole file are never alive at once.
_BLOCK = 1 << 18


def _spans(text, newline, start: int = 0):
    """(start, end) of the blocks of ``text`` from ``start`` on: whole lines,
    each ended by ``newline`` but for the last, of about ``_BLOCK`` each (a
    longer line is a block of its own)."""
    while start < len(text):
        end = text.find(newline, start + _BLOCK) + 1 or len(text)
        yield start, end
        start = end


def _read_text(path, width: int) -> tuple[str, bool, tuple[int, IngestError] | None]:
    """The text of the file ``path`` without one leading BOM; whether it is
    a plain table of ``width`` columns (no quote or NUL, carriage returns
    only in CRLF line ends, ``width`` fields of at most
    ``csv.field_size_limit()`` bytes on every line); and None, or the line
    of its first byte that is not UTF-8 and the error that names it. Past
    that byte, the text holds replacement characters.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        bad = lineno, IngestError(f"{path}: line {lineno}: {exc}")
        return data.decode("utf-8", "replace").removeprefix("\ufeff"), False, bad
    if any(c in data for c in _CSV_ONLY) or (
        b"\r" in data and data.count(b"\r") != data.count(b"\r\n")
    ):
        return text, False, None
    # A block of lines at a time: the masks and separator positions of the
    # whole file would take several times its size.
    line = np.frombuffer(b"," * (width - 1) + b"\n", dtype=np.uint8)
    for start, end in _spans(data, b"\n"):
        buf = np.frombuffer(data, np.uint8, end - start, start)
        ends = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
        # The end of the file ends a last line that lacks its newline.
        count = ends.size + (not data.endswith(b"\n", start, end))
        if not (
            count % width == 0
            and np.array_equal(buf[ends], np.tile(line, count // width)[: ends.size])
            and int(np.diff(ends, prepend=-1, append=buf.size).max()) - 1
            <= csv.field_size_limit()
        ):
            return text, False, None
    return text, True, None


def _csv_rows(path, header: tuple[str, ...], text: str, bad):
    """Yield (line number, stripped fields) for each nonblank data row of ``text``.

    The line number is that of the row's last physical line, so it
    stays right after a quoted field that spans lines. ``bad`` is from
    ``_read_text``: rows that end on its line or later are not read, and
    its error follows the rows before them.

    Raises:
        IngestError: wrong header, wrong field count, a row the csv
            module rejects (such as an overlong field), or ``bad``'s error.
    """
    end, error = bad or (math.inf, None)
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        first = next(reader, None)
        if reader.line_num < end and [h.strip() for h in first or ()] != list(header):
            raise IngestError(f"{path}: expected header '{','.join(header)}'")
        for row in reader:
            if reader.line_num >= end:
                break
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise IngestError(
                    f"{path}: line {reader.line_num}: expected {len(header)} "
                    f"fields, got {len(row)}"
                )
            yield reader.line_num, [f.strip() for f in row]
    except csv.Error as exc:
        if reader.line_num < end:
            raise IngestError(f"{path}: line {reader.line_num}: {exc}") from None
    if error is not None:
        raise error


def _plain_fields(text: str, width: int) -> list[str]:
    """Stripped fields of the whole lines ``text`` of a plain table of
    ``width`` columns, in row-major order, as ``_csv_rows`` reads them."""
    if "\r" in text:
        text = text.replace("\r\n", ",")  # so a CRLF text, too, is copied once
    fields = text.replace("\n", ",").split(",")
    del fields[len(fields) // width * width :]  # the "" after a final newline
    if not text.isascii() or any(c in text for c in _ASCII_SPACE):
        fields = list(map(str.strip, fields))
    return fields


@dataclass(frozen=True)
class _Table:
    """Stripped columns of the data rows read from ``path``, their lines,
    and the reader's error after the last row it read, if any."""

    path: object
    columns: list[list[str]]
    lines: Sequence[int]
    error: IngestError | None

    @classmethod
    def block(cls, path, fields: list[str], width: int, lines: Sequence[int]) -> _Table:
        """The rows of ``fields``, ``width`` to a row, as a table without error."""
        return cls(path, [fields[j::width] for j in range(width)], lines, None)

    def at(self, row) -> str:
        return f"{self.path}: line {self.lines[row]}: "

    def check(self, rules) -> None:
        """Raise the error of the first row that a rule rejects, else ``error``.

        A rule pairs a row mask (False when no row fails) with a function
        of the row that words its error; the first rule a row fails wins.
        """
        failed = [(np.argmax(m), k) for k, (m, _) in enumerate(rules) if np.any(m)]
        if failed:
            row, k = min(failed)
            raise IngestError(rules[k][1](int(row)))
        if self.error is not None:
            raise self.error


def _blocks(path, header: tuple[str, ...]) -> Iterator[_Table]:
    """The nonblank data rows of ``path``, in file order, a block of about
    ``_BLOCK`` characters at a time; then the reader's error, if any.

    The file is read and decoded once, when the first block is asked for.
    A plain table is split a block of whole lines at a time; its data row
    i is on line i + 2. Any other file is read by ``_csv_rows``, whose rows
    are grouped into blocks of about the same size; the rows before its
    first failure are yielded before the failure is raised.

    Raises:
        IngestError: wrong header, wrong field count, a row the csv module
            rejects, or a byte that is not UTF-8.
    """
    width = len(header)
    text, plain, bad = _read_text(path, width)
    body = text.find("\n") + 1 or len(text)
    if plain and _plain_fields(text[:body], width) == list(header):
        line = 2
        for start, end in _spans(text, "\n", body):
            fields = _plain_fields(text[start:end], width)
            rows = len(fields) // width
            yield _Table.block(path, fields, width, range(line, line + rows))
            line += rows
            del fields  # so the next block is split without this one
        return
    fields, lines, size, error = [], [], 0, None
    try:
        for lineno, row in _csv_rows(path, header, text, bad):
            fields += row
            lines.append(lineno)
            size += sum(map(len, row))
            if size >= _BLOCK:
                yield _Table.block(path, fields, width, lines)
                fields, lines, size = [], [], 0
    except IngestError as exc:
        error = exc
    if lines:
        yield _Table.block(path, fields, width, lines)
    if error is not None:
        raise error


def _csv_columns(path, header: tuple[str, ...]) -> _Table:
    """The nonblank data rows of ``path`` as columns, in file order: the
    blocks of ``_blocks`` joined, and the error it raises after them."""
    columns, lines, error = [[] for _ in header], array("q"), None
    try:
        for block in _blocks(path, header):
            for column, part in zip(columns, block.columns):
                column += part
            lines.extend(block.lines)
    except IngestError as exc:
        error = exc
    return _Table(path, columns, lines, error)


def _blank(column) -> np.ndarray | bool:
    """Mask of the empty fields of ``column``; False when it has none."""
    return "" in column and np.fromiter(map(operator.not_, column), bool, len(column))


def _repeats(column) -> np.ndarray | bool:
    """Mask of the fields an earlier row already holds; False when none does."""
    if len(set(column)) == len(column):
        return False
    seen: set[str] = set()  # seen.add returns None, which reads False
    return np.array([f in seen or seen.add(f) for f in column], dtype=bool)


def _numbers(convert, strings, dtype) -> tuple[np.ndarray, np.ndarray | bool]:
    """``convert`` of each string as a ``dtype`` array, and the mask of the
    strings it rejects (False when none). Only when converting all at once
    fails are they taken one by one: a rejected string reads 0, and an
    integer beyond int64 is clipped to it, so range checks still hold."""
    try:
        return np.fromiter(map(convert, strings), dtype, len(strings)), False
    except (ValueError, OverflowError):
        pass
    values = np.zeros(len(strings), dtype=dtype)
    rejected = np.zeros(len(strings), dtype=bool)
    for i, s in enumerate(strings):
        try:
            values[i] = convert(s)
        except ValueError:
            rejected[i] = True
        except OverflowError:
            values[i] = np.iinfo(dtype).max if int(s) > 0 else np.iinfo(dtype).min
    return values, rejected


def parse_nodes(path) -> tuple[NodeTable, list[str]]:
    """Read the publication table.

    Returns (nodes, warnings) where nodes holds the ids and month keys
    in file order. A blank month defaults to January with a warning.

    Raises:
        IngestError: bad header, wrong field count, or the first row
            with an empty id, a duplicate id, a non-integer year, a
            year beyond ``MAX_YEAR``, a non-integer month, or a month
            outside 1..12, with its line number.
    """
    table = _csv_columns(path, NODE_HEADER)
    ids, year_s, month_s = table.columns
    years, year_bad = _numbers(int, year_s, np.int64)
    months, month_bad = _numbers(int, [s or "1" for s in month_s], np.int64)
    at, lines = table.at, table.lines
    table.check([
        (_blank(ids), lambda i: f"{at(i)}empty node id"),
        (
            _repeats(ids),
            lambda i: f"{at(i)}duplicate node id {ids[i]} "
            f"(first on line {lines[ids.index(ids[i])]})",
        ),
        (year_bad, lambda i: f"{at(i)}year {year_s[i]!r} is not an integer"),
        (
            (years > MAX_YEAR) | (years < -MAX_YEAR),
            lambda i: f"{at(i)}year {int(year_s[i])} outside -{MAX_YEAR}..{MAX_YEAR}",
        ),
        (month_bad, lambda i: f"{at(i)}month {month_s[i]!r} is not an integer"),
        (
            (months < 1) | (months > 12),
            lambda i: f"{at(i)}month {int(month_s[i])} outside 1..12",
        ),
    ])
    warnings = [
        f"node {ids[i]}: blank month defaults to 1 (line {lines[i]})"
        for i in np.flatnonzero(_blank(month_s))
    ]
    return NodeTable(ids=tuple(ids), time_keys=years * 12 + months - 1), warnings


def parse_edges(path) -> Iterator[EdgeTable]:
    """Read the citation table a block of rows at a time: yield, in file
    order, an EdgeTable of the citing and cited id and the line of each row.

    The file is read when the first block is asked for. ``map`` holds no
    block once it has handed it on, so a block that the caller drops is
    freed before the next one is split.

    Raises, while the blocks are read:
        IngestError: bad header, wrong field count, or the first row
            with a missing citing or cited id, with its line number. A
            missing id is raised with its block; any other error after the
            last block, which holds the rows before it.
    """
    return map(_edge_block, _blocks(path, EDGE_HEADER))


def _edge_block(block: _Table) -> EdgeTable:
    """The edges of one block of the citation table, once no id is missing."""
    citing, cited = block.columns
    block.check([
        (_blank(citing), lambda i: f"{block.at(i)}missing citing id"),
        (_blank(cited), lambda i: f"{block.at(i)}missing cited id"),
    ])
    return EdgeTable(citing=citing, cited=cited, lines=block.lines)


def _indices(id_index: dict[str, int], column) -> np.ndarray:
    """Index of each id of ``column`` in ``id_index``; -1 for an unknown id."""
    return np.fromiter(map(id_index.get, column, repeat(-1)), np.int64, len(column))


def _resolve(id_index: dict[str, int], edges: EdgeTable):
    """The index arrays of the citing and cited ids of ``edges``, and the
    (row, role, id, line) of its first row that names an unknown id, or None."""
    citing, cited = _indices(id_index, edges.citing), _indices(id_index, edges.cited)
    unknown = (citing < 0) | (cited < 0)
    if not unknown.any():
        return citing, cited, None
    row = int(np.argmax(unknown))
    role, ids = ("citing", edges.citing) if citing[row] < 0 else ("cited", edges.cited)
    return citing, cited, (row, role, ids[row], edges.lines[row])


def build_graph(
    nodes: NodeTable, edges: Iterable[EdgeTable]
) -> tuple[CitationGraph, IngestReport]:
    """Look up the ids of the edges, then assemble with ``graph_from_indices``.

    ``edges`` is a sequence of blocks, such as ``parse_edges`` yields or
    ``[EdgeTable.from_pairs(...)]``. Each block is resolved to index arrays
    as it comes; only those arrays and the first unknown id are kept.

    Raises:
        IngestError: what reading ``edges`` raises; then zero nodes.
        UnknownIdError: an edge names an id missing from ``nodes``.
    """
    ids = tuple(nodes.ids)
    id_index = dict(zip(ids, range(len(ids))))
    # An empty array first, so that a table of no blocks concatenates too.
    citing, cited = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    unknown = None
    # map holds no block once resolved, so each is freed before the next is read.
    for block_citing, block_cited, first in map(partial(_resolve, id_index), edges):
        if first is not None and unknown is None:
            row, role, node_id, line = first
            unknown = UnknownIdError(sum(map(len, citing)) + row, role, node_id, line)
        citing.append(block_citing)
        cited.append(block_cited)
    if not ids:
        raise IngestError("zero nodes: cannot build a citation graph")
    if unknown is not None:
        raise unknown
    citing = np.concatenate(citing)
    cited = np.concatenate(cited)
    return graph_from_indices(ids, nodes.time_keys, citing, cited, id_index)


def graph_from_indices(
    ids: tuple[str, ...], time_keys, citing, cited, id_index: dict[str, int]
) -> tuple[CitationGraph, IngestReport]:
    """Assemble a CitationGraph, dropping synchronous and duplicate citations.

    Edge e cites ``ids[cited[e]]`` from ``ids[citing[e]]``; ``ids`` is
    nonempty and ``id_index`` maps each id to its position. Synchronous
    edges, whose citing publication is not newer than the cited one
    (self-loops among them), are discarded; duplicates are collapsed.
    ``citing`` and ``cited`` are int64 arrays, left unchanged.
    """
    n = len(ids)
    tkey = np.array(time_keys, dtype=np.int64)
    keep = tkey[citing] > tkey[cited]
    edges_read = int(keep.size)
    # Sorted, so CSR rows and columns come out ordered. A sort and a mask,
    # not np.unique, which hashes int64 keys and is several times slower.
    key = citing[keep]
    key *= n
    key += cited[keep]
    del keep
    key.sort()
    synchronous = edges_read - int(key.size)
    first = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    unique = key[first]
    duplicates = int(key.size - unique.size)
    del key, first
    rows = unique // n
    indices = np.remainder(unique, n, out=unique)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    m = int(indices.size)
    if m and not np.all(tkey[rows] > tkey[indices]):
        raise InternalInvariantError(
            "stored edge does not strictly decrease publication time"
        )
    for frozen in (tkey, indptr, indices):
        frozen.setflags(write=False)
    graph = CitationGraph(
        node_ids=ids,
        time_keys=tkey,
        indptr=indptr,
        indices=indices,
        id_index=id_index,
        n=n,
        m=m,
    )
    report = IngestReport(
        nodes_read=n,
        edges_read=edges_read,
        synchronous_edges_discarded=synchronous,
        duplicate_edges_discarded=duplicates,
    )
    return graph, report


def longest_path_length(graph: CitationGraph) -> int:
    """Maximum number of edges on any directed path: the largest height.

    The first call on a graph runs the frontier pass behind
    ``CitationGraph.heights``; later calls read the cached heights.

    Raises:
        InternalInvariantError: the edges contain a cycle.
    """
    return int(graph.heights.max())


def parse_membership(path, graph: CitationGraph) -> tuple[Membership, list[str]]:
    """Read the discipline classification and normalize it row-stochastic.

    Rows are grouped per publication and renormalized to sum to one
    (with a warning when the raw sum is off by more than 1e-9).
    Publications without any row are assigned to a synthetic
    ``__unclassified__`` discipline. Discipline label order is
    first-appearance order, with the synthetic label last.

    Raises:
        IngestError: bad header, wrong field count, or the first row
            with an empty id or discipline, a weight that is not a
            number, a weight that is not positive and finite, an unknown
            id, or the weights of one publication summing beyond the
            float range, with its line number.
        InternalInvariantError: the sums overflow, but no row does.
    """
    table = _csv_columns(path, MEMBERSHIP_HEADER)
    ids, labels, weight_s = table.columns
    weight, not_number = _numbers(float, weight_s, np.float64)
    positive = (weight > 0) & np.isfinite(weight)
    node = _indices(graph.id_index, ids)
    at = table.at
    rules = [
        (_blank(ids) | _blank(labels), lambda i: f"{at(i)}empty id or discipline"),
        (not_number, lambda i: f"{at(i)}weight {weight_s[i]!r} is not a number"),
        (~positive, lambda i: f"{at(i)}nonpositive weight {weight_s[i]} for {ids[i]}"),
        (node < 0, lambda i: f"{at(i)}membership references unknown id {ids[i]!r}"),
    ]
    if table.error is None and not any(np.any(mask) for mask, _ in rules):
        # A publication without a row goes to the synthetic discipline,
        # which comes last unless the file names it.
        missing = np.flatnonzero(np.bincount(node, minlength=graph.n) == 0)
        cell_labels = labels + [UNCLASSIFIED] * missing.size
        label_pos = {label: j for j, label in enumerate(dict.fromkeys(cell_labels))}
        col = np.fromiter(map(label_pos.__getitem__, cell_labels), np.int64)
        try:
            membership, total = membership_from_indices(
                graph.n, tuple(label_pos), np.concatenate([node, missing]), col,
                np.concatenate([weight, np.ones(missing.size)]),
            )
        except OverflowError:
            pass  # the rules below find the row
        else:
            warnings = [
                f"publication {graph.node_ids[i]} has no membership row, "
                f"assigned to {UNCLASSIFIED}"
                for i in missing
            ]
            warnings += [
                f"membership rows for {graph.node_ids[i]} sum to "
                f"{float(total[i]):.12g}; renormalized to 1"
                for i in np.flatnonzero(np.abs(total - 1.0) > 1e-9)
            ]
            return membership, warnings
    # From the first row another rule rejects on, no overflow is reported.
    end = min((np.argmax(m) for m, _ in rules if np.any(m)), default=len(ids))
    rules.append((
        _overflows(ids, labels, weight, positive[:end]),
        lambda i: f"{at(i)}weights for {ids[i]} sum beyond the float range",
    ))
    table.check(rules)
    raise InternalInvariantError(f"{path}: weights overflow, but on no row")


def membership_from_indices(
    n: int, labels: tuple[str, ...], node, col, weight
) -> tuple[Membership, np.ndarray]:
    """Assemble a row-stochastic Membership from index arrays.

    Entry e gives publication ``node[e]`` the positive weight
    ``weight[e]`` in discipline ``labels[col[e]]``. Entries repeating a
    (publication, discipline) cell add up in entry order, and each row is
    divided by its exactly rounded total; a publication without an entry
    keeps an empty row. Returns the membership and the row totals.

    Raises:
        OverflowError: a cell or a row total lies beyond the float range.
    """
    k = len(labels)
    # bincount adds up the entries of each cell sequentially.
    cell, inverse = np.unique(node * k + col, return_inverse=True)
    value = np.bincount(inverse, weights=weight)
    row = cell // k
    indptr = np.searchsorted(row, np.arange(n + 1))
    # A sum of one or two floats is already rounded exactly; longer
    # (and overflowing) rows go through math.fsum.
    total = np.bincount(row, weights=value, minlength=n)
    for i in np.flatnonzero((np.diff(indptr) > 2) | ~np.isfinite(total)):
        total[i] = _weight_sum(value[indptr[i] : indptr[i + 1]].tolist())
    if not np.all(np.isfinite(total)):
        raise OverflowError("membership weights sum beyond the float range")
    membership = Membership(
        k=k, labels=labels, indptr=indptr, indices=cell % k, data=value / total[row]
    )
    return membership, total


def _weight_sum(values) -> float:
    """Exactly rounded sum of positive weights; inf beyond the float range."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def _overflows(ids, labels, weight, positive) -> np.ndarray:
    """Mask of the rows from which the weights of their publication, of
    the rows ``positive`` marks, added up per discipline in file order as
    in ``parse_membership``, no longer sum exactly to a finite number."""
    cells: dict[str, dict[str, float]] = {}
    mask = np.zeros(len(ids), dtype=bool)
    values = weight.tolist()
    for i in np.flatnonzero(positive).tolist():
        cell = cells.setdefault(ids[i], {})
        cell[labels[i]] = cell.get(labels[i], 0.0) + values[i]
        mask[i] = not math.isfinite(_weight_sum(cell.values()))
    return mask
