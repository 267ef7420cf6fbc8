"""Citation graph ingestion and indexing.

CSV inputs describe publications (``id,year,month``), citations
(``citing,cited``) and a fractional discipline classification
(``id,discipline,weight``). Graph construction removes synchronous
citations (citing publication not strictly newer than the cited one),
which guarantees the stored graph is a DAG, collapses duplicate edges,
and keeps the adjacency in CSR layout sorted by (citing, cited) so
every downstream computation is reproducible byte for byte.

All three tables are read into columns and checked with array masks.
A plain table (no quotes or NUL, carriage returns only in CRLF line
ends, the same number of fields on every line) is split with
``str.split``; any other file goes through the csv module. Only when a
check fails is the file read again row by row, to report the first bad
row with its line number; bytes that are not UTF-8 are reported with
the line that holds the first of them.
"""

from __future__ import annotations

import csv
import heapq
import math
from contextlib import closing
from dataclasses import dataclass
from functools import cached_property
from itertools import islice, repeat

import numpy as np
from scipy import sparse

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

    def __init__(self, edge: int, role: str, node_id: str) -> None:
        super().__init__(f"edge {edge + 1}: unknown {role} id {node_id!r}")
        self.edge = edge
        self.role = role
        self.node_id = node_id

    def at(self, path) -> IngestError:
        """The same problem, located at its line in the edge file ``path``."""
        lineno = _row_line(path, EDGE_HEADER, self.edge)
        return IngestError(
            f"{path}: line {lineno}: unknown {self.role} id {self.node_id!r}"
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
    """Citations in file order: the citing and the cited id of each edge."""

    citing: tuple[str, ...]
    cited: tuple[str, ...]

    @classmethod
    def from_pairs(cls, pairs) -> EdgeTable:
        """Table of (citing id, cited id) pairs, in their order."""
        pairs = list(pairs)
        return cls(
            citing=tuple(citing for citing, _ in pairs),
            cited=tuple(cited for _, cited in pairs),
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
    """Row-stochastic publication-to-discipline weights (n x k, sparse)."""

    k: int
    labels: tuple[str, ...]
    weights: sparse.csr_matrix

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def sizes(self) -> np.ndarray:
        """Per-discipline publication mass (column sums of the weights)."""
        return np.asarray(self.weights.sum(axis=0)).ravel()


def _csv_rows(path, header: tuple[str, ...]):
    """Yield (line number, stripped fields) for each nonblank data row.

    The line number is that of the row's last physical line, so it
    stays right after a quoted field that spans lines.

    Raises:
        IngestError: wrong header, wrong field count, or a row the csv
            module rejects (such as an overlong field).
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader, None)
            if first is None or [h.strip() for h in first] != list(header):
                raise IngestError(f"{path}: expected header '{','.join(header)}'")
            for row in reader:
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != len(header):
                    raise IngestError(
                        f"{path}: line {reader.line_num}: expected {len(header)} "
                        f"fields, got {len(row)}"
                    )
                yield reader.line_num, [f.strip() for f in row]
        except csv.Error as exc:
            raise IngestError(f"{path}: line {reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            raise _decode_error(path) from None


def _decode_error(path) -> IngestError:
    """The first invalid UTF-8 byte of ``path``, with its line.

    The text reader decodes in chunks and reports a position within
    its chunk, so the whole file is decoded again to find the byte.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        return IngestError(f"{path}: line {lineno}: {exc}")
    raise InternalInvariantError(f"{path}: the text reader rejected valid UTF-8")


def _row_line(path, header: tuple[str, ...], index: int) -> int:
    """Physical line number of the data row at 0-based ``index``."""
    with closing(_csv_rows(path, header)) as rows:
        return next(islice(rows, index, None))[0]


# Bytes that the plain-table reader leaves to the csv module, and the
# ASCII bytes that str.strip removes (\x1c-\x1f among them).
_CSV_ONLY = (b'"', b"\x00")
_ASCII_SPACE = tuple(bytes([c]) for c in b" \t\x0b\x0c\x1c\x1d\x1e\x1f")


def _plain_fields(path, header: tuple[str, ...]) -> list[str] | None:
    """Stripped fields of the data rows in row-major order, or None.

    Handles a plain table: valid UTF-8 (a leading BOM is dropped)
    without a quote or NUL, whose every carriage return ends a line
    (CRLF), and whose every line, the header included, holds
    ``len(header)`` fields of at most ``csv.field_size_limit()`` bytes.
    Such a file is split exactly as ``_csv_rows`` would read it.
    Returns None for any other file, blank lines included.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data and not data.endswith(b"\n"):
        data += b"\n"
    if any(c in data for c in _CSV_ONLY):
        return None
    if b"\r" in data:
        if data.count(b"\r") != data.count(b"\r\n"):
            return None
        data = data.replace(b"\r\n", b"\n")
    buf = np.frombuffer(data, dtype=np.uint8)
    width = len(header)
    ends = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
    if not ends.size or ends.size % width:
        return None
    line = np.frombuffer(b"," * (width - 1) + b"\n", dtype=np.uint8)
    if not np.all(buf[ends].reshape(-1, width) == line):
        return None
    if int(np.diff(ends, prepend=-1).max()) - 1 > csv.field_size_limit():
        return None
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError:
        return None
    fields = text.replace("\n", ",").split(",")
    del fields[-1]  # the empty string after the last newline
    if not data.isascii() or any(c in data for c in _ASCII_SPACE):
        fields = list(map(str.strip, fields))
    if fields[:width] != list(header):
        return None
    del fields[:width]
    return fields


def _csv_columns(path, header: tuple[str, ...]) -> list[list[str]] | None:
    """Stripped columns of the nonblank data rows, in file order.

    Returns None when the file is not a clean table: a wrong header, a
    row with the wrong number of fields, a row the csv module rejects,
    or bytes that are not UTF-8. ``_csv_rows`` then names the line.
    """
    fields = _plain_fields(path, header)
    if fields is None:
        try:
            fields = [f for _, row in _csv_rows(path, header) for f in row]
        except IngestError:
            return None
    width = len(header)
    return [fields[j::width] for j in range(width)]


def _disagree(path) -> InternalInvariantError:
    return InternalInvariantError(
        f"{path}: the column checks rejected a table that the row checks accept"
    )


def parse_nodes(path) -> tuple[NodeTable, list[str]]:
    """Read the publication table.

    Returns (nodes, warnings) where nodes holds the ids and month keys
    in file order. A blank month defaults to January with a warning.

    Raises:
        IngestError: bad header, duplicate id, non-integer year, year
            beyond ``MAX_YEAR``, or month outside 1..12.
    """
    columns = _csv_columns(path, NODE_HEADER)
    nodes = None if columns is None else _node_table(*columns)
    if nodes is None:
        _check_node_rows(path)
        raise _disagree(path)
    warnings = _check_node_rows(path) if "" in columns[2] else []
    return nodes, warnings


def _node_table(ids, year_s, month_s) -> NodeTable | None:
    """The node table of the columns, or None when a row fails a check."""
    if "" in ids or len(set(ids)) != len(ids):
        return None
    try:
        years = np.fromiter(map(int, year_s), dtype=np.int64, count=len(ids))
        months = np.fromiter(
            map(int, [s or "1" for s in month_s]), dtype=np.int64, count=len(ids)
        )
    except (ValueError, OverflowError):
        return None
    if np.any((years > MAX_YEAR) | (years < -MAX_YEAR) | (months < 1) | (months > 12)):
        return None
    return NodeTable(ids=tuple(ids), time_keys=years * 12 + months - 1)


def _check_node_rows(path) -> list[str]:
    """Check the publication table row by row.

    Returns the blank-month warnings, each with its line number.

    Raises:
        IngestError: the first bad row, with its line number.
    """
    warnings: list[str] = []
    seen: dict[str, int] = {}
    for lineno, (node_id, year_s, month_s) in _csv_rows(path, NODE_HEADER):
        if not node_id:
            raise IngestError(f"{path}: line {lineno}: empty node id")
        if node_id in seen:
            raise IngestError(
                f"duplicate node id {node_id} (lines {seen[node_id]} and {lineno})"
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


def parse_edges(path) -> EdgeTable:
    """Read the citation table: the citing and cited id of each row.

    Raises:
        IngestError: bad header, wrong field count, or a missing id,
            with its line number.
    """
    columns = _csv_columns(path, EDGE_HEADER)
    if columns is None or "" in columns[0] or "" in columns[1]:
        _check_edge_rows(path)
        raise _disagree(path)
    return EdgeTable(citing=tuple(columns[0]), cited=tuple(columns[1]))


def _check_edge_rows(path) -> None:
    """Check the citation table row by row.

    Raises:
        IngestError: the first bad row, with its line number.
    """
    for lineno, (citing, cited) in _csv_rows(path, EDGE_HEADER):
        if not citing:
            raise IngestError(f"missing citing id on line {lineno}")
        if not cited:
            raise IngestError(f"missing cited id on line {lineno}")


def build_graph(
    nodes: NodeTable, edges: EdgeTable
) -> tuple[CitationGraph, IngestReport]:
    """Assemble a CitationGraph, dropping synchronous and duplicate citations.

    An edge is synchronous when the citing publication's time is the
    same as, or older than, the cited one's; those edges are discarded
    (self-loops fall under this rule). Duplicate surviving edges are
    collapsed and counted.

    Raises:
        IngestError: zero nodes.
        UnknownIdError: an edge names an id missing from ``nodes``.
    """
    ids = tuple(nodes.ids)
    n = len(ids)
    if not n:
        raise IngestError("zero nodes: cannot build a citation graph")
    id_index = dict(zip(ids, range(n)))
    tkey = np.array(nodes.time_keys, dtype=np.int64)

    e_total = len(edges.citing)
    citing, cited = (
        np.fromiter(
            map(id_index.get, column, repeat(-1)), dtype=np.int64, count=e_total
        )
        for column in (edges.citing, edges.cited)
    )
    unknown = (citing < 0) | (cited < 0)
    if unknown.any():
        pos = int(np.argmax(unknown))
        if citing[pos] < 0:
            raise UnknownIdError(pos, "citing", edges.citing[pos])
        raise UnknownIdError(pos, "cited", edges.cited[pos])

    keep = tkey[citing] > tkey[cited]
    synchronous = int(e_total - int(keep.sum()))
    # Sorted, so CSR rows and columns come out ordered. A sort and a mask,
    # not np.unique, which hashes int64 keys and is several times slower.
    key = np.sort(citing[keep] * n + cited[keep])
    first = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    unique = key[first]
    duplicates = int(key.size - unique.size)
    rows = unique // n
    cols = unique % n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    indices = cols.astype(np.int64)
    m = int(unique.size)
    if m and not np.all(tkey[rows] > tkey[cols]):
        raise InternalInvariantError(
            "stored edge does not strictly decrease publication time"
        )
    for array in (tkey, indptr, indices):
        array.setflags(write=False)
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
        edges_read=e_total,
        synchronous_edges_discarded=synchronous,
        duplicate_edges_discarded=duplicates,
    )
    return graph, report


def topological_order(graph: CitationGraph) -> np.ndarray:
    """Permutation of node indices in which every citer precedes its cited.

    Ties are broken by ascending external id, so the order, and
    everything derived from it, is reproducible across runs.
    """
    if graph.m:
        indeg = np.bincount(graph.indices, minlength=graph.n).astype(np.int64)
    else:
        indeg = np.zeros(graph.n, dtype=np.int64)
    heap = [(graph.node_ids[i], i) for i in range(graph.n) if indeg[i] == 0]
    heapq.heapify(heap)
    order = np.empty(graph.n, dtype=np.int64)
    filled = 0
    indptr, indices, node_ids = graph.indptr, graph.indices, graph.node_ids
    while heap:
        _, u = heapq.heappop(heap)
        order[filled] = u
        filled += 1
        for v in indices[indptr[u] : indptr[u + 1]]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(heap, (node_ids[v], int(v)))
    if filled != graph.n:
        raise InternalInvariantError("cycle detected in citation graph")
    return order


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
        IngestError: bad header, nonpositive weight, unknown id, or
            weights of one publication that sum beyond the float range.
    """
    columns = _csv_columns(path, MEMBERSHIP_HEADER)
    entries = None if columns is None else _membership_entries(graph, *columns)
    if entries is None:
        _check_membership_rows(path, graph)
        raise _disagree(path)
    node, weight = entries
    label_order = list(dict.fromkeys(columns[1]))
    label_pos = {label: j for j, label in enumerate(label_order)}
    col = np.fromiter(
        map(label_pos.__getitem__, columns[1]), dtype=np.int64, count=node.size
    )
    warnings: list[str] = []
    present = np.zeros(graph.n, dtype=bool)
    present[node] = True
    missing = np.flatnonzero(~present)
    if missing.size:
        if UNCLASSIFIED not in label_pos:
            label_pos[UNCLASSIFIED] = len(label_order)
            label_order.append(UNCLASSIFIED)
        node = np.concatenate([node, missing])
        col = np.concatenate([col, np.full(missing.size, label_pos[UNCLASSIFIED])])
        weight = np.concatenate([weight, np.ones(missing.size)])
        warnings.extend(
            f"publication {graph.node_ids[i]} has no membership row, "
            f"assigned to {UNCLASSIFIED}"
            for i in missing
        )

    # Rows repeating a (publication, discipline) pair add up in file
    # order: bincount sums each cell sequentially.
    k = len(label_order)
    cell, inverse = np.unique(node * k + col, return_inverse=True)
    value = np.bincount(inverse, weights=weight)
    row = cell // k
    indptr = np.searchsorted(row, np.arange(graph.n + 1))
    # A sum of one or two floats is already rounded exactly; longer
    # (and overflowing) rows go through math.fsum.
    total = np.bincount(row, weights=value, minlength=graph.n)
    for i in np.flatnonzero((np.diff(indptr) > 2) | ~np.isfinite(total)):
        total[i] = _weight_sum(value[indptr[i] : indptr[i + 1]].tolist())
    if not np.all(np.isfinite(total)):
        _check_membership_rows(path, graph)
        raise _disagree(path)
    for i in np.flatnonzero(np.abs(total - 1.0) > 1e-9):
        warnings.append(
            f"membership rows for {graph.node_ids[i]} sum to {float(total[i]):.12g}; "
            "renormalized to 1"
        )
    weights = sparse.coo_matrix(
        (value / total[row], (row, cell % k)), shape=(graph.n, k), dtype=np.float64
    ).tocsr()
    weights.sort_indices()
    return Membership(k=k, labels=tuple(label_order), weights=weights), warnings


def _membership_entries(graph, ids, labels, weight_s):
    """(node index, weight) columns, or None when a row fails a check."""
    if "" in ids or "" in labels:
        return None
    try:
        weight = np.fromiter(map(float, weight_s), dtype=np.float64, count=len(ids))
    except ValueError:
        return None
    node = np.fromiter(
        map(graph.id_index.get, ids, repeat(-1)), dtype=np.int64, count=len(ids)
    )
    if not np.all((weight > 0) & np.isfinite(weight)) or np.any(node < 0):
        return None
    return node, weight


def _weight_sum(values) -> float:
    """Exactly rounded sum of positive weights; inf beyond the float range."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def _check_membership_rows(path, graph: CitationGraph) -> None:
    """Check the classification row by row.

    Raises:
        IngestError: the first bad row, with its line number.
    """
    # Per publication, the weight of each discipline summed in file
    # order, as parse_membership adds up repeated rows.
    cells: dict[str, dict[str, float]] = {}
    for lineno, (node_id, label, weight_s) in _csv_rows(path, MEMBERSHIP_HEADER):
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
        if not math.isfinite(_weight_sum(cell.values())):
            raise IngestError(
                f"{path}: line {lineno}: weights for {node_id} sum beyond "
                "the float range"
            )
