"""Citation graph ingestion and indexing.

CSV inputs describe publications (``id,year,month``), citations
(``citing,cited``) and a fractional discipline classification
(``id,discipline,weight``). Graph construction removes synchronous
citations (citing publication not strictly newer than the cited one),
which guarantees the stored graph is a DAG, collapses duplicate edges,
and keeps the adjacency in CSR layout sorted by (citing, cited) so
every downstream computation is reproducible byte for byte.
"""

from __future__ import annotations

import csv
import heapq
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

UNCLASSIFIED = "__unclassified__"
# Largest year magnitude whose month key (``PubTime.key``) fits in int64.
MAX_YEAR = 2**63 // 12 - 1


class CiteflowError(Exception):
    """Base error for this package."""


class IngestError(CiteflowError):
    """Fatal problem with an input file or with graph construction."""


class InternalInvariantError(CiteflowError):
    """A structural guarantee failed; indicates a bug, not bad input."""


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
class CitationGraph:
    """Immutable citation DAG over externally named publications.

    Adjacency is stored citing -> cited in CSR form: the cited
    neighbours of node ``i`` are ``indices[indptr[i]:indptr[i+1]]``,
    sorted ascending. Every stored edge strictly decreases publication
    time, which rules out cycles. Safe for concurrent reads.
    """

    node_ids: tuple[str, ...]
    times: tuple[PubTime, ...]
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

    def time_keys(self) -> np.ndarray:
        return np.fromiter((t.key() for t in self.times), count=self.n, dtype=np.int64)


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


def parse_nodes(path) -> tuple[list[tuple[str, PubTime]], list[str]]:
    """Read the publication table.

    Returns (nodes, warnings) where nodes is a list of (id, PubTime)
    in file order. A blank month defaults to January with a warning.

    Raises:
        IngestError: bad header, duplicate id, non-integer year, year
            beyond ``MAX_YEAR``, or month outside 1..12.
    """
    nodes: list[tuple[str, PubTime]] = []
    warnings: list[str] = []
    seen: dict[str, int] = {}
    for lineno, (node_id, year_s, month_s) in _csv_rows(path, ("id", "year", "month")):
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
            month = 1
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
        nodes.append((node_id, PubTime(year, month)))
    return nodes, warnings


def parse_edges(path) -> list[tuple[str, str]]:
    """Read the citation table as ordered (citing, cited) id pairs."""
    edges: list[tuple[str, str]] = []
    for lineno, (citing, cited) in _csv_rows(path, ("citing", "cited")):
        if not citing:
            raise IngestError(f"missing citing id on line {lineno}")
        if not cited:
            raise IngestError(f"missing cited id on line {lineno}")
        edges.append((citing, cited))
    return edges


def build_graph(nodes, edges) -> tuple[CitationGraph, IngestReport]:
    """Assemble a CitationGraph, dropping synchronous and duplicate citations.

    An edge is synchronous when the citing publication's time is the
    same as, or older than, the cited one's; those edges are discarded
    (self-loops fall under this rule). Duplicate surviving edges are
    collapsed and counted.
    """
    if not nodes:
        raise IngestError("zero nodes: cannot build a citation graph")
    ids = tuple(nid for nid, _ in nodes)
    times = tuple(t for _, t in nodes)
    id_index = {nid: i for i, nid in enumerate(ids)}
    n = len(ids)
    tkey = np.fromiter((t.key() for t in times), count=n, dtype=np.int64)

    e_total = len(edges)
    citing = np.empty(e_total, dtype=np.int64)
    cited = np.empty(e_total, dtype=np.int64)
    for pos, (src, dst) in enumerate(edges):
        try:
            citing[pos] = id_index[src]
        except KeyError:
            raise IngestError(f"edge {pos + 1}: unknown citing id {src!r}") from None
        try:
            cited[pos] = id_index[dst]
        except KeyError:
            raise IngestError(f"edge {pos + 1}: unknown cited id {dst!r}") from None

    keep = tkey[citing] > tkey[cited]
    synchronous = int(e_total - int(keep.sum()))
    key = citing[keep] * n + cited[keep]
    unique = np.unique(key)  # sorted, so CSR rows and columns come out ordered
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
    indptr.setflags(write=False)
    indices.setflags(write=False)
    graph = CitationGraph(
        node_ids=ids,
        times=times,
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


def longest_path_length(graph: CitationGraph, order: np.ndarray | None = None) -> int:
    """Maximum number of edges on any directed path, by DP over the order."""
    if graph.n == 0:
        return 0
    if order is None:
        order = topological_order(graph)
    dist = np.zeros(graph.n, dtype=np.int64)
    indptr, indices = graph.indptr, graph.indices
    for u in order[::-1]:
        s, e = indptr[u], indptr[u + 1]
        if e > s:
            dist[u] = 1 + dist[indices[s:e]].max()
    return int(dist.max())


def parse_membership(path, graph: CitationGraph) -> tuple[Membership, list[str]]:
    """Read the discipline classification and normalize it row-stochastic.

    Rows are grouped per publication and renormalized to sum to one
    (with a warning when the raw sum is off by more than 1e-9).
    Publications without any row are assigned to a synthetic
    ``__unclassified__`` discipline. Discipline label order is
    first-appearance order, with the synthetic label last.

    Raises:
        IngestError: bad header, nonpositive weight, or unknown id.
    """
    per_node: dict[int, dict[str, float]] = {}
    label_pos: dict[str, int] = {}
    label_order: list[str] = []
    warnings: list[str] = []
    header = ("id", "discipline", "weight")
    for lineno, (node_id, label, weight_s) in _csv_rows(path, header):
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
        try:
            idx = graph.id_index[node_id]
        except KeyError:
            raise IngestError(
                f"{path}: line {lineno}: membership references unknown id {node_id!r}"
            ) from None
        if label not in label_pos:
            label_pos[label] = len(label_order)
            label_order.append(label)
        bucket = per_node.setdefault(idx, {})
        bucket[label] = bucket.get(label, 0.0) + weight

    missing = [i for i in range(graph.n) if i not in per_node]
    if missing:
        if UNCLASSIFIED not in label_pos:
            label_pos[UNCLASSIFIED] = len(label_order)
            label_order.append(UNCLASSIFIED)
        for i in missing:
            per_node[i] = {UNCLASSIFIED: 1.0}
            warnings.append(
                f"publication {graph.node_ids[i]} has no membership row, "
                f"assigned to {UNCLASSIFIED}"
            )

    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    for i in range(graph.n):
        bucket = per_node[i]
        total = math.fsum(bucket.values())
        if abs(total - 1.0) > 1e-9:
            warnings.append(
                f"membership rows for {graph.node_ids[i]} sum to {total:.12g}; "
                "renormalized to 1"
            )
        for label, weight in bucket.items():
            rows.append(i)
            cols.append(label_pos[label])
            data.append(weight / total)
    k = len(label_order)
    weights = sparse.coo_matrix(
        (data, (rows, cols)), shape=(graph.n, k), dtype=np.float64
    ).tocsr()
    weights.sort_indices()
    return Membership(k=k, labels=tuple(label_order), weights=weights), warnings
