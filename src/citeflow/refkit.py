"""Independent verification oracles and a synthetic DAG generator.

The oracles recompute engine quantities by entirely different means:
exact rational path enumeration, dense triangular inversion, and
brute-force partition search. Guards are hard errors rather than
silent truncation, so an oracle never returns an approximation. These
are correctness tools, not performance paths. The generator draws
index arrays and hands them to the assembly functions that the parsers
use, ``graph_from_indices`` and ``membership_from_indices``.
"""

from __future__ import annotations

import heapq
import math
import warnings as _warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .analytics import DisciplineNetwork
from .citegraph import (
    CiteflowError,
    CitationGraph,
    InternalInvariantError,
    Membership,
    PubTime,
    graph_from_indices,
    membership_from_indices,
)

PATH_GUARD = 10**6
DENSE_GUARD = 2000
PROPOSAL_FACTOR = 30


class OracleGuardError(CiteflowError):
    """An oracle refused an input too large to answer exactly."""


def _reverse_adjacency(graph: CitationGraph) -> list[list[int]]:
    rev: list[list[int]] = [[] for _ in range(graph.n)]
    for u in range(graph.n):
        for v in graph.out_neighbors(u):
            rev[int(v)].append(u)
    return rev


def enumerate_path_dependence(
    graph: CitationGraph, source: int, target: int, path_guard: int = PATH_GUARD
) -> Fraction:
    """Exact sum of likelihoods of every directed path source -> target.

    Each path contributes the product of reciprocal outdegrees over its
    nodes except the last. The search is pruned to nodes that can still
    reach the target, so the work is proportional to the number of
    paths; more than ``path_guard`` of them is a hard error.

    Returns Fraction(1) when source == target and Fraction(0) when no
    path exists.
    """
    if source == target:
        return Fraction(1)
    rev = _reverse_adjacency(graph)
    can_reach = {target}
    stack = [target]
    while stack:
        v = stack.pop()
        for u in rev[v]:
            if u not in can_reach:
                can_reach.add(u)
                stack.append(u)
    if source not in can_reach:
        return Fraction(0)
    out = graph.outdegree
    indptr, indices = graph.indptr, graph.indices
    total = Fraction(0)
    paths = 0
    work: list[tuple[int, Fraction]] = [(source, Fraction(1))]
    while work:
        u, likelihood = work.pop()
        if u == target:
            paths += 1
            if paths > path_guard:
                raise OracleGuardError(
                    f"more than {path_guard} paths from {source} to {target}"
                )
            total += likelihood
            continue
        step = likelihood / int(out[u])
        for v in indices[indptr[u] : indptr[u + 1]]:
            v = int(v)
            if v in can_reach:
                work.append((v, step))
    return total


def enumerate_dependence_row(
    graph: CitationGraph, source: int, path_guard: int = PATH_GUARD
) -> dict[int, Fraction]:
    """Exact dependence of one publication on every node it can reach.

    Every prefix of a path is itself a path, so a single traversal
    yields the whole row, including the unit diagonal entry.
    """
    out = graph.outdegree
    indptr, indices = graph.indptr, graph.indices
    acc: dict[int, Fraction] = {}
    paths = 0
    work: list[tuple[int, Fraction]] = [(source, Fraction(1))]
    while work:
        u, likelihood = work.pop()
        paths += 1
        if paths > path_guard:
            raise OracleGuardError(f"more than {path_guard} paths from {source}")
        acc[u] = acc.get(u, Fraction(0)) + likelihood
        d = int(out[u])
        if d:
            step = likelihood / d
            for v in indices[indptr[u] : indptr[u + 1]]:
                work.append((int(v), step))
    return acc


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


def dense_dependence(graph: CitationGraph, max_nodes: int = DENSE_GUARD) -> np.ndarray:
    """Dense dependence matrix via triangular back-substitution.

    Permutes nodes topologically (which makes the normalized citation
    system unit upper triangular), inverts it row by row from the
    bottom, and permutes back. Floating-point result.
    """
    if graph.n > max_nodes:
        raise OracleGuardError(
            f"{graph.n} nodes exceeds the dense oracle guard ({max_nodes})"
        )
    n = graph.n
    order = topological_order(graph)
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    da = np.zeros((n, n), dtype=np.float64)
    out = graph.outdegree
    for u in range(n):
        d = int(out[u])
        if d:
            da[pos[u], pos[graph.out_neighbors(u)]] = 1.0 / d
    p = np.eye(n, dtype=np.float64)
    for i in range(n - 2, -1, -1):
        row = da[i, i + 1 :]
        if row.any():
            p[i, :] += row @ p[i + 1 :, :]
    return p[np.ix_(pos, pos)]


def modularity(net: DisciplineNetwork, communities) -> float:
    """Weighted Newman modularity of a partition, computed pairwise.

    Independent scorer used to cross-check the greedy agglomeration;
    an empty network scores zero for any partition.
    """
    k = net.size
    w = np.zeros((k, k), dtype=np.float64)
    for (u, v), weight in net.edges.items():
        w[u, v] = w[v, u] = weight
    degree = w.sum(axis=1)
    total2 = float(degree.sum())  # twice the total edge weight
    if total2 <= 0.0:
        return 0.0
    comm_of = np.empty(k, dtype=np.int64)
    for ci, group in enumerate(communities):
        for node in group:
            comm_of[node] = ci
    terms = [
        w[i, j] - degree[i] * degree[j] / total2
        for i in range(k)
        for j in range(k)
        if comm_of[i] == comm_of[j]
    ]
    return math.fsum(terms) / total2


def _set_partitions(k: int):
    """All partitions of range(k) as restricted-growth strings, in
    lexicographic order (the all-merged string [0, 0, ...] comes first)."""
    a = [0] * k

    def rec(i: int, max_label: int):
        if i == k:
            yield list(a)
            return
        for label in range(max_label + 2):
            a[i] = label
            yield from rec(i + 1, max(max_label, label))

    if k == 0:
        yield []
        return
    yield from rec(1, 0)


def exhaustive_modularity(
    net: DisciplineNetwork, k_max: int = 10
) -> tuple[list[list[int]], float]:
    """Best-modularity partition by full enumeration (small k only).

    Ties go to the lexicographically smallest restricted-growth string.
    A network with no positive weight returns all singletons.
    """
    k = net.size
    if k > k_max:
        raise OracleGuardError(
            f"{k} disciplines exceeds the exhaustive guard ({k_max})"
        )
    w = np.zeros((k, k), dtype=np.float64)
    for (u, v), weight in net.edges.items():
        w[u, v] = w[v, u] = weight
    degree = w.sum(axis=1)
    total2 = float(degree.sum())
    if total2 <= 0.0:
        return [[i] for i in range(k)], 0.0
    best_assignment = None
    best_q = -math.inf
    for assignment in _set_partitions(k):
        terms = [
            w[i, j] - degree[i] * degree[j] / total2
            for i in range(k)
            for j in range(k)
            if assignment[i] == assignment[j]
        ]
        q = math.fsum(terms) / total2
        if q > best_q:
            best_q = q
            best_assignment = assignment
    groups: dict[int, list[int]] = {}
    for node, label in enumerate(best_assignment):
        groups.setdefault(label, []).append(node)
    communities = [sorted(g) for g in sorted(groups.values(), key=min)]
    return communities, best_q


@dataclass(frozen=True)
class SynthSpec:
    """Parameters for the seeded synthetic citation DAG generator."""

    n: int
    target_m: int
    k: int
    seed: int
    month_span: int = 24

    def __post_init__(self) -> None:
        if not 1 <= self.n <= 3_037_000_499:  # so edge keys u * n + v fit in int64
            raise ValueError("n must lie in 1..3037000499")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0 <= self.target_m <= self.n * (self.n - 1) // 2:
            raise ValueError("target_m must lie in 0..n(n-1)/2")
        if self.month_span < 1:
            raise ValueError("month_span must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")


def random_dag(spec: SynthSpec) -> tuple[CitationGraph, Membership]:
    """Seeded random citation DAG plus a fractional classification.

    Node times are drawn from ``month_span`` month buckets; edge
    proposals always point from a strictly later to a strictly earlier
    time, so the result is a DAG by construction. Each node belongs to
    one discipline, or with probability 0.2 fractionally to two.
    Everything is driven by one seeded generator and reproduces bit for
    bit. If the edge target is infeasible within the proposal budget,
    fewer edges are returned with a warning.
    """
    rng = np.random.default_rng(spec.seed)
    width = max(len(str(spec.n)), 1)
    ids = tuple(map(f"p%0{width}d".__mod__, range(1, spec.n + 1)))
    buckets = rng.integers(0, spec.month_span, size=spec.n)

    # Each batch adds its new pairs in proposal order, as if they were
    # taken one by one, until the edge target is met.
    chosen = np.empty(0, dtype=np.int64)  # sorted keys u * n + v
    budget = PROPOSAL_FACTOR * spec.target_m
    proposed = 0
    while chosen.size < spec.target_m and proposed < budget:
        batch = int(min(max(4096, spec.target_m), budget - proposed))
        pairs = rng.integers(0, spec.n, size=(batch, 2))
        proposed += batch
        bu = buckets[pairs[:, 0]]
        bv = buckets[pairs[:, 1]]
        distinct = bu != bv
        oriented = np.where((bu > bv)[:, None], pairs, pairs[:, ::-1])[distinct]
        key = oriented[:, 0] * spec.n + oriented[:, 1]
        unique, first = np.unique(key, return_index=True)
        fresh = np.sort(first[~np.isin(unique, chosen, assume_unique=True)])
        new = key[fresh[: spec.target_m - chosen.size]]
        chosen = np.sort(np.concatenate([chosen, new]))
    if chosen.size < spec.target_m:
        _warnings.warn(
            f"edge target {spec.target_m} infeasible within the proposal budget; "
            f"generated {chosen.size} edges",
            stacklevel=2,
        )
    graph, _ = graph_from_indices(
        ids,
        PubTime(2000, 1).key() + buckets,
        chosen // spec.n,
        chosen % spec.n,
    )

    labels = tuple(f"d{j + 1:02d}" for j in range(spec.k))
    two_way = (rng.random(spec.n) < 0.2) & (spec.k > 1)
    primary = rng.integers(0, spec.k, size=spec.n)
    alt = rng.integers(0, max(spec.k - 1, 1), size=spec.n)
    alt = alt + (alt >= primary)
    split = rng.integers(1, 10, size=spec.n) / 10.0
    rows = np.concatenate([np.arange(spec.n), np.arange(spec.n)[two_way]])
    cols = np.concatenate([primary, alt[two_way]])
    data = np.concatenate([np.where(two_way, split, 1.0), (1.0 - split)[two_way]])
    return graph, membership_from_indices(spec.n, labels, rows, cols, data)[0]
