"""Independent verification oracles for the tests.

The oracles recompute engine quantities by entirely different means:
exact rational path enumeration, dense triangular inversion, the heap
topological order, brute-force partition search, the full-operator
iteration with scipy's sparse products, and a synthetic generator that
orients and looks up every proposal of each batch. Guards are hard
errors rather than silent truncation, so an oracle never returns an
approximation. These are correctness tools, not performance paths; no
command runs them.
"""

from __future__ import annotations

import heapq
import math
import warnings
from fractions import Fraction

import numpy as np

from citeflow import (
    CitationGraph,
    CiteflowError,
    DisciplineNetwork,
    InternalInvariantError,
    Membership,
    PubTime,
    SynthSpec,
)
from citeflow.citegraph import graph_from_indices, membership_from_indices
from citeflow.refkit import PROPOSAL_FACTOR
from conftest import as_scipy

PATH_GUARD = 10**6
DENSE_GUARD = 2000


class OracleGuardError(CiteflowError):
    """An oracle refused an input too large to answer exactly."""


def _reverse_adjacency(graph: CitationGraph) -> list[list[int]]:
    rev: list[list[int]] = [[] for _ in range(graph.n)]
    indptr, indices = graph.indptr, graph.indices
    for u in range(graph.n):
        for v in indices[indptr[u] : indptr[u + 1]]:
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
    indptr, indices = graph.indptr, graph.indices
    for u in range(n):
        d = int(out[u])
        if d:
            da[pos[u], pos[indices[indptr[u] : indptr[u + 1]]]] = 1.0 / d
    p = np.eye(n, dtype=np.float64)
    for i in range(n - 2, -1, -1):
        row = da[i, i + 1 :]
        if row.any():
            p[i, :] += row @ p[i + 1 :, :]
    return p[np.ix_(pos, pos)]


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


def _full_powers(op, block, limit):
    """The full-operator iteration: every order runs all n rows through
    all m edges, until ``limit`` or the first exactly zero block."""
    w = as_scipy(op)
    yield block
    for _ in range(limit):
        block = w @ block
        if not block.any():
            return
        yield block


def _full_flows(op, q, limit):
    """Order flows (identity first), total flow and r, by the full iteration."""
    k = q.shape[1]
    qt = q.T.tocsr()
    flows, r = [], np.zeros(op.n)
    start = np.hstack([q.toarray(), np.ones((op.n, 1))])
    for block in _full_powers(op, start, limit):
        flows.append((qt @ block)[:, :k])
        r += block[:, k]
    total = flows[0]
    for order_flow in flows[1:]:
        total = total + order_flow
    return flows, total, r


def _full_stack(op, q, limit):
    total = np.zeros(q.shape)
    for block in _full_powers(op, q.toarray(), limit):
        total += block
    return total


def _source_dependence(op, membership):
    """Dense k x n dependence of each discipline on each publication.

    The transposed analogue of the stack iteration, with scipy's sparse
    products: start from the membership transpose and repeatedly
    right-multiply by the operator, summing until the increment vanishes.
    """
    increment = as_scipy(membership).T.tocsr()
    total = increment.toarray()
    w = as_scipy(op)
    for _ in range(op.order_bound):
        increment = (increment @ w).tocsr()
        if increment.nnz == 0:
            break
        coo = increment.tocoo()
        total[coo.row, coo.col] += coo.data
    return total


def batch_random_dag(spec: SynthSpec) -> tuple[CitationGraph, Membership]:
    """``random_dag`` as each batch once did all of its proposals: every
    pair is oriented, ``np.unique`` finds each key's first proposal and
    ``np.isin`` drops the keys already chosen. The draws are the same."""
    rng = np.random.default_rng(spec.seed)
    width = max(len(str(spec.n)), 1)
    ids = tuple(map(f"p%0{width}d".__mod__, range(1, spec.n + 1)))
    buckets = rng.integers(0, spec.month_span, size=spec.n)

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
        warnings.warn(
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
