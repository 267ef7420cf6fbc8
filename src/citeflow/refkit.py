"""A synthetic DAG generator and an independent modularity scorer.

The generator draws index arrays and hands them to the assembly
functions that the parsers use, ``graph_from_indices`` and
``membership_from_indices``; ``citeflow synth`` writes what it draws.
The scorer computes Newman modularity pairwise, apart from the greedy
agglomeration, so that the benchmark's output check can score the
communities that ``compute`` writes.
"""

from __future__ import annotations

import math
import time
import warnings as _warnings
from dataclasses import dataclass

import numpy as np

from .analytics import DisciplineNetwork
from .citegraph import (
    CitationGraph,
    Membership,
    PubTime,
    graph_from_indices,
    membership_from_indices,
    run_starts,
)

PROPOSAL_FACTOR = 30


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


def random_dag(
    spec: SynthSpec, seconds: list | None = None
) -> tuple[CitationGraph, Membership]:
    """Seeded random citation DAG plus a fractional classification.

    Node times are drawn from ``month_span`` month buckets; edge
    proposals always point from a strictly later to a strictly earlier
    time, so the result is a DAG by construction. Each node belongs to
    one discipline, or with probability 0.2 fractionally to two.
    Everything is driven by one seeded generator and reproduces bit for
    bit. If the edge target is infeasible within the proposal budget,
    fewer edges are returned with a warning. The seconds that drawing the
    edges and the membership took are appended to ``seconds``, if given.
    """
    started = time.perf_counter()
    rng = np.random.default_rng(spec.seed)
    width = max(len(str(spec.n)), 1)
    ids = tuple(map(f"p%0{width}d".__mod__, range(1, spec.n + 1)))
    buckets = rng.integers(0, spec.month_span, size=spec.n)

    # Each batch adds, in proposal order, the first ``need`` keys that
    # ``chosen`` lacks, as if its pairs were taken one by one; only the set
    # added counts. A key's first row in a prefix of the batch is its first
    # row in the whole batch, so only a prefix is oriented and looked up:
    # from a little above ``need`` rows, doubled until it holds ``need``
    # fresh keys.
    chosen = np.empty(0, dtype=np.int64)  # sorted keys u * n + v
    budget = PROPOSAL_FACTOR * spec.target_m
    proposed = 0
    while chosen.size < spec.target_m and proposed < budget:
        batch = int(min(max(4096, spec.target_m), budget - proposed))
        pairs = rng.integers(0, spec.n, size=(batch, 2))
        proposed += batch
        need = spec.target_m - chosen.size
        rows = need + need // 16 + 64
        while True:
            u, v = pairs[:rows].T
            bu, bv = buckets[u], buckets[v]
            later = bu > bv
            new = (np.where(later, u, v) * spec.n + np.where(later, v, u))[bu != bv]
            if rows >= batch and new.size <= need:  # every fresh key is taken
                break
            order = np.argsort(new, kind="stable")
            first = order[run_starts(new[order])]  # each key's first row
            seen = new[first]
            fresh = np.searchsorted(chosen, seen) == np.searchsorted(chosen, seen, "right")
            fresh = np.sort(first[fresh])
            if fresh.size >= need or rows >= batch:
                new = new[fresh[:need]]
                break
            rows *= 2
        chosen = np.sort(np.concatenate([chosen, new]))
        chosen = chosen[run_starts(chosen)]
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
    drawn = time.perf_counter()

    labels = tuple(f"d{j + 1:02d}" for j in range(spec.k))
    two_way = (rng.random(spec.n) < 0.2) & (spec.k > 1)
    primary = rng.integers(0, spec.k, size=spec.n)
    alt = rng.integers(0, max(spec.k - 1, 1), size=spec.n)
    alt = alt + (alt >= primary)
    split = rng.integers(1, 10, size=spec.n) / 10.0
    rows = np.concatenate([np.arange(spec.n), np.arange(spec.n)[two_way]])
    cols = np.concatenate([primary, alt[two_way]])
    data = np.concatenate([np.where(two_way, split, 1.0), (1.0 - split)[two_way]])
    membership = membership_from_indices(spec.n, labels, rows, cols, data)[0]
    if seconds is not None:
        seconds += [drawn - started, time.perf_counter() - drawn]
    return graph, membership
