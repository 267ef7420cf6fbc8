"""Discipline-level flow analytics.

Pure functions over small k x k flow matrices: per-order flow shares,
signed chi-squared normalization against the margin-product
expectation, percentile-thresholded discipline networks, greedy
modularity communities, betweenness, and quadratic-entropy
interdisciplinarity. Sums go through math.fsum so every result is
exactly invariant under a relabeling of the disciplines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

ENTRYWISE_L1 = "l1"
FROBENIUS = "frobenius"


def matrix_norm(matrix, kind: str = ENTRYWISE_L1) -> float:
    """Entrywise L1 norm (sum of absolute values) or Frobenius norm."""
    m = np.asarray(matrix, dtype=np.float64)
    if kind == ENTRYWISE_L1:
        return math.fsum(np.abs(m).ravel().tolist())
    if kind == FROBENIUS:
        return math.sqrt(math.fsum((m * m).ravel().tolist()))
    raise ValueError(f"unknown norm kind {kind!r}")


@dataclass(frozen=True)
class OrderContributions:
    """Per-path-length share of the flow carried by orders >= 1.

    The order-zero identity flow is excluded from the denominator, so
    shares answer "of the flow that citations carry, how much travels
    over paths of each length" and sum to one.
    """

    norm_kind: str
    norms: tuple[float, ...]
    shares: tuple[float, ...]

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(range(1, len(self.norms) + 1))


def order_contributions(decomp, kind: str = ENTRYWISE_L1) -> OrderContributions:
    """Norms and relative shares of the per-order flow matrices."""
    norms = tuple(matrix_norm(m, kind) for m in decomp.order_flows)
    total = math.fsum(norms)
    if not norms or total <= 0.0:
        return OrderContributions(norm_kind=kind, norms=norms, shares=())
    shares = tuple(v / total for v in norms)
    return OrderContributions(norm_kind=kind, norms=norms, shares=shares)


def expected_flow(flow) -> np.ndarray:
    """Margin-product expectation with the same row and column sums."""
    f = np.asarray(flow, dtype=np.float64)
    if f.ndim != 2 or f.shape[0] != f.shape[1]:
        raise ValueError("flow matrix must be square")
    if np.any(f < 0):
        raise ValueError("flow matrix must be nonnegative")
    row_sums = np.array([math.fsum(row) for row in f])
    col_sums = np.array([math.fsum(col) for col in f.T])
    total = math.fsum(row_sums)
    if total <= 0.0:
        raise ValueError("flow matrix has zero total; expected flow is undefined")
    return np.outer(row_sums, col_sums) / total


@dataclass(frozen=True, eq=False)
class NormalizedFlow:
    """Signed chi-squared style residuals against the expected flow.

    Positive entries mark pairs that reference each other more than
    the margins predict, negative entries less.
    """

    expected: np.ndarray
    normalized: np.ndarray


def normalized_flow(flow) -> NormalizedFlow:
    """Signed residuals (observed - expected) / sqrt(expected).

    Cells with zero expectation (possible only from an all-zero row or
    column) map to zero by convention.
    """
    f = np.asarray(flow, dtype=np.float64)
    e = expected_flow(f)
    fhat = np.zeros_like(f)
    positive = e > 0
    fhat[positive] = (f[positive] - e[positive]) / np.sqrt(e[positive])
    return NormalizedFlow(expected=e, normalized=fhat)


@dataclass(frozen=True, eq=False)
class DisciplineNetwork:
    """Undirected weighted network over discipline indices.

    Edge keys are (u, v) with u < v; weights are nonnegative and there
    are no self-loops.
    """

    size: int
    edges: dict[tuple[int, int], float]


def _nearest_rank(values: list[float], pct) -> float:
    """Nearest-rank percentile; pct 0 maps to the minimum."""
    ordered = sorted(values)
    rank = math.ceil(Fraction(pct) * len(ordered) / 100)
    return ordered[max(rank, 1) - 1]


def check_percentiles(hi_pct, lo_pct) -> None:
    """Raise ValueError unless 0 <= lo_pct < hi_pct <= 100."""
    if not 0 <= lo_pct < hi_pct <= 100:
        raise ValueError(f"need 0 <= lo_pct < hi_pct <= 100, got {lo_pct}/{hi_pct}")


def threshold_network(
    fhat, hi_pct=90, lo_pct=10
) -> tuple[DisciplineNetwork, DisciplineNetwork]:
    """Split symmetrized residuals into stronger/weaker-than-expected nets.

    Pair values are fhat[u, v] + fhat[v, u]. The positive network keeps
    pairs at or above the hi_pct nearest-rank percentile of all pair
    values, the negative network pairs at or below the lo_pct
    percentile. Stored weights are the pair value (positive network)
    and its negation (negative network), both floored at zero. Ties at
    a cutoff are kept, so a degenerate all-equal input returns every
    pair on both sides. Raises ValueError unless
    0 <= lo_pct < hi_pct <= 100.
    """
    check_percentiles(hi_pct, lo_pct)
    f = np.asarray(fhat, dtype=np.float64)
    k = f.shape[0]
    if k < 2:
        return DisciplineNetwork(k, {}), DisciplineNetwork(k, {})
    rows, cols = np.triu_indices(k, 1)
    pairs = list(zip(rows.tolist(), cols.tolist()))
    values = (f[rows, cols] + f[cols, rows]).tolist()
    hi_cut = _nearest_rank(values, hi_pct)
    lo_cut = _nearest_rank(values, lo_pct)
    positive = {p: max(w, 0.0) for p, w in zip(pairs, values) if w >= hi_cut}
    negative = {p: max(-w, 0.0) for p, w in zip(pairs, values) if w <= lo_cut}
    return DisciplineNetwork(k, positive), DisciplineNetwork(k, negative)


def detect_communities(net: DisciplineNetwork) -> list[list[int]]:
    """Greedy modularity agglomeration over the weighted network.

    Repeatedly merges the community pair with the largest strictly
    positive modularity gain, breaking ties toward the smallest pair of
    representative discipline indices, and stops when no merge
    improves modularity. Isolated disciplines stay singletons.
    Communities are returned sorted by their smallest member.

    The weights between communities live in one symmetric k x k array,
    so every round scores all pairs at once in O(k^2).
    """
    k = net.size
    total = math.fsum(net.edges.values())
    if total <= 0.0:
        return [[i] for i in range(k)]
    members: dict[int, list[int]] = {i: [i] for i in range(k)}
    degree = [0.0] * k
    for (u, v), w in sorted(net.edges.items()):
        degree[u] += w
        degree[v] += w
    degree = np.array(degree)
    between = np.zeros((k, k))
    for (u, v), w in net.edges.items():
        between[u, v] = between[v, u] = w
    lower = np.tri(k, dtype=bool)
    scale = 2.0 * total * total
    while True:
        gain = between / total - np.outer(degree, degree) / scale
        gain[lower] = 0.0
        # argmax takes the first maximum in row-major order: among equal
        # gains, the smallest pair (a, b)
        best = int(np.argmax(gain))
        if not gain.flat[best] > 0.0:
            break
        a, b = divmod(best, k)
        # community ids are their smallest member, so merging into the
        # smaller id keeps that property
        members[a].extend(members.pop(b))
        degree[a] += degree[b]
        between[a] += between[b]
        between[:, a] += between[:, b]
        degree[b] = between[b] = between[:, b] = 0.0
    return [sorted(c) for c in sorted(members.values(), key=min)]


def betweenness_centrality(net: DisciplineNetwork) -> np.ndarray:
    """Shortest-path betweenness over the network topology.

    Every edge has length one, whatever its weight. Scores are
    unnormalized, shortest paths split evenly, and each unordered pair
    contributes once.
    """
    k = net.size
    adjacency: list[list[int]] = [[] for _ in range(k)]
    for u, v in sorted(net.edges):
        adjacency[u].append(v)
        adjacency[v].append(u)
    scores = [0.0] * k
    for s in range(k):
        sigma = [0.0] * k
        sigma[s] = 1.0
        dist = [math.inf] * k
        dist[s] = 0.0
        preds: list[list[int]] = [[] for _ in range(k)]
        # Breadth-first: the loop visits nodes in the order they are
        # appended, so ``order`` is the queue and the visiting order.
        order = [s]
        for u in order:
            for v in adjacency[u]:
                if dist[v] == math.inf:
                    dist[v] = dist[u] + 1
                    order.append(v)
                if dist[v] == dist[u] + 1:
                    sigma[v] += sigma[u]
                    preds[v].append(u)
        delta = [0.0] * k
        for u in reversed(order):
            for p in preds[u]:
                delta[p] += sigma[p] / sigma[u] * (1.0 + delta[u])
            if u != s:
                scores[u] += delta[u]
    return np.array(scores) / 2.0


def incoming_shares(flow) -> tuple[np.ndarray, np.ndarray]:
    """Column-stochastic incoming flow shares.

    Returns (shares, zero_columns). Columns with no incoming flow stay
    all-zero and get flagged instead of dividing by zero.
    """
    f = np.asarray(flow, dtype=np.float64)
    col_sums = np.array([math.fsum(col) for col in f.T.tolist()])
    zero = col_sums == 0.0
    shares = np.divide(f, col_sums, out=np.zeros_like(f), where=~zero)
    return shares, zero


def cosine_similarity(flow) -> np.ndarray:
    """Cosine similarity between incoming-flow columns.

    Unit diagonal by convention, zero against an all-zero column,
    entries clamped into [0, 1].
    """
    f = np.asarray(flow, dtype=np.float64)
    k = f.shape[0]
    norms = [math.sqrt(math.fsum(squares)) for squares in (f * f).T.tolist()]
    s = np.zeros((k, k), dtype=np.float64)
    for u in range(k):
        if not norms[u] > 0.0:
            continue
        # Row v - u - 1 holds the terms of the dot product of columns u and v.
        products = (f[:, u + 1 :] * f[:, u : u + 1]).T.tolist()
        for v, terms in enumerate(products, start=u + 1):
            if norms[v] > 0.0:
                dot = math.fsum(terms)
                s[u, v] = s[v, u] = min(dot / (norms[u] * norms[v]), 1.0)
    np.fill_diagonal(s, 1.0)
    return s


@dataclass(frozen=True, eq=False)
class RaoScores:
    """Quadratic-entropy interdisciplinarity per discipline."""

    shares: np.ndarray
    scores: np.ndarray
    zero_columns: np.ndarray


def rao_entropy(flow) -> RaoScores:
    """Quadratic entropy of each discipline's incoming-share mix.

    High when flow arrives evenly from mutually dissimilar disciplines;
    zero for pure self-supply. Disciplines with no incoming flow score
    zero and are flagged. Distances are one minus the column cosine
    similarity, so every score lies in [0, 1].
    """
    f = np.asarray(flow, dtype=np.float64)
    k = f.shape[0]
    shares, zero = incoming_shares(f)
    distance = 1.0 - cosine_similarity(f)
    scores = np.zeros(k, dtype=np.float64)
    for v in range(k):
        if zero[v]:
            continue
        # The k^2 terms p_u * p_w * distance_uw over the support of p;
        # fsum rounds exactly, so their order does not matter.
        support = np.flatnonzero(shares[:, v] != 0.0)
        p = shares[support, v]
        terms = np.multiply.outer(p, p) * distance[np.ix_(support, support)]
        scores[v] = min(math.fsum(terms.ravel().tolist()), 1.0)
    return RaoScores(shares=shares, scores=scores, zero_columns=zero)


@dataclass(frozen=True)
class DisciplineSummary:
    """Size and flow balance of one discipline."""

    discipline: int
    size: float
    self_flow: float
    incoming_flow: float
    outgoing_flow: float


def discipline_summary(flow, sizes) -> list[DisciplineSummary]:
    """Per-discipline size, self flow, and off-diagonal in/out flow."""
    f = np.asarray(flow, dtype=np.float64)
    by_row, by_col = f.tolist(), f.T.tolist()
    rows = []
    for v in range(f.shape[0]):
        incoming = math.fsum(by_col[v][:v] + by_col[v][v + 1 :])
        outgoing = math.fsum(by_row[v][:v] + by_row[v][v + 1 :])
        rows.append(
            DisciplineSummary(
                discipline=v,
                size=float(sizes[v]),
                self_flow=float(f[v, v]),
                incoming_flow=incoming,
                outgoing_flow=outgoing,
            )
        )
    return rows
