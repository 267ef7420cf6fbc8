"""Discipline-level flow analytics.

Pure functions over small k x k flow matrices: per-order flow shares,
signed chi-squared normalization against the margin-product
expectation, percentile-thresholded discipline networks, greedy
modularity communities, betweenness, and quadratic-entropy
interdisciplinarity. Every sum is exactly rounded, as ``math.fsum``
rounds it, so every result is exactly invariant under a relabeling of
the disciplines. ``_row_fsums`` gives those sums over whole arrays,
without a Python float per term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

ENTRYWISE_L1 = "l1"
FROBENIUS = "frobenius"

# Most bytes of terms one ``_row_fsums`` call sums: the analytics build
# their terms a batch of rows at a time, so their scratch stays small next
# to the flows (the kernel holds about 2.5 times the batch at its peak).
_BATCH_BYTES = 1 << 18

_DBL_MAX = float(np.finfo(np.float64).max)


def _row_fsums(terms) -> np.ndarray:
    """``math.fsum`` of each row of a 2-D array, bit for bit.

    Each row is reduced pairwise by TwoSum (Ogita, Rump and Oishi,
    "Accurate sum and dot product", 2005): ``s`` holds the rounded sums
    and ``c`` the sum, in floating point, of their exact rounding errors
    E. A last TwoSum splits ``s + c`` into the rounded ``r`` and an exact
    remainder, so the exact row sum is ``r + remainder + (C - c)``, where
    C is the exact sum of the errors.

    Bound on ``C - c`` over a tree of depth D (u = 2**-53): an error made
    at level l is at most u times its node's sum, and the node sums of one
    level add up to at most (1 + u)**l * sum|t|. It then passes through at
    most 2(D - l + 1) rounded additions of ``c``, each off by at most u
    times its partial sum. Summed over the levels, |C - c| <= D(D + 1) *
    u**2 * sum|t| * (1 + u)**(3D). ``D**2 * 2**-104 * sum|t|`` is at
    least twice that, which leaves room for the rounding of the computed
    sum|t| and of the bound's own product, whose absolute error below
    2**-1022 is at most 2**-1075. Additions make no underflow error, and
    ``C - c`` is a multiple of 2**-1074, so it is zero wherever the true
    bound is below 2**-1074; at or above it, the rounded bound covers it.

    ``r`` is ``math.fsum``'s result when remainder plus bound stays
    strictly within half the gap to the neighbouring double on either
    side, so neither ties nor a near miss are ever accepted. Any other
    row (not finite, overflowed, at the largest double, or too close to
    call) is summed by ``math.fsum`` itself, which raises or returns
    inf and NaN as it always did. An exactly zero sum is +0.0, as in
    ``math.fsum``.
    """
    t = np.asarray(terms, dtype=np.float64)
    rows, n = t.shape
    if n == 0:
        return np.zeros(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        magnitude = np.abs(t).sum(axis=1)
        # Terms along axis 0, so each half below is one block of memory
        # when the caller passes a transposed C array.
        s, c, depth = t.T, None, 0
        while len(s) > 1:
            half, odd = divmod(len(s), 2)
            a, b = s[:half], s[half : 2 * half]
            x = np.empty((half + odd, rows))
            e = np.empty_like(x)
            pair, error = x[:half], e[:half]
            np.add(a, b, out=pair)
            # TwoSum: error = (a - (pair - z)) + (b - z), exactly a + b - pair
            z = pair - a
            np.subtract(pair, z, out=error)
            np.subtract(a, error, out=error)
            np.subtract(b, z, out=z)
            error += z
            if c is not None:
                error += c[:half]
                error += c[half : 2 * half]
            if odd:
                x[half] = s[-1]
                e[half] = 0.0 if c is None else c[-1]
            s, c, depth = x, e, depth + 1
        s = s[0]
        c = np.zeros(rows) if c is None else c[0]
        r = s + c
        z = r - s
        remainder = (s - (r - z)) + (c - z)
        bound = magnitude * (depth * depth * 2.0**-104)
        up = np.nextafter(r, np.inf) - r
        down = r - np.nextafter(r, -np.inf)
        exact = (
            ((remainder + bound) * 2.0 < up)
            & ((remainder - bound) * 2.0 > -down)
            & (np.abs(r) < _DBL_MAX)
        )
    r += 0.0  # -0.0 to +0.0
    for i in np.flatnonzero(~exact).tolist():
        r[i] = math.fsum(t[i].tolist())
    return r


def _batched_fsums(rows: int, width: int, terms) -> np.ndarray:
    """``_row_fsums`` of a rows x width array of terms, built by
    ``terms(start, stop)`` a batch of rows at a time within
    ``_BATCH_BYTES``."""
    step = max(1, _BATCH_BYTES // (8 * max(width, 1)))
    sums = [_row_fsums(terms(a, min(a + step, rows))) for a in range(0, rows, step)]
    return np.concatenate(sums) if sums else np.zeros(0)


def _norms(matrices, kind: str) -> list[float]:
    """``matrix_norm`` of each of the same-sized ``matrices``."""

    def terms(start, stop):
        flat = np.array(
            [np.asarray(m, dtype=np.float64).ravel() for m in matrices[start:stop]]
        )
        if kind == ENTRYWISE_L1:
            return np.abs(flat, out=flat)
        if kind == FROBENIUS:
            return np.multiply(flat, flat, out=flat)
        raise ValueError(f"unknown norm kind {kind!r}")

    width = np.asarray(matrices[0]).size if matrices else 0
    sums = _batched_fsums(len(matrices), width, terms).tolist()
    return sums if kind == ENTRYWISE_L1 else [math.sqrt(v) for v in sums]


def matrix_norm(matrix, kind: str = ENTRYWISE_L1) -> float:
    """Entrywise L1 norm (sum of absolute values) or Frobenius norm."""
    return _norms([matrix], kind)[0]


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
    norms = tuple(_norms(decomp.order_flows, kind))
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
    row_sums = _row_fsums(f)
    col_sums = _row_fsums(f.T)
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
    contributes once. Brandes' algorithm runs for a batch of sources at
    once, level by level (``_dependencies``), and the sources' dependency
    rows are added in source order.
    """
    k = net.size
    edges = np.array(sorted(net.edges), dtype=np.int64).reshape(-1, 2)
    # Each edge (u, v) of the sorted list puts v on u's list, then u on v's.
    tails, heads = edges.ravel(), edges[:, ::-1].ravel()
    neighbours = heads[np.argsort(tails, kind="stable")]
    indptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=k), out=indptr[1:])
    scores = np.zeros(k, dtype=np.float64)
    # a source's search holds a few 8-byte arrays of its adjacency and nodes
    step = max(1, _BATCH_BYTES // (32 * max(len(neighbours) + k, 1)))
    for start in range(0, k, step):
        sources = np.arange(start, min(start + step, k))
        for row in _dependencies(indptr, neighbours, sources, k):
            scores += row
    return scores / 2.0


def _dependencies(indptr, neighbours, sources, k) -> np.ndarray:
    """Brandes' dependencies of every node on each of ``sources``.

    One breadth-first search per source, all of them a level at a time
    over flat (source, node) indices, with the float operations of the
    one-source loop in its order: a node's path count adds its
    predecessors' in their visiting order, and a dependency adds its
    successors' shares in reverse visiting order. ``np.add.at`` applies
    repeated indices in array order. The sources' own entries are zero.
    """
    rows = len(sources)
    first = np.arange(rows) * k + sources
    dist = np.full(rows * k, -1, dtype=np.int64)
    sigma = np.zeros(rows * k, dtype=np.float64)
    rank = np.zeros(rows * k, dtype=np.int64)  # visiting order within a level
    dist[first], sigma[first] = 0, 1.0
    frontier, levels, level = first, [], 0
    while frontier.size:
        node = frontier % k
        counts = indptr[node + 1] - indptr[node]
        owner = np.repeat(np.arange(len(frontier)), counts)
        # Candidates in visiting order: frontier entry, then its list.
        offset = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
        tail = frontier[owner]
        head = tail - node[owner] + neighbours[indptr[node][owner] + offset]
        fresh, seen = np.unique(head[dist[head] < 0], return_index=True)
        frontier = fresh[np.argsort(seen)]
        level += 1
        dist[frontier] = level
        rank[frontier] = np.arange(len(frontier))
        keep = dist[head] == level
        tail, head = tail[keep], head[keep]
        np.add.at(sigma, head, sigma[tail])
        levels.append((tail, head))
    delta = np.zeros(rows * k, dtype=np.float64)
    for tail, head in reversed(levels):
        order = np.argsort(-rank[head], kind="stable")
        tail, head = tail[order], head[order]
        np.add.at(delta, tail, sigma[tail] / sigma[head] * (1.0 + delta[head]))
    delta[first] = 0.0
    return delta.reshape(rows, k)


def incoming_shares(flow) -> tuple[np.ndarray, np.ndarray]:
    """Column-stochastic incoming flow shares.

    Returns (shares, zero_columns). Columns with no incoming flow stay
    all-zero and get flagged instead of dividing by zero.
    """
    f = np.asarray(flow, dtype=np.float64)
    col_sums = _row_fsums(f.T)
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
    norms = [math.sqrt(v) for v in _row_fsums((f * f).T).tolist()]
    s = np.zeros((k, k), dtype=np.float64)
    # The dot products of the columns with a positive norm, pair by pair.
    columns = np.flatnonzero(np.array(norms) > 0.0)
    first, second = (columns[i] for i in np.triu_indices(len(columns), 1))

    columns_f = np.ascontiguousarray(f.T)

    def products(start, stop):
        return columns_f[second[start:stop]] * columns_f[first[start:stop]]

    dots = _batched_fsums(len(first), k, products).tolist()
    pairs = zip(first.tolist(), second.tolist(), dots)
    # Python floats divide as before: an underflowed denominator raises.
    quotients = np.array([dot / (norms[u] * norms[v]) for u, v, dot in pairs])
    s[first, second] = s[second, first] = np.minimum(quotients, 1.0)
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
    # The k^2 terms p_u * p_w * distance_uw of a score are symmetric in u
    # and w, and distance_uu is 0, so the score is twice the sum over
    # u < w. Doubling is exact short of overflow: below 2**-1021 every
    # exact sum of doubles is a double, and above it scaling by two
    # commutes with rounding.
    upper = np.triu_indices(k, 1)
    between = distance[upper]
    finite = bool(np.isfinite(between).all())
    columns = np.flatnonzero(~zero)
    mixes = np.ascontiguousarray(shares.T)  # row v: the shares p of column v

    def terms(start, stop):
        p = mixes[columns[start:stop]]
        left, right = p[:, upper[0]], p[:, upper[1]]
        t = left * right
        t *= between
        if not finite:
            # only the terms over the support of p: 0 times a distance
            # that is not finite is NaN
            t[(left == 0.0) | (right == 0.0)] = 0.0
        return t

    halves = _batched_fsums(len(columns), len(upper[0]), terms)
    scores = np.zeros(k, dtype=np.float64)
    scores[columns] = np.minimum(2.0 * halves, 1.0)
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
    off = f.copy()
    np.fill_diagonal(off, 0.0)  # math.fsum skips zero terms
    incoming, outgoing = _row_fsums(off.T).tolist(), _row_fsums(off).tolist()
    return [
        DisciplineSummary(
            discipline=v,
            size=float(sizes[v]),
            self_flow=float(f[v, v]),
            incoming_flow=incoming[v],
            outgoing_flow=outgoing[v],
        )
        for v in range(f.shape[0])
    ]
