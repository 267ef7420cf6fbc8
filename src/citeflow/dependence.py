"""Higher-order dependence engine.

Everything here derives from one sparse operator: the citation
adjacency row-normalized by outdegree. On a DAG that operator is
nilpotent, so the power series behind each quantity is a finite sum
with at most ``longest_path_length`` + 1 terms, and iteration stops on
an exactly zero increment rather than an epsilon test. The full n x n
dependence matrix is never materialized; one pass carries a dense
n x (k+1) block through the iteration and keeps only its k x k
projections and the dependence vector.

The pass runs in height order. The height of a publication is the
length of the longest path that starts there, and the order-t block
is exactly zero on every publication of height below t. So the rows
are relabeled by descending height (a stable sort), and order t
multiplies only the leading corner of the relabeled operator: its
rows of height t or more, against the previous block, itself a row
prefix, through the edges whose cited end has height t - 1 or more.
Each order takes its edges from the previous order's by one filter,
so the edge work is the sum over edges of height(cited) + 1 rather
than (orders) x m. The projection onto the disciplines keeps the
publication order, and sums into ``r`` and the dependence stack run
over the same row prefix; the result is put back in publication order
once, at the end.

The result is byte-identical to the full-operator iteration. scipy's
CSR product accumulates each row sequentially, in stored entry order,
from +0.0, and every entry keeps its stored order here. The terms
that are left out are products with an exact +0.0 of the previous
block, and every term is nonnegative, so adding them leaves each
partial sum unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .citegraph import CitationGraph, Membership, longest_path_length

AUTO = "auto"


@dataclass(frozen=True, eq=False)
class NormalizedCitationOperator:
    """Sparse citation operator with rows normalized by outdegree.

    Row ``i`` carries 1/outdegree(i) at every cited neighbour; rows of
    sink publications are empty. ``heights[i]`` is the length of the
    longest path that starts at publication ``i``; ``order_bound``, their
    maximum, is the longest path length in the graph, beyond which all
    operator powers vanish.
    """

    matrix: sparse.csr_matrix
    order_bound: int
    heights: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def build_operator(graph: CitationGraph) -> NormalizedCitationOperator:
    """Build the outdegree-normalized citation operator for a graph."""
    out = graph.outdegree
    inv = np.zeros(graph.n, dtype=np.float64)
    cited_any = out > 0
    inv[cited_any] = 1.0 / out[cited_any]
    data = np.repeat(inv, out)
    matrix = sparse.csr_matrix(
        (data, graph.indices.copy(), graph.indptr.copy()),
        shape=(graph.n, graph.n),
    )
    # The first call runs the frontier pass that also yields the heights.
    order_bound = longest_path_length(graph)
    return NormalizedCitationOperator(
        matrix=matrix, order_bound=order_bound, heights=graph.heights
    )


def propagate(operator, matrix):
    """Apply the operator to a matrix (sparse or dense).

    ``operator`` is a NormalizedCitationOperator, or a CSR corner of its
    matrix such as the engine's per-order step; ``matrix`` has one row
    per operator column. Output row ``i`` is the outdegree-weighted mean
    of the input rows of the publications that ``i`` cites; sink rows
    come out zero. Each output row is one sequential accumulation over
    the cited neighbours in stored order, so sparse and dense inputs
    give bitwise identical values.
    """
    w = operator
    if isinstance(w, NormalizedCitationOperator):
        w = w.matrix
    if matrix.shape[0] != w.shape[1]:
        raise ValueError(
            f"matrix has {matrix.shape[0]} rows, operator expects {w.shape[1]}"
        )
    out = w @ matrix
    if sparse.issparse(out):
        out = out.tocsr()
        out.sort_indices()
    return out


def _membership_matrix(membership, n: int) -> sparse.csr_matrix:
    q = membership.weights if isinstance(membership, Membership) else membership
    q = sparse.csr_matrix(q, dtype=np.float64)
    if q.shape[0] != n:
        raise ValueError(f"membership has {q.shape[0]} rows, operator expects {n}")
    return q


def _order_limit(operator: NormalizedCitationOperator, max_order) -> int:
    if max_order == AUTO:
        return operator.order_bound
    limit = int(max_order)
    if limit < 0:
        raise ValueError("max_order must be nonnegative")
    return limit


def edge_work(operator: NormalizedCitationOperator, orders: int) -> int:
    """Edge products made by the first ``orders`` orders of the iteration.

    Order t runs over the edges whose cited end has height t - 1 or
    more, so an edge takes part in min(height(cited) + 1, ``orders``)
    orders. The full-operator iteration makes ``orders`` x m.
    """
    cited = operator.heights[operator.matrix.indices]
    return int(np.minimum(cited + 1, orders).sum())


def _height_order(operator: NormalizedCitationOperator):
    """Publications by descending height, ties in index order, and the
    position of each publication in that order."""
    order = np.argsort(-operator.heights, kind="stable")
    position = np.empty(operator.n, dtype=operator.matrix.indices.dtype)
    position[order] = np.arange(operator.n)
    return order, position


def _corner(matrix: sparse.csr_matrix, rows: int, columns: int) -> sparse.csr_matrix:
    """The leading ``rows`` x ``columns`` corner of a CSR matrix.

    Entries keep their stored order. One filter over the entries; every
    entry in a row past ``rows`` must lie in a column past ``columns``.
    """
    keep = np.flatnonzero(matrix.indices < columns)
    indptr = keep.searchsorted(matrix.indptr[: rows + 1]).astype(matrix.indptr.dtype)
    return sparse.csr_matrix(
        (matrix.data.take(keep), matrix.indices.take(keep), indptr),
        shape=(rows, columns),
    )


def _powers(operator: NormalizedCitationOperator, order, position, block, limit: int):
    """Yield ``block`` and its images under operator powers 1..``limit``.

    Works in the height order of ``_height_order``: row ``r`` of
    ``block`` is publication ``order[r]``. The order-t image is yielded
    as its leading rows, those of height t or more; every later row is
    exactly zero. Stops early, before yielding it, at the first exactly
    zero block, which nilpotency guarantees within ``order_bound`` + 1
    steps. No earlier block is kept, so at most two are alive at once.
    """
    w = operator.matrix
    # at_least[t]: how many publications have height t or more.
    at_least = np.cumsum(np.bincount(operator.heights)[::-1])[::-1]
    step = sparse.csr_matrix(
        (w.data, position[w.indices], w.indptr), shape=w.shape
    )[order]
    yield block
    for t in range(1, min(limit, operator.order_bound) + 1):
        # Edges whose cited end has height t - 1 or more, from the
        # previous order's edges; their citing ends have height >= t.
        step = _corner(step, int(at_least[t]), int(at_least[t - 1]))
        block = propagate(step, block)
        if not block.any():
            return
        yield block


def dependence_stack(
    operator: NormalizedCitationOperator, membership, max_order=AUTO
) -> np.ndarray:
    """Dense n x k dependence of each publication on each discipline.

    Sums the membership columns over citation paths of length up to
    ``max_order``; AUTO takes every path, which gives the total
    dependence.
    """
    q = _membership_matrix(membership, operator.n)
    order, position = _height_order(operator)
    total = np.zeros(q.shape, dtype=np.float64)
    limit = _order_limit(operator, max_order)
    for block in _powers(operator, order, position, q.toarray()[order], limit):
        total[: len(block)] += block
    return total[position]


def dependence_vector(
    operator: NormalizedCitationOperator, max_order=AUTO
) -> np.ndarray:
    """Total dependence of each publication on the whole network.

    The iteration run on a single all-ones column. At full order it
    satisfies r = (operator) r + 1, which is PageRank with damping
    factor one and a unit exogenous vector.
    """
    ones = np.ones((operator.n, 1), dtype=np.float64)
    return dependence_stack(operator, ones, max_order)[:, 0]


def source_dependence(operator: NormalizedCitationOperator, membership) -> np.ndarray:
    """Dense k x n dependence of each discipline on each publication.

    The transposed analogue of the stack iteration: start from the
    membership transpose and repeatedly right-multiply by the operator,
    summing until the increment vanishes.
    """
    increment = _membership_matrix(membership, operator.n).T.tocsr()
    total = increment.toarray()
    w = operator.matrix
    for _ in range(operator.order_bound):
        increment = (increment @ w).tocsr()
        if increment.nnz == 0:
            break
        coo = increment.tocoo()
        total[coo.row, coo.col] += coo.data
    return total


@dataclass(frozen=True, eq=False)
class FlowDecomposition:
    """Discipline-to-discipline citation flow split by path length.

    ``identity_flow`` (F0) is the flow of the length-zero paths;
    ``order_flows[i-1]`` is the flow carried by paths of length exactly
    ``i``; ``total`` (F) is their running sum. ``r`` is the dependence
    vector over the same orders. ``complete`` is set when ``total`` and
    ``r`` cover every path: the iteration stopped on an exactly zero
    order or reached the longest path length.
    """

    identity_flow: np.ndarray
    order_flows: tuple[np.ndarray, ...]
    total: np.ndarray
    r: np.ndarray
    complete: bool

    @property
    def order_count(self) -> int:
        return len(self.order_flows)


def flow_decomposition(
    operator: NormalizedCitationOperator, membership, max_order=AUTO
) -> FlowDecomposition:
    """Per-order flows, total flow and dependence vector in one iteration.

    The iteration starts from the dense block ``[Q | 1]``: the
    membership columns next to a unit column. Each order projects the
    membership columns onto the k x k order flow (``Q^T`` times the
    block) and adds the unit column into ``r``, then drops the block.
    Order flows are nonnegative by construction. ``max_order`` AUTO
    runs to the longest path length; a numeric value truncates earlier
    (order-limited analyses).
    """
    q = _membership_matrix(membership, operator.n)
    k = q.shape[1]
    limit = _order_limit(operator, max_order)
    order, position = _height_order(operator)
    block = np.hstack([q.toarray(), np.ones((operator.n, 1))])[order]
    # Q^T with its columns in height order and its entries in publication
    # order, cut to the block's rows at each order.
    qt = q.T.tocsr()
    qt = sparse.csr_matrix((qt.data, position[qt.indices], qt.indptr), shape=qt.shape)
    flows: list[np.ndarray] = []
    r = np.zeros(operator.n, dtype=np.float64)
    for block in _powers(operator, order, position, block, limit):
        qt = _corner(qt, k, len(block))
        flows.append((qt @ block)[:, :k])
        r[: len(block)] += block[:, k]
    total = flows[0]
    for order_flow in flows[1:]:
        total = total + order_flow
    order_count = len(flows) - 1
    return FlowDecomposition(
        identity_flow=flows[0],
        order_flows=tuple(flows[1:]),
        total=total,
        r=r[position],
        complete=order_count < limit or order_count >= operator.order_bound,
    )
