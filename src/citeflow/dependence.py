"""Higher-order dependence engine.

Everything here derives from one sparse operator: the citation
adjacency row-normalized by outdegree. On a DAG that operator is
nilpotent, so the power series behind each quantity is a finite sum
with at most ``longest_path_length`` + 1 terms, and iteration stops on
an exactly zero increment rather than an epsilon test. The full n x n
dependence matrix is never materialized; one pass carries a dense
n x (k+1) block through the iteration and keeps only its k x k
projections and the dependence vector.
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
    sink publications are empty. ``order_bound`` is the longest path
    length in the graph, beyond which all operator powers vanish.
    """

    matrix: sparse.csr_matrix
    order_bound: int

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
    return NormalizedCitationOperator(
        matrix=matrix, order_bound=longest_path_length(graph)
    )


def propagate(operator: NormalizedCitationOperator, matrix):
    """Apply the operator to an n x k matrix (sparse or dense).

    Output row ``i`` is the outdegree-weighted mean of the input rows
    of the publications that ``i`` cites; sink rows come out zero.
    Each output row is one sequential accumulation over the cited
    neighbours in index order, so sparse and dense inputs give bitwise
    identical values.
    """
    w = operator.matrix
    if matrix.shape[0] != w.shape[0]:
        raise ValueError(
            f"matrix has {matrix.shape[0]} rows, operator expects {w.shape[0]}"
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


def _powers(operator: NormalizedCitationOperator, block: np.ndarray, limit: int):
    """Yield ``block`` and its images under operator powers 1..``limit``.

    Stops early, before yielding it, at the first exactly zero block,
    which nilpotency guarantees within ``order_bound`` + 1 steps. No
    earlier block is kept, so at most two are alive at once.
    """
    yield block
    for _ in range(limit):
        block = propagate(operator, block)
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
    total = np.zeros(q.shape, dtype=np.float64)
    for block in _powers(operator, q.toarray(), _order_limit(operator, max_order)):
        total += block
    return total


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
    unit = np.ones((operator.n, 1), dtype=np.float64)
    qt = q.T.tocsr()
    flows: list[np.ndarray] = []
    r = np.zeros(operator.n, dtype=np.float64)
    for block in _powers(operator, np.hstack([q.toarray(), unit]), limit):
        flows.append((qt @ block)[:, :k])
        r += block[:, k]
    total = flows[0]
    for order_flow in flows[1:]:
        total = total + order_flow
    order_count = len(flows) - 1
    return FlowDecomposition(
        identity_flow=flows[0],
        order_flows=tuple(flows[1:]),
        total=total,
        r=r,
        complete=order_count < limit or order_count >= operator.order_bound,
    )
