"""Higher-order dependence engine.

Everything here derives from one sparse operator: the citation
adjacency row-normalized by outdegree. On a DAG that operator is
nilpotent, so the power series behind each quantity is a finite sum
with at most ``longest_path_length`` + 1 terms, and iteration stops on
an exactly zero increment rather than an epsilon test. The full n x n
dependence matrix is never materialized; the iteration carries dense
columns of ``[Q | 1]``, the membership columns next to a unit column,
and keeps only their sums and k x k projections. Every entry point
runs it one group of at most ``_GROUP_COLUMNS`` columns at a time, with
the same code, so one n x width block is alive at once: the flows and
``r`` over ``[Q | 1]``, the stack over Q, and ``dependence_vector`` as
the ``r`` of no discipline. Each order overwrites the block in place,
so the only other dense memory is one group of rows. The classification
is a ``Membership``; ``propagate`` takes ``(indptr, indices, data, ncols)``.

The pass runs in height order. The height of a publication is the
length of the longest path that starts there, and the order-t block
is exactly zero on every publication of height below t. So the rows
are relabeled by descending height (a stable sort), and order t
multiplies only the leading corner of the relabeled operator: its
rows of height t or more, against the previous block, itself a row
prefix, through the edges whose cited end has height t - 1 or more.
The engine keeps one copy of the edges, and each order filters the
previous order's edges in place, so the edge work is the sum over
edges of height(cited) + 1 rather than (orders) x m, and the edge
memory is that one copy. The projection onto the disciplines keeps the
publication order, and sums into ``r`` and the dependence stack run
over the same row prefix; the result is put back in publication order
once, at the end.

A publication cites only publications of lower height, which come
later in the height order. So order t can overwrite the block top-down
in consecutive groups of rows: each group's image is read from rows
that are still unchanged (its own, or rows below it) into a fresh
array, then assigned back. The split into groups does not change any
output row. Nor does the split into column groups: ``csr_matvecs``
sums each output entry from its own column of the input alone.

The result is byte-identical to the full-operator iteration. Every
product runs through scipy's compiled ``csr_matvecs`` kernel on plain
CSR arrays (see ``_sparsetools``), which accumulates each output row
sequentially, in stored entry order, from +0.0, over the same input
values whatever the grouping, and every entry keeps its stored order
here. The terms that are left out are products with an exact +0.0 of
the previous block, and every term is nonnegative, so adding them
leaves each partial sum unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._sparsetools import csr_matvecs, csr_row_index, csr_tocsc, csr_todense
from .citegraph import CitationGraph, Membership, longest_path_length

AUTO = "auto"

# Scratch bytes of each step of an order: a group of output rows when it
# updates the block in place, a chunk of entries when it filters the
# edges. The only memory an order takes beyond the block and the edges.
_GROUP_BYTES = 1 << 21

# Most columns of [Q | 1] in one run of the iteration: flow_decomposition
# runs it once per group, so one n x width block is alive at a time, but
# each group copies and filters the edges again. On `wide` (k=130: three
# groups of 43 or 44) peak RSS fell 66.9 -> 55.2 MiB, and the engine took
# 0.16 s against 0.14 s in one group; width 32 (five groups) gave 52.0 MiB
# for 0.19 s. At k=250 (four groups) the peak fell 91.0 -> 67.0 MiB.
_GROUP_COLUMNS = 64


@dataclass(frozen=True, eq=False)
class NormalizedCitationOperator:
    """Sparse citation operator with rows normalized by outdegree.

    The n x n operator is held as the CSR arrays ``indptr``, ``indices``
    and ``data``: row ``i`` carries 1/outdegree(i) at every cited
    neighbour; rows of sink publications are empty. ``heights[i]`` is
    the length of the longest path that starts at publication ``i``;
    ``order_bound``, their maximum, is the longest path length in the
    graph, beyond which all operator powers vanish.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    order_bound: int
    heights: np.ndarray

    @property
    def n(self) -> int:
        return len(self.indptr) - 1


def build_operator(graph: CitationGraph) -> NormalizedCitationOperator:
    """Build the outdegree-normalized citation operator for a graph."""
    out = graph.outdegree
    inv = np.zeros(graph.n, dtype=np.float64)
    cited_any = out > 0
    inv[cited_any] = 1.0 / out[cited_any]
    # The first call runs the frontier pass that also yields the heights.
    order_bound = longest_path_length(graph)
    return NormalizedCitationOperator(
        indptr=graph.indptr,
        indices=graph.indices,
        data=np.repeat(inv, out),
        order_bound=order_bound,
        heights=graph.heights,
    )


def _checked(csr):
    """``csr`` after checking that the kernels stay inside its arrays.

    The compiled kernels do not check bounds: a row pointer past the
    entries or a column past ``ncols`` would read or write outside the
    arrays. Raises ValueError on such arrays.
    """
    indptr, indices, data, ncols = csr
    if not (
        len(indptr) >= 1
        and indptr[0] == 0
        and indptr[-1] == len(indices) == len(data)
        and np.all(indptr[1:] >= indptr[:-1])
        and (not len(indices) or 0 <= indices.min() <= indices.max() < ncols)
    ):
        raise ValueError("malformed CSR arrays")
    return csr


def _product(csr, block: np.ndarray) -> np.ndarray:
    """CSR ``(indptr, indices, data, ncols)`` times a dense float64 block.

    ``csr_matvecs`` adds up each output row sequentially, in stored
    entry order, from +0.0, as scipy's CSR-times-dense product does.
    """
    indptr, indices, data, ncols = csr
    rows, width = len(indptr) - 1, block.shape[1]
    out = np.zeros((rows, width), dtype=np.float64)
    csr_matvecs(rows, ncols, width, indptr, indices, data, block.ravel(), out.ravel())
    return out


def propagate(operator, matrix):
    """Apply a CSR corner of the operator to a dense matrix.

    ``operator`` is an ``(indptr, indices, data, ncols)`` tuple, such as
    the engine's per-order step, and ``matrix`` has ``ncols`` rows.
    Output row ``i`` is the outdegree-weighted mean of the input rows of
    the publications that ``i`` cites, added up sequentially in stored
    order; sink rows come out zero.
    """
    w = _checked(operator)
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    if matrix.shape[0] != w[3]:
        raise ValueError(f"matrix has {matrix.shape[0]} rows, operator expects {w[3]}")
    return _product(w, matrix)


def _membership_csr(membership: Membership, n: int):
    """``(indptr, indices, data, k)`` of a Membership of ``n`` publications."""
    m = membership
    if m.n != n:
        raise ValueError(f"membership has {m.n} rows, operator expects {n}")
    return _checked((m.indptr, m.indices, m.data, m.k))


def _dense(csr) -> np.ndarray:
    """The dense array of ``(indptr, indices, data, ncols)``, as scipy's
    ``toarray`` makes it."""
    indptr, indices, data, ncols = csr
    out = np.zeros((len(indptr) - 1, ncols), dtype=np.float64)
    csr_todense(len(indptr) - 1, ncols, indptr, indices, data, out.ravel())
    return out


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
    cited = operator.heights[operator.indices]
    return int(np.minimum(cited + 1, orders).sum())


def _height_order(operator: NormalizedCitationOperator):
    """Publications by descending height, ties in index order, and the
    position of each publication in that order."""
    order = np.argsort(-operator.heights, kind="stable")
    position = np.empty(operator.n, dtype=operator.indices.dtype)
    position[order] = np.arange(operator.n)
    return order, position


def _relabel(indices: np.ndarray, position: np.ndarray) -> None:
    """Replace each entry of ``indices`` by its ``position``, in place.

    Works one chunk of entries at a time, so the only scratch is one
    chunk's gathered labels, within ``_GROUP_BYTES``.
    """
    chunk = max(1, _GROUP_BYTES // indices.itemsize)
    for a in range(0, len(indices), chunk):
        indices[a : a + chunk] = position[indices[a : a + chunk]]


def _filter(csr, rows: int, columns: int):
    """Cut a CSR tuple to its leading ``rows`` x ``columns`` corner, in place.

    The kept entries move to the front of ``indices`` and ``data``, in
    stored order, and ``indptr`` is rewritten to match; the corner is
    returned as views of the same arrays. Every entry in a row past
    ``rows`` must lie in a column past ``columns``. Works one chunk of
    entries at a time: the scratch is the chunk's kept offsets and one
    gathered array, 8 bytes per entry each, within ``_GROUP_BYTES``.
    """
    indptr, indices, data, _ = csr
    chunk = max(1, _GROUP_BYTES // 16)
    end, kept = int(indptr[rows]), 0
    row = 1  # the first row end not yet rewritten
    for a in range(0, end, chunk):
        b = min(a + chunk, end)
        offsets = np.flatnonzero(indices[a:b] < columns)
        # Each row end in [a, b] becomes the count of kept entries before
        # it; an end at a > 0 was already rewritten by the previous chunk.
        stop = row + int(indptr[row : rows + 1].searchsorted(b, side="right"))
        ends = indptr[row:stop]
        ends[:] = kept + offsets.searchsorted(ends - a)
        row = stop
        indices[kept : kept + len(offsets)] = indices[a:b].take(offsets)
        data[kept : kept + len(offsets)] = data[a:b].take(offsets)
        kept += len(offsets)
    return indptr[: rows + 1], indices[:kept], data[:kept], columns


def _take_rows(csr, rows: np.ndarray):
    """Rows ``rows`` of ``(indptr, indices, data, ncols)``, in that order,
    each keeping the stored order of its entries, as scipy's ``A[rows]``."""
    indptr, indices, data, ncols = csr
    out_indptr = np.zeros(len(rows) + 1, dtype=indptr.dtype)
    np.cumsum(np.diff(indptr)[rows], out=out_indptr[1:])
    out_indices = np.empty(out_indptr[-1], dtype=indices.dtype)
    out_data = np.empty(out_indptr[-1], dtype=data.dtype)
    csr_row_index(len(rows), rows, indptr, indices, data, out_indices, out_data)
    return out_indptr, out_indices, out_data, ncols


def _transpose(csr):
    """The transpose of ``(indptr, indices, data, ncols)``: a counting
    sort of the entries by column, each column in row order, as scipy's
    ``A.T.tocsr()``."""
    indptr, indices, data, ncols = csr
    out_indptr = np.empty(ncols + 1, dtype=indptr.dtype)
    out_indices = np.empty_like(indices)
    out_data = np.empty_like(data)
    csr_tocsc(len(indptr) - 1, ncols, indptr, indices, data,
              out_indptr, out_indices, out_data)
    return out_indptr, out_indices, out_data, len(indptr) - 1


def _powers(operator: NormalizedCitationOperator, order, position, block, limit: int):
    """Yield ``block`` and its images under operator powers 1..``limit``.

    Works in the height order of ``_height_order``: row ``r`` of
    ``block``, a C-contiguous float64 array, is publication
    ``order[r]``. Each order overwrites ``block`` in place and is
    yielded as a view of its leading rows, those of height t or more;
    every later row of the image is exactly zero. So a yielded block
    holds only until the next one is asked for. Stops early, before
    yielding it, at the first exactly zero block, which nilpotency
    guarantees within ``order_bound`` + 1 steps.

    The edges are one copy of the operator's, relabeled to the height
    order, filtered in place at each order to those the order reads.
    """
    # at_least[t]: how many publications have height t or more.
    at_least = np.cumsum(np.bincount(operator.heights)[::-1])[::-1]
    indptr, indices, data, n = _checked(
        (operator.indptr, operator.indices, operator.data, operator.n)
    )
    step = _take_rows((indptr, indices, data, n), order)
    _relabel(step[1], position)
    group = max(1, _GROUP_BYTES // (block.itemsize * max(block.shape[1], 1)))
    yield block
    for t in range(1, min(limit, operator.order_bound) + 1):
        # Edges whose cited end has height t - 1 or more, from the
        # previous order's edges; their citing ends have height >= t.
        step = _filter(step, int(at_least[t]), int(at_least[t - 1]))
        step_indptr, step_indices, step_data, columns = step
        rows = int(at_least[t])
        # A row reads only rows of lower height, all of them below it, so
        # rows a..b-1 read nothing that an earlier group overwrote.
        for a in range(0, rows, group):
            b = min(a + group, rows)
            lo, hi = step_indptr[a], step_indptr[b]
            rows_ab = (step_indptr[a : b + 1] - lo, step_indices[lo:hi],
                       step_data[lo:hi], columns)
            block[a:b] = propagate(rows_ab, block[:columns])
        if not block[:rows].any():
            return
        yield block[:rows]


def _groups(columns: int) -> list[tuple[int, int]]:
    """The fewest groups of at most ``_GROUP_COLUMNS`` of ``columns`` columns,
    as even as they can be: ``(start, stop)`` of each, in column order."""
    count = -(-columns // _GROUP_COLUMNS)
    return [(columns * g // count, columns * (g + 1) // count) for g in range(count)]


def column_groups(k: int) -> int:
    """How many runs of the iteration ``flow_decomposition`` makes for
    ``k`` disciplines: one per group of columns of ``[Q | 1]``."""
    return len(_groups(k + 1))


def _group_block(q, order, start: int, stop: int) -> np.ndarray:
    """Columns ``start``..``stop - 1`` of ``[Q | 1]``, rows in height order.

    Densifies a fresh height-ordered copy of the membership; when the
    group is not every column, the copy's columns are first rotated to
    put the group's in front and filtered in place to those.
    """
    k = q[3]
    indptr, indices, data, _ = _take_rows(q, order)
    width = stop - start
    if width < k + 1:
        indices -= start
        indices %= k + 1
        indptr, indices, data, _ = _filter((indptr, indices, data, k + 1),
                                           len(order), width)
    block = _dense((indptr, indices, data, width))
    if stop == k + 1:
        block[:, -1] = 1.0
    return block


def _stack_group(operator, q, order, position, start, stop, limit, total) -> None:
    """Add the sums of the iteration on columns ``start``..``stop - 1`` of
    Q into the same columns of ``total``, rows in height order."""
    block = _group_block(q, order, start, stop)
    for block in _powers(operator, order, position, block, limit):
        total[: len(block), start:stop] += block


def dependence_stack(
    operator: NormalizedCitationOperator, membership: Membership, max_order=AUTO
) -> np.ndarray:
    """Dense n x k dependence of each publication on each discipline.

    Sums the membership columns over citation paths of length up to
    ``max_order``; AUTO takes every path, which gives the total
    dependence.
    """
    q = _membership_csr(membership, operator.n)
    limit = _order_limit(operator, max_order)
    order, position = _height_order(operator)
    total = np.zeros((operator.n, q[3]), dtype=np.float64)
    for start, stop in _groups(q[3]):
        _stack_group(operator, q, order, position, start, stop, limit, total)
    return total[position]


@dataclass(frozen=True, eq=False)
class FlowDecomposition:
    """Discipline-to-discipline citation flow split by path length.

    ``identity_flow`` (F0) is the flow of the length-zero paths;
    ``order_flows[i-1]`` is the flow carried by paths of length exactly
    ``i``; ``total`` (F) is their running sum. ``r`` is the dependence
    vector over the same orders. ``complete`` is set when ``total`` and
    ``r`` cover every path: the iteration stopped on an exactly zero
    order or reached the longest path length. ``group_orders`` holds the
    orders each column group computed, one whose block turned zero
    included; the sum of ``edge_work`` over them is the run's edge work.
    """

    identity_flow: np.ndarray
    order_flows: tuple[np.ndarray, ...]
    total: np.ndarray
    r: np.ndarray
    complete: bool
    group_orders: tuple[int, ...]

    @property
    def order_count(self) -> int:
        return len(self.order_flows)


def _flow_group(operator, q, order, position, start, stop, limit, flows):
    """Run the iteration on columns ``start``..``stop - 1`` of ``[Q | 1]``.

    Writes the group's columns of each order's k x k flow, appending it
    to ``flows`` if no group has reached that order yet. Returns the
    orders it computed and, from the group holding the unit column,
    ``r`` in height order (None from any other).
    """
    k = q[3]
    block = _group_block(q, order, start, stop)
    # Q^T with its columns in height order and its entries in publication
    # order, cut to the block's rows at each order.
    qt = _transpose(q)
    _relabel(qt[1], position)
    r = np.zeros(operator.n, dtype=np.float64) if stop > k else None
    for t, block in enumerate(_powers(operator, order, position, block, limit)):
        qt = _filter(qt, k, len(block))
        product = _product(qt, block)
        if t == len(flows):
            flows.append(np.zeros((k, k), dtype=np.float64))
        flows[t][:, start : min(stop, k)] = product[:, : k - start]
        if r is not None:
            r[: len(block)] += block[:, -1]
    # Order t + 1 ran too, unless the limit or the bound stopped it first.
    return min(t + 1, limit, operator.order_bound), r


def flow_decomposition(
    operator: NormalizedCitationOperator, membership: Membership, max_order=AUTO
) -> FlowDecomposition:
    """Per-order flows, total flow and dependence vector in one iteration.

    The iteration starts from the dense block ``[Q | 1]``: the
    membership columns next to a unit column. Each order projects the
    membership columns onto the k x k order flow (``Q^T`` times the
    block) and adds the unit column into ``r``; the next order then
    overwrites the block in place.

    Each column of the iteration is independent of the others, so it
    runs once per group of ``_groups``, only one group's n x width block
    alive at a time. Every group runs to the same limit and stops at its
    own first exactly zero block, as the whole block would stop at its
    own: the flows reach the longest group's orders, and the columns of
    a group that stopped earlier stay +0.0 in the later ones, whatever
    the order the groups run in.

    Order flows are nonnegative by construction. ``max_order`` AUTO
    runs to the longest path length; a numeric value truncates earlier
    (order-limited analyses).
    """
    q = _membership_csr(membership, operator.n)
    k = q[3]
    limit = _order_limit(operator, max_order)
    order, position = _height_order(operator)
    flows: list[np.ndarray] = []
    runs = [_flow_group(operator, q, order, position, start, stop, limit, flows)
            for start, stop in _groups(k + 1)]
    r = runs[-1][1]  # the last group holds the unit column
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
        group_orders=tuple(orders for orders, _ in runs),
    )


def dependence_vector(
    operator: NormalizedCitationOperator, max_order=AUTO
) -> np.ndarray:
    """Total dependence of each publication on the whole network.

    The ``r`` of ``flow_decomposition`` over no discipline, where
    ``[Q | 1]`` is the unit column alone. At full order it satisfies
    r = (operator) r + 1, which is PageRank with damping factor one and
    a unit exogenous vector.
    """
    none = Membership(k=0, labels=(), indptr=np.zeros(operator.n + 1, dtype=np.int64),
                      indices=np.zeros(0, dtype=np.int64), data=np.zeros(0))
    return flow_decomposition(operator, none, max_order).r
