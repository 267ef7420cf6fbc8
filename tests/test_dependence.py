"""Dependence engine against frozen FIX7 values and the oracles."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import sparse

from citeflow import (
    AUTO,
    EdgeTable,
    Membership,
    NodeTable,
    PubTime,
    SynthSpec,
    build_graph,
    build_operator,
    dense_dependence,
    dependence,
    dependence_stack,
    dependence_vector,
    edge_work,
    enumerate_dependence_row,
    flow_decomposition,
    propagate,
    random_dag,
)
from conftest import (
    FIX7_F,
    FIX7_F0,
    FIX7_M1,
    FIX7_R_VECTOR,
    as_scipy,
    dense_membership,
    operator_csr,
)


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


def _group_rows(rows, width):
    """Make each order update a width-``width`` block ``rows`` rows at a time."""
    return mock.patch.object(dependence, "_GROUP_BYTES", 8 * width * rows)


def _group_columns(width):
    """Make ``flow_decomposition`` run ``[Q | 1]`` ``width`` columns at a time."""
    return mock.patch.object(dependence, "_GROUP_COLUMNS", width)


def _corner(csr, rows: int, columns: int):
    """The leading ``rows`` x ``columns`` corner of a CSR tuple, as new
    arrays: the copying filter that ``dependence._filter`` replaced.

    Entries keep their stored order. One filter over the entries; every
    entry in a row past ``rows`` must lie in a column past ``columns``.
    """
    indptr, indices, data, _ = csr
    keep = np.flatnonzero(indices < columns)
    return (
        keep.searchsorted(indptr[: rows + 1]).astype(indptr.dtype),
        indices.take(keep),
        data.take(keep),
        columns,
    )


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


def _chain(k):
    nodes = [(f"n{i}", PubTime(2016, 12 - i)) for i in range(k)]
    edges = [(f"n{i}", f"n{i+1}") for i in range(k - 1)]
    graph, _ = build_graph(NodeTable.from_pairs(nodes), [EdgeTable.from_pairs(edges)])
    return graph


class TestOperator:
    def test_fix7_rows(self, fix7_graph):
        w = as_scipy(build_operator(fix7_graph))
        row1 = w[0]
        assert dict(zip(row1.indices.tolist(), row1.data.tolist())) == {1: 0.5, 2: 0.5}
        assert w[5].nnz == 0  # node 6 is a sink
        row3 = w[2]
        assert dict(zip(row3.indices.tolist(), row3.data.tolist())) == {4: 1.0}

    def test_nonempty_rows_sum_to_one(self, fix7_graph):
        op = build_operator(fix7_graph)
        sums = np.asarray(as_scipy(op).sum(axis=1)).ravel()
        out = fix7_graph.outdegree
        assert np.all(np.abs(sums[out > 0] - 1.0) <= 1e-12)
        assert np.all(sums[out == 0] == 0.0)

    def test_nilpotency_is_exact(self, fix7_graph, fix7_membership):
        op = build_operator(fix7_graph)
        current = as_scipy(fix7_membership).toarray()
        for _ in range(op.order_bound + 1):
            current = propagate(operator_csr(op), current)
        assert not current.any()

    def test_order_bound_matches_longest_path(self, fix7_graph):
        assert build_operator(fix7_graph).order_bound == 3


class TestPropagate:
    def test_membership_step(self, fix7_graph, fix7_membership):
        op = build_operator(fix7_graph)
        q = as_scipy(fix7_membership)
        out = propagate(operator_csr(op), q.toarray())
        assert out[0].tolist() == [0.5, 0.5, 0.0]  # node 1 cites 2 in X, 3 in Y
        assert out[5].tolist() == [0.0, 0.0, 0.0]  # sink row
        assert out.tobytes() == (as_scipy(op) @ q.toarray()).tobytes()

    def test_zeros_stay_zero(self, fix7_graph):
        op = build_operator(fix7_graph)
        out = propagate(operator_csr(op), np.zeros((7, 2)))
        assert np.all(out == 0.0)

    def test_dimension_mismatch_raises(self, fix7_graph):
        op = build_operator(fix7_graph)
        with pytest.raises(ValueError, match="rows"):
            propagate(operator_csr(op), np.zeros((6, 2)))

    @pytest.mark.parametrize(
        "csr",
        [
            ([0, 1, 3], [0, 2, 1], [1.0, 1.0, 1.0], 2),  # column past ncols
            ([0, 1, 3], [0, -1, 1], [1.0, 1.0, 1.0], 2),  # negative column
            ([0, 2, 1], [0, 1], [1.0, 1.0], 2),  # row pointers go back
            ([0, 1, 4], [0, 1, 1], [1.0, 1.0, 1.0], 2),  # past the entries
            ([0, 1, 2], [0, 1], [1.0], 2),  # fewer values than indices
            ([1, 1, 2], [0, 1], [1.0, 1.0], 2),  # does not start at 0
        ],
    )
    def test_malformed_csr_raises(self, csr):
        indptr, indices, data, ncols = csr
        csr = (np.array(indptr), np.array(indices), np.array(data), ncols)
        with pytest.raises(ValueError, match="malformed"):
            propagate(csr, np.ones((ncols, 2)))

    def test_malformed_membership_raises(self, fix7_graph, fix7_membership):
        bad = Membership(k=2, labels=("X", "Y"), indptr=fix7_membership.indptr,
                         indices=fix7_membership.indices, data=fix7_membership.data)
        with pytest.raises(ValueError, match="malformed"):
            flow_decomposition(build_operator(fix7_graph), bad)

    def test_malformed_operator_raises(self, fix7_graph, fix7_membership):
        op = build_operator(fix7_graph)
        bad = dataclasses.replace(op, indices=np.where(op.indices == 6, -1, op.indices))
        with pytest.raises(ValueError, match="malformed"):
            flow_decomposition(bad, fix7_membership)

    def test_sparse_and_dense_inputs_agree_bitwise(self):
        # scipy's products of the sparse and of the dense membership are
        # the oracles of the dense path.
        graph, membership = random_dag(SynthSpec(n=300, target_m=900, k=5, seed=9))
        op = build_operator(graph)
        w, q = as_scipy(op), as_scipy(membership)
        out = propagate(operator_csr(op), q.toarray())
        assert out.tobytes() == (w @ q).toarray().tobytes()
        assert out.tobytes() == (w @ q.toarray()).tobytes()


class TestDependenceStack:
    def test_fix7_auto_order(self, fix7_graph, fix7_membership):
        op = build_operator(fix7_graph)
        decomp = flow_decomposition(op, fix7_membership)
        assert decomp.order_count == 3
        assert decomp.complete
        # the next application would be exactly the zero matrix
        last = as_scipy(fix7_membership).toarray()
        for _ in range(decomp.order_count):
            last = propagate(operator_csr(op), last)
        assert last.any()
        assert not propagate(operator_csr(op), last).any()

    def test_edgeless_graph_stack_is_membership_only(self):
        graph, _ = build_graph(
            NodeTable.from_pairs([("a", PubTime(2016, 1)), ("b", PubTime(2015, 1))]),
            [EdgeTable.from_pairs([])],
        )
        q = dense_membership([[1.0], [1.0]])
        decomp = flow_decomposition(build_operator(graph), q)
        assert decomp.order_count == 0
        assert decomp.complete
        assert decomp.identity_flow.tolist() == [[2.0]]
        assert decomp.r.tolist() == [1.0, 1.0]

    def test_truncation_keeps_requested_orders(self, fix7_graph, fix7_membership):
        op = build_operator(fix7_graph)
        decomp = flow_decomposition(op, fix7_membership, max_order=1)
        assert decomp.order_count == 1
        assert not decomp.complete
        assert decomp.r.tolist() == dependence_vector(op, max_order=1).tolist()
        assert decomp.r[0] == 2.0  # itself, plus 0.5 through each paper it cites

    def test_numeric_order_beyond_bound_stops_on_zero(self, fix7_graph, fix7_membership):
        op = build_operator(fix7_graph)
        decomp = flow_decomposition(op, fix7_membership, max_order=10)
        assert decomp.order_count == 3
        assert decomp.complete


class TestTotalDependence:
    def test_fix7_rows(self, fix7_graph, fix7_membership):
        total = dependence_stack(build_operator(fix7_graph), fix7_membership)
        assert total[0].tolist() == [1.75, 1.25, 1.0]
        assert total[5].tolist() == [0.0, 0.0, 1.0]  # sink depends on itself only
        assert total[3].tolist() == [1.0, 0.0, 1.0]

    def test_truncated_sum_covers_short_paths_only(self, fix7_graph, fix7_membership):
        op = build_operator(fix7_graph)
        q = as_scipy(fix7_membership)
        partial = dependence_stack(op, fix7_membership, max_order=1)
        assert np.array_equal(partial, q.toarray() + (as_scipy(op) @ q).toarray())

    def test_row_sums_equal_dependence_vector(self, fix7_graph, fix7_membership):
        op = build_operator(fix7_graph)
        total = dependence_stack(op, fix7_membership)
        r = dependence_vector(op)
        assert np.abs(total.sum(axis=1) - r).max() <= 1e-9


class TestDependenceVector:
    def test_fix7(self, fix7_graph):
        r = dependence_vector(build_operator(fix7_graph))
        assert r.tolist() == list(FIX7_R_VECTOR)

    def test_sink_is_one(self):
        graph, _ = build_graph(
            NodeTable.from_pairs([("a", PubTime(2016, 1))]), [EdgeTable.from_pairs([])]
        )
        assert dependence_vector(build_operator(graph)).tolist() == [1.0]

    def test_chain(self):
        r = dependence_vector(build_operator(_chain(3)))
        assert r.tolist() == [3.0, 2.0, 1.0]

    def test_fixed_point_residual(self, fix7_graph):
        op = build_operator(fix7_graph)
        r = dependence_vector(op)
        residual = np.abs(r - (as_scipy(op) @ r + 1.0)).max()
        assert residual <= 1e-9


class TestSourceDependence:
    def test_fix7_entries(self, fix7_graph, fix7_membership):
        s = _source_dependence(build_operator(fix7_graph), fix7_membership)
        idx = fix7_graph.id_index
        assert s[0, idx["6"]] == pytest.approx(19 / 8, abs=1e-12)
        assert s[2, idx["1"]] == 0.0
        assert s[1, idx["5"]] == pytest.approx(2.0, abs=1e-12)

    def test_matches_membership_weighted_oracle(self, fix7_graph, fix7_membership):
        s = _source_dependence(build_operator(fix7_graph), fix7_membership)
        oracle = as_scipy(fix7_membership).toarray().T @ dense_dependence(fix7_graph)
        assert np.abs(s - oracle).max() <= 1e-9

    def test_times_membership_gives_total_flow(self, fix7_graph, fix7_membership):
        op = build_operator(fix7_graph)
        s = _source_dependence(op, fix7_membership)
        flow = flow_decomposition(op, fix7_membership)
        assert np.abs(s @ as_scipy(fix7_membership).toarray() - flow.total).max() <= 1e-9


class TestFlowDecomposition:
    def test_fix7_matrices(self, fix7_graph, fix7_membership):
        decomp = flow_decomposition(build_operator(fix7_graph), fix7_membership)
        assert decomp.total.tolist() == FIX7_F
        assert decomp.identity_flow.tolist() == FIX7_F0
        assert decomp.order_flows[0].tolist() == FIX7_M1
        assert decomp.r.tolist() == list(FIX7_R_VECTOR)

    def test_partials_are_running_sums(self, fix7_graph, fix7_membership):
        decomp = flow_decomposition(build_operator(fix7_graph), fix7_membership)
        acc = decomp.identity_flow
        for order_flow in decomp.order_flows:
            acc = acc + order_flow
        assert acc.tobytes() == decomp.total.tobytes()

    def test_r_matches_separate_iteration_bitwise(self):
        graph, membership = random_dag(SynthSpec(n=300, target_m=900, k=5, seed=9))
        op = build_operator(graph)
        for max_order in ("auto", 2):
            decomp = flow_decomposition(op, membership, max_order)
            r = dependence_vector(op, max_order)
            assert decomp.r.tobytes() == r.tobytes()

    def test_order_flows_nonnegative(self, fix7_graph, fix7_membership):
        decomp = flow_decomposition(build_operator(fix7_graph), fix7_membership)
        for order_flow in decomp.order_flows:
            assert np.all(order_flow >= 0.0)


class TestOracleAgreement:
    """Cross-checks between the iterative engine and the dense oracle."""

    @pytest.mark.parametrize("seed", [3, 17, 99])
    def test_iterative_matches_dense_oracle(self, seed):
        graph, membership = random_dag(SynthSpec(n=150, target_m=450, k=6, seed=seed))
        op = build_operator(graph)
        total = dependence_stack(op, membership)
        oracle = dense_dependence(graph) @ as_scipy(membership).toarray()
        assert np.abs(total - oracle).max() <= 1e-9

    @pytest.mark.parametrize("seed", [3, 17])
    def test_oracle_entries_are_probabilities(self, seed):
        graph, _ = random_dag(SynthSpec(n=200, target_m=800, k=2, seed=seed))
        p = dense_dependence(graph)
        assert p.min() >= -1e-12
        assert p.max() <= 1.0 + 1e-12

    def test_oracle_pattern_is_transitive_closure(self):
        graph, _ = random_dag(SynthSpec(n=40, target_m=90, k=2, seed=21))
        p = dense_dependence(graph)
        reachable = np.zeros((graph.n, graph.n), dtype=bool)
        for src in range(graph.n):
            stack = [src]
            while stack:
                u = stack.pop()
                if reachable[src, u] and u != src:
                    continue
                if u != src:
                    reachable[src, u] = True
                stack.extend(int(v) for v in graph.out_neighbors(u))
            reachable[src, src] = True
        assert np.array_equal(p != 0.0, reachable)

    @pytest.mark.parametrize("seed", [3, 17])
    def test_totals_identity(self, seed):
        graph, membership = random_dag(SynthSpec(n=150, target_m=450, k=6, seed=seed))
        op = build_operator(graph)
        decomp = flow_decomposition(op, membership)
        flow_total = math.fsum(decomp.total.ravel())
        r_total = math.fsum(dependence_vector(op))
        assert abs(flow_total - r_total) <= 1e-9 * abs(r_total)

    def test_exact_enumeration_matches_dense(self):
        graph, _ = random_dag(SynthSpec(n=60, target_m=150, k=2, seed=4))
        p = dense_dependence(graph)
        for u in range(graph.n):
            exact = enumerate_dependence_row(graph, u)
            for v in range(graph.n):
                expected = float(exact.get(v, 0))
                assert abs(p[u, v] - expected) <= 1e-9


class TestHeightOrderedIteration:
    """The height-ordered iteration against the full-operator one, byte for byte."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=80),
        per_node=st.integers(min_value=0, max_value=8),
        month_span=st.integers(min_value=1, max_value=60),
        k=st.integers(min_value=1, max_value=5),
        which=st.sampled_from(["1", "2", "L", "L+3", "auto"]),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_full_operator_iteration(
        self, seed, n, per_node, month_span, k, which
    ):
        spec = SynthSpec(
            n=n,
            target_m=min(per_node * n, n * (n - 1) // 2),
            k=k,
            seed=seed,
            month_span=month_span,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # infeasible targets
            graph, membership = random_dag(spec)
        op = build_operator(graph)
        bound = op.order_bound
        max_order = {"1": 1, "2": 2, "L": bound, "L+3": bound + 3, "auto": AUTO}[which]
        limit = bound if max_order == AUTO else max_order
        q = as_scipy(membership)

        flows, total, r = _full_flows(op, q, limit)
        stack_want = _full_stack(op, q, limit)
        ones = sparse.csr_matrix(np.ones((graph.n, 1)))
        vector_want = _full_stack(op, ones, limit)[:, 0]
        # Each order updates its block in place, a group of rows at a
        # time, and the flows and the stack run a group of columns at a
        # time (all of them unpatched, as k <= 5 here); any size of either
        # group gives the same bytes.
        for rows in (1, 2, 3, graph.n):
            for columns in (1, 2, k + 1):
                with _group_rows(rows, min(columns, k + 1)), _group_columns(columns):
                    decomp = flow_decomposition(op, membership, max_order)
                assert decomp.order_count == len(flows) - 1
                assert decomp.identity_flow.tobytes() == flows[0].tobytes()
                for got, want in zip(decomp.order_flows, flows[1:]):
                    assert got.tobytes() == want.tobytes()
                assert decomp.total.tobytes() == total.tobytes()
                assert decomp.r.tobytes() == r.tobytes()
            for columns in (1, 2, k):
                with _group_rows(rows, min(columns, k)), _group_columns(columns):
                    stack = dependence_stack(op, membership, max_order)
                assert stack.tobytes() == stack_want.tobytes()
            with _group_rows(rows, 1):
                vector = dependence_vector(op, max_order)
            assert vector.tobytes() == vector_want.tobytes()

    @pytest.mark.parametrize("dense", [False, True])
    def test_inputs_are_left_unchanged(self, dense):
        graph, membership = random_dag(SynthSpec(n=300, target_m=1500, k=3, seed=5))
        op = build_operator(graph)
        if dense:
            # The same weights, through the assembler from a dense array.
            membership = dense_membership(as_scipy(membership).toarray())
        inputs = [membership.indptr, membership.indices, membership.data]
        inputs += [op.indptr, op.indices, op.data, op.heights]
        before = [array.copy() for array in inputs]
        # Unpatched, [Q | 1] runs as one group; with width 2, as two.
        for columns in (dependence._GROUP_COLUMNS, 2):
            with _group_rows(2, 4), _group_columns(columns):
                flow_decomposition(op, membership)
                dependence_stack(op, membership)
                dependence_vector(op)
            for array, copy in zip(inputs, before):
                assert array.tobytes() == copy.tobytes()

    def test_one_dense_block_at_paper_width(self):
        # At k=130 the dense blocks are most of the engine's memory: one
        # group of at most 64 of the k+1 columns at a time. Two n x (k+1)
        # blocks alive at once would take the peak past 2x.
        graph, membership = random_dag(
            SynthSpec(n=20000, target_m=100000, k=130, seed=1)
        )
        op = build_operator(graph)
        block_bytes = graph.n * (membership.k + 1) * 8
        tracemalloc.start()
        try:
            flow_decomposition(op, membership)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * block_bytes

    def test_one_copy_of_the_edges(self):
        # On a deep graph the edges outweigh the block: 16 bytes an edge,
        # copied once and filtered in place at each of about 70 orders.
        # Beside the block and that copy, the engine holds the k x (k+1)
        # products behind the flows it returns, a few words a publication
        # (height order, positions, r, row pointers and Q^T) and one
        # group's scratch. A second copy of the edges would not fit.
        graph, membership = random_dag(
            SynthSpec(n=12500, target_m=250000, k=30, seed=1, month_span=120)
        )
        op = build_operator(graph)
        k = membership.k
        block_bytes = graph.n * (k + 1) * 8
        with _group_rows(64, k + 1):
            budget = dependence._GROUP_BYTES
            tracemalloc.start()
            try:
                decomp = flow_decomposition(op, membership)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        flows = (decomp.order_count + 1) * k * (k + 1) * 8
        per_publication = 8 * 8 * graph.n
        assert peak < block_bytes + 16 * graph.m + flows + per_publication + budget

    def test_one_column_group_at_paper_width(self):
        # At k=130, [Q | 1] runs as three groups of at most 64 columns
        # (43 or 44 here), one block alive at a time. Beside that block
        # the engine holds one copy of the edges (16 bytes each), the
        # flows it returns (counted as k x (k+1) each), a few words a
        # publication and one group budget. The whole n x (k+1) block
        # would not fit.
        graph, membership = random_dag(
            SynthSpec(n=20000, target_m=100000, k=130, seed=1)
        )
        op = build_operator(graph)
        k = membership.k
        assert dependence.column_groups(k) == 3
        group_bytes = graph.n * dependence._GROUP_COLUMNS * 8
        tracemalloc.start()
        try:
            decomp = flow_decomposition(op, membership)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        flows = (decomp.order_count + 1) * k * (k + 1) * 8
        per_publication = 8 * 8 * graph.n
        budget = dependence._GROUP_BYTES
        assert peak < group_bytes + 16 * graph.m + flows + per_publication + budget

    def test_stack_one_column_group_at_paper_width(self):
        # The stack runs the k=130 columns of Q as three groups of 43 or
        # 44, one block alive at a time. Beside its n x k sums in height
        # order and their copy in publication order, the engine holds one
        # group's block, one copy of the edges (16 bytes each), a few
        # words a publication and one group budget. A whole n x k block
        # would not fit.
        graph, membership = random_dag(
            SynthSpec(n=20000, target_m=100000, k=130, seed=1)
        )
        op = build_operator(graph)
        tracemalloc.start()
        try:
            dependence_stack(op, membership)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sums = 2 * graph.n * membership.k * 8
        group_bytes = graph.n * dependence._GROUP_COLUMNS * 8
        per_publication = 8 * 8 * graph.n
        budget = dependence._GROUP_BYTES
        assert peak < sums + group_bytes + 16 * graph.m + per_publication + budget

    @pytest.mark.parametrize("seed", [3, 17])
    def test_edge_work_counts_the_edges_of_each_order(self, seed):
        graph, _ = random_dag(SynthSpec(n=150, target_m=600, k=2, seed=seed))
        op = build_operator(graph)
        cited = graph.heights[graph.indices]
        for orders in (0, 1, 2, op.order_bound, op.order_bound + 3):
            per_order = [int((cited >= t - 1).sum()) for t in range(1, orders + 1)]
            assert edge_work(op, orders) == sum(per_order)
        assert edge_work(op, op.order_bound) <= op.order_bound * graph.m

    def test_fix7_edge_work(self, fix7_graph):
        op = build_operator(fix7_graph)
        assert edge_work(op, 3) == 15
        assert edge_work(op, 1) == fix7_graph.m

    @pytest.mark.parametrize("seed", [1, 7])
    def test_group_orders_count_the_order_that_turned_zero(self, seed):
        # With one column per group, group c computes one order for each
        # nonzero image of column c of [Q | 1] and one for the image that
        # turned exactly zero, within the limit and the longest path. Here
        # some disciplines turn zero before the unit column does.
        graph, membership = random_dag(SynthSpec(n=150, target_m=600, k=8, seed=seed))
        op = build_operator(graph)
        columns = np.hstack([as_scipy(membership).toarray(), np.ones((graph.n, 1))])
        for limit in (0, 1, 2, op.order_bound):
            want = tuple(
                min(len(list(_full_powers(op, columns[:, [c]], limit))), limit,
                    op.order_bound)
                for c in range(membership.k + 1)
            )
            with _group_columns(1):
                assert flow_decomposition(op, membership, limit).group_orders == want
        assert len(set(want)) > 1


class TestColumnGroups:
    """Flows run a group of columns of [Q | 1] at a time, byte for byte."""

    def test_sink_only_discipline_turns_zero_early(self):
        # A chain a -> b -> c -> d runs the unit group to order 3. Discipline
        # d2 is held only by the sink s, which only e cites: its group is
        # nonzero at order 1 and stops there, so its column of the later
        # flows stays +0.0.
        months = {"a": 12, "b": 11, "c": 10, "d": 9, "e": 12, "s": 11}
        nodes = [(name, PubTime(2016, month)) for name, month in months.items()]
        edges = [("a", "b"), ("b", "c"), ("c", "d"), ("e", "s")]
        graph, _ = build_graph(
            NodeTable.from_pairs(nodes), [EdgeTable.from_pairs(edges)]
        )
        held = {"a": 0, "b": 0, "c": 1, "d": 1, "e": 1, "s": 2}
        array = np.zeros((graph.n, 3))
        for name, column in held.items():
            array[graph.id_index[name], column] = 1.0
        membership = dense_membership(array)
        op = build_operator(graph)
        flows, total, r = _full_flows(op, as_scipy(membership), op.order_bound)
        with _group_columns(1):
            decomp = flow_decomposition(op, membership)
        assert decomp.order_count == 3
        assert decomp.complete
        assert decomp.order_flows[0][:, 2].tolist() == [0.0, 1.0, 0.0]
        for order_flow in decomp.order_flows[1:]:
            assert order_flow[:, 2].tobytes() == np.zeros(3).tobytes()
        assert decomp.order_flows[2][:, 1].any()
        for got, want in zip((decomp.identity_flow, *decomp.order_flows), flows):
            assert got.tobytes() == want.tobytes()
        assert decomp.total.tobytes() == total.tobytes()
        assert decomp.r.tobytes() == r.tobytes()

    @pytest.mark.parametrize("columns", [1, 2, 4])
    def test_truncation_with_several_groups(self, columns):
        graph, membership = random_dag(SynthSpec(n=300, target_m=1500, k=5, seed=7))
        op = build_operator(graph)
        assert op.order_bound > 3
        for max_order in (0, 1, 3, op.order_bound - 1):
            want = flow_decomposition(op, membership, max_order)
            with _group_columns(columns):
                got = flow_decomposition(op, membership, max_order)
            assert got.order_count == want.order_count == max_order
            assert not got.complete
            for a, b in zip(
                (got.identity_flow, *got.order_flows, got.total, got.r),
                (want.identity_flow, *want.order_flows, want.total, want.r),
            ):
                assert a.tobytes() == b.tobytes()


@st.composite
def _csr_arrays(draw):
    """CSR arrays with empty rows, repeated and unsorted columns, and
    possibly a single row or no column at all."""
    rows = draw(st.integers(min_value=1, max_value=6))
    ncols = draw(st.integers(min_value=0, max_value=6))
    values = st.floats(min_value=-1e300, max_value=1e300, allow_subnormal=True)
    entry = st.tuples(st.integers(0, max(ncols - 1, 0)), values)
    per_row = [
        draw(st.lists(entry, max_size=4 if ncols else 0)) for _ in range(rows)
    ]
    indptr = np.cumsum([0] + [len(row) for row in per_row])
    indices = np.array([c for row in per_row for c, _ in row], dtype=np.int64)
    data = np.array([v for row in per_row for _, v in row], dtype=np.float64)
    return indptr, indices, data, ncols


@st.composite
def _nested_corners(draw):
    """CSR arrays and a sequence of ever smaller ``(rows, columns)``
    corners, as the engine's orders take them: every entry of a row past
    a corner's rows lies in a column past its columns. Rows may be empty
    or lose every entry, and entries may be zero."""
    nrows = draw(st.integers(min_value=1, max_value=8))
    ncols = draw(st.integers(min_value=0, max_value=8))
    steps = draw(st.integers(min_value=1, max_value=4))
    cuts = st.lists(st.tuples(st.integers(0, nrows), st.integers(0, ncols)),
                    min_size=steps, max_size=steps)
    pairs = draw(cuts)
    corners = list(zip(sorted((r for r, _ in pairs), reverse=True),
                       sorted((c for _, c in pairs), reverse=True)))
    values = st.sampled_from([0.0, -0.0]) | st.floats(
        min_value=-1e300, max_value=1e300, allow_subnormal=True
    )
    per_row = []
    for i in range(nrows):
        low = max([c for r, c in corners if i >= r], default=0)
        entries = st.lists(st.tuples(st.integers(low, ncols - 1), values), max_size=5)
        per_row.append(draw(entries) if low < ncols else [])
    indptr = np.cumsum([0] + [len(row) for row in per_row])
    indices = np.array([c for row in per_row for c, _ in row], dtype=np.int64)
    data = np.array([v for row in per_row for _, v in row], dtype=np.float64)
    return (indptr, indices, data, ncols), corners


class TestFilter:
    """The in-place filter against the copying one, byte for byte."""

    @given(case=_nested_corners(), chunk=st.integers(min_value=1, max_value=6))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_the_copying_filter(self, case, chunk):
        want, corners = case
        arrays = [array.copy() for array in want[:3]]
        got = (*arrays, want[3])
        # Chunks of 1 to 6 entries end inside rows and on row ends.
        with mock.patch.object(dependence, "_GROUP_BYTES", 16 * chunk):
            for rows, columns in corners:
                want = _corner(want, rows, columns)
                got = dependence._filter(got, rows, columns)
                assert got[3] == want[3]
                for array, view, oracle in zip(arrays, got[:3], want[:3]):
                    assert view.base is array  # filtered in place
                    assert view.dtype == oracle.dtype
                    assert view.tobytes() == oracle.tobytes()


class TestPlainArrayKernels:
    """The kernels on plain CSR arrays against scipy.sparse, bit for bit."""

    @given(csr=_csr_arrays(), width=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_product_matches_scipy(self, csr, width, seed):
        a = sparse.csr_matrix((csr[2], csr[1], csr[0]), shape=(len(csr[0]) - 1, csr[3]))
        x = np.random.default_rng(seed).standard_normal((csr[3], width)) * 1e3
        assert propagate(csr, x).tobytes() == np.asarray(a @ x).tobytes()

    @given(csr=_csr_arrays())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_transpose_and_dense_match_scipy(self, csr):
        a = sparse.csr_matrix((csr[2], csr[1], csr[0]), shape=(len(csr[0]) - 1, csr[3]))
        indptr, indices, data, ncols = dependence._transpose(csr)
        oracle = a.T.tocsr()
        assert ncols == a.shape[0]
        assert indptr.tolist() == oracle.indptr.tolist()
        assert indices.tolist() == oracle.indices.tolist()
        assert data.tobytes() == oracle.data.tobytes()
        assert dependence._dense(csr).tobytes() == a.toarray().tobytes()

    @given(csr=_csr_arrays(), data=st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_take_rows_matches_scipy(self, csr, data):
        rows = len(csr[0]) - 1
        order = np.array(data.draw(st.lists(st.integers(0, rows - 1), max_size=8)),
                         dtype=np.int64)
        a = sparse.csr_matrix((csr[2], csr[1], csr[0]), shape=(rows, csr[3]))
        indptr, indices, values, ncols = dependence._take_rows(csr, order)
        oracle = a[order]
        assert ncols == csr[3]
        assert indptr.tolist() == oracle.indptr.tolist()
        assert indices.tolist() == oracle.indices.tolist()
        assert values.tobytes() == oracle.data.tobytes()

    @given(csr=_csr_arrays())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_membership_sizes_match_scipy(self, csr):
        indptr, indices, data, k = csr
        assume(k > 0)
        membership = Membership(k=k, labels=tuple(map(str, range(k))),
                                indptr=indptr, indices=indices, data=data)
        oracle = np.asarray(
            sparse.csr_matrix((data, indices, indptr), shape=(membership.n, k)).sum(axis=0)
        ).ravel()
        assert membership.sizes().tobytes() == oracle.tobytes()
