"""Dependence engine against frozen FIX7 values and the oracles."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from citeflow import (
    AUTO,
    EdgeTable,
    NodeTable,
    PubTime,
    SynthSpec,
    build_graph,
    build_operator,
    dense_dependence,
    dependence_stack,
    dependence_vector,
    edge_work,
    enumerate_dependence_row,
    flow_decomposition,
    propagate,
    random_dag,
    source_dependence,
)
from conftest import FIX7_F, FIX7_F0, FIX7_M1, FIX7_R_VECTOR


def _full_powers(op, block, limit):
    """The full-operator iteration: every order runs all n rows through
    all m edges, until ``limit`` or the first exactly zero block."""
    yield block
    for _ in range(limit):
        block = op.matrix @ block
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


def _chain(k):
    nodes = [(f"n{i}", PubTime(2016, 12 - i)) for i in range(k)]
    edges = [(f"n{i}", f"n{i+1}") for i in range(k - 1)]
    graph, _ = build_graph(NodeTable.from_pairs(nodes), EdgeTable.from_pairs(edges))
    return graph


class TestOperator:
    def test_fix7_rows(self, fix7_graph):
        op = build_operator(fix7_graph)
        row1 = op.matrix[0]
        assert dict(zip(row1.indices.tolist(), row1.data.tolist())) == {1: 0.5, 2: 0.5}
        assert op.matrix[5].nnz == 0  # node 6 is a sink
        row3 = op.matrix[2]
        assert dict(zip(row3.indices.tolist(), row3.data.tolist())) == {4: 1.0}

    def test_nonempty_rows_sum_to_one(self, fix7_graph):
        op = build_operator(fix7_graph)
        sums = np.asarray(op.matrix.sum(axis=1)).ravel()
        out = fix7_graph.outdegree
        assert np.all(np.abs(sums[out > 0] - 1.0) <= 1e-12)
        assert np.all(sums[out == 0] == 0.0)

    def test_nilpotency_is_exact(self, fix7_graph, fix7_membership):
        op = build_operator(fix7_graph)
        current = fix7_membership.weights
        for _ in range(op.order_bound + 1):
            current = propagate(op, current)
        assert current.nnz == 0

    def test_order_bound_matches_longest_path(self, fix7_graph):
        assert build_operator(fix7_graph).order_bound == 3


class TestPropagate:
    def test_membership_step(self, fix7_graph, fix7_membership):
        op = build_operator(fix7_graph)
        out = propagate(op, fix7_membership.weights).toarray()
        assert out[0].tolist() == [0.5, 0.5, 0.0]  # node 1 cites 2 in X, 3 in Y
        assert out[5].tolist() == [0.0, 0.0, 0.0]  # sink row

    def test_zeros_stay_zero(self, fix7_graph):
        op = build_operator(fix7_graph)
        out = propagate(op, np.zeros((7, 2)))
        assert np.all(out == 0.0)

    def test_dimension_mismatch_raises(self, fix7_graph):
        op = build_operator(fix7_graph)
        with pytest.raises(ValueError, match="rows"):
            propagate(op, np.zeros((6, 2)))

    def test_sparse_and_dense_inputs_agree_bitwise(self):
        graph, membership = random_dag(SynthSpec(n=300, target_m=900, k=5, seed=9))
        op = build_operator(graph)
        from_sparse = propagate(op, membership.weights).toarray()
        from_dense = propagate(op, membership.weights.toarray())
        assert from_sparse.tobytes() == from_dense.tobytes()


class TestDependenceStack:
    def test_fix7_auto_order(self, fix7_graph, fix7_membership):
        op = build_operator(fix7_graph)
        decomp = flow_decomposition(op, fix7_membership)
        assert decomp.order_count == 3
        assert decomp.complete
        # the next application would be exactly the zero matrix
        last = fix7_membership.weights
        for _ in range(decomp.order_count):
            last = propagate(op, last)
        assert last.nnz > 0
        assert propagate(op, last).nnz == 0

    def test_edgeless_graph_stack_is_membership_only(self):
        graph, _ = build_graph(
            NodeTable.from_pairs([("a", PubTime(2016, 1)), ("b", PubTime(2015, 1))]),
            EdgeTable.from_pairs([]),
        )
        q = sparse.csr_matrix(np.array([[1.0], [1.0]]))
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
        q = fix7_membership.weights
        partial = dependence_stack(op, fix7_membership, max_order=1)
        assert np.array_equal(partial, q.toarray() + propagate(op, q).toarray())

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
            NodeTable.from_pairs([("a", PubTime(2016, 1))]), EdgeTable.from_pairs([])
        )
        assert dependence_vector(build_operator(graph)).tolist() == [1.0]

    def test_chain(self):
        r = dependence_vector(build_operator(_chain(3)))
        assert r.tolist() == [3.0, 2.0, 1.0]

    def test_fixed_point_residual(self, fix7_graph):
        op = build_operator(fix7_graph)
        r = dependence_vector(op)
        residual = np.abs(r - (op.matrix @ r + 1.0)).max()
        assert residual <= 1e-9


class TestSourceDependence:
    def test_fix7_entries(self, fix7_graph, fix7_membership):
        s = source_dependence(build_operator(fix7_graph), fix7_membership)
        idx = fix7_graph.id_index
        assert s[0, idx["6"]] == pytest.approx(19 / 8, abs=1e-12)
        assert s[2, idx["1"]] == 0.0
        assert s[1, idx["5"]] == pytest.approx(2.0, abs=1e-12)

    def test_matches_membership_weighted_oracle(self, fix7_graph, fix7_membership):
        s = source_dependence(build_operator(fix7_graph), fix7_membership)
        oracle = fix7_membership.weights.toarray().T @ dense_dependence(fix7_graph)
        assert np.abs(s - oracle).max() <= 1e-9

    def test_times_membership_gives_total_flow(self, fix7_graph, fix7_membership):
        op = build_operator(fix7_graph)
        s = source_dependence(op, fix7_membership)
        flow = flow_decomposition(op, fix7_membership)
        assert np.abs(s @ fix7_membership.weights.toarray() - flow.total).max() <= 1e-9


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
        oracle = dense_dependence(graph) @ membership.weights.toarray()
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
        q = membership.weights

        flows, total, r = _full_flows(op, q, limit)
        decomp = flow_decomposition(op, membership, max_order)
        assert decomp.order_count == len(flows) - 1
        assert decomp.identity_flow.tobytes() == flows[0].tobytes()
        for got, want in zip(decomp.order_flows, flows[1:]):
            assert got.tobytes() == want.tobytes()
        assert decomp.total.tobytes() == total.tobytes()
        assert decomp.r.tobytes() == r.tobytes()
        stack = dependence_stack(op, membership, max_order)
        assert stack.tobytes() == _full_stack(op, q, limit).tobytes()
        ones = sparse.csr_matrix(np.ones((graph.n, 1)))
        vector = dependence_vector(op, max_order)
        assert vector.tobytes() == _full_stack(op, ones, limit)[:, 0].tobytes()

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
