"""Oracle behaviour: exact enumeration, dense inversion, partition search."""

from __future__ import annotations

import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citeflow import (
    DisciplineNetwork,
    EdgeTable,
    NodeTable,
    PubTime,
    SynthSpec,
    build_graph,
    build_operator,
    dependence_vector,
    modularity,
    random_dag,
    refkit,
)
from conftest import FIX7_P_ROW1, as_scipy, id_index
from oracles import (
    OracleGuardError,
    batch_random_dag,
    dense_dependence,
    enumerate_dependence_row,
    enumerate_path_dependence,
    exhaustive_modularity,
    topological_order,
)


class TestEnumeratePathDependence:
    def test_fix7_one_to_six(self, fix7_graph):
        idx = id_index(fix7_graph)
        value = enumerate_path_dependence(fix7_graph, idx["1"], idx["6"])
        assert value == Fraction(5, 8)

    def test_diagonal_is_one(self, fix7_graph):
        for i in range(fix7_graph.n):
            assert enumerate_path_dependence(fix7_graph, i, i) == Fraction(1)

    def test_no_reverse_path(self, fix7_graph):
        idx = id_index(fix7_graph)
        assert enumerate_path_dependence(fix7_graph, idx["6"], idx["1"]) == Fraction(0)

    def test_guard_trips(self, fix7_graph):
        idx = id_index(fix7_graph)
        with pytest.raises(OracleGuardError, match="paths"):
            enumerate_path_dependence(fix7_graph, idx["1"], idx["6"], path_guard=2)

    def test_row_matches_per_pair(self, fix7_graph):
        row = enumerate_dependence_row(fix7_graph, 0)
        for j in range(fix7_graph.n):
            assert row.get(j, Fraction(0)) == enumerate_path_dependence(
                fix7_graph, 0, j
            )


class TestDenseDependence:
    def test_fix7_row_one(self, fix7_graph):
        p = dense_dependence(fix7_graph)
        assert p[0].tolist() == list(FIX7_P_ROW1)

    def test_edgeless_graph_is_identity(self):
        graph, _ = build_graph(
            NodeTable.from_pairs([("a", PubTime(2016, 1)), ("b", PubTime(2015, 1))]),
            [EdgeTable.from_pairs([])],
        )
        assert np.array_equal(dense_dependence(graph), np.eye(2))

    def test_chain_end_to_end(self):
        nodes = [(c, PubTime(2016, 12 - i)) for i, c in enumerate("abc")]
        graph, _ = build_graph(
            NodeTable.from_pairs(nodes),
            [EdgeTable.from_pairs([("a", "b"), ("b", "c")])],
        )
        p = dense_dependence(graph)
        idx = id_index(graph)
        assert p[idx["a"], idx["c"]] == 1.0

    def test_node_guard_trips(self, fix7_graph):
        with pytest.raises(OracleGuardError, match="guard"):
            dense_dependence(fix7_graph, max_nodes=5)

    def test_triangular_under_topological_permutation(self):
        graph, _ = random_dag(SynthSpec(n=80, target_m=200, k=2, seed=13))
        p = dense_dependence(graph)
        order = topological_order(graph)
        permuted = p[np.ix_(order, order)]
        assert np.all(np.diag(permuted) == 1.0)
        assert np.all(np.tril(permuted, k=-1) == 0.0)

    @pytest.mark.parametrize("seed", [2, 8])
    def test_row_sums_reproduce_dependence_vector(self, seed):
        graph, _ = random_dag(SynthSpec(n=120, target_m=360, k=2, seed=seed))
        p = dense_dependence(graph)
        r = dependence_vector(build_operator(graph))
        assert np.abs(p.sum(axis=1) - r).max() <= 1e-9


class TestExhaustiveModularity:
    def test_two_disjoint_triangles(self):
        edges = {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0,
                 (3, 4): 1.0, (3, 5): 1.0, (4, 5): 1.0}
        partition, q = exhaustive_modularity(DisciplineNetwork(6, edges))
        assert partition == [[0, 1, 2], [3, 4, 5]]
        assert q == pytest.approx(0.5, abs=1e-12)

    def test_single_edge_prefers_merged(self):
        net = DisciplineNetwork(2, {(0, 1): 1.0})
        partition, q = exhaustive_modularity(net)
        assert partition == [[0, 1]]
        assert q == pytest.approx(0.0, abs=1e-12)
        assert modularity(net, [[0], [1]]) < q

    def test_empty_network_is_singletons(self):
        partition, q = exhaustive_modularity(DisciplineNetwork(3, {}))
        assert partition == [[0], [1], [2]]
        assert q == 0.0

    def test_guard_trips(self):
        with pytest.raises(OracleGuardError, match="exhaustive"):
            exhaustive_modularity(DisciplineNetwork(11, {}), k_max=10)

    def test_scorer_agrees_with_search(self):
        rng = np.random.default_rng(6)
        edges = {}
        for u in range(6):
            for v in range(u + 1, 6):
                if rng.random() < 0.5:
                    edges[(u, v)] = float(rng.integers(1, 5))
        net = DisciplineNetwork(6, edges)
        partition, q = exhaustive_modularity(net)
        assert modularity(net, partition) == pytest.approx(q, abs=1e-12)


class TestRandomDag:
    def test_single_node(self):
        graph, membership = random_dag(SynthSpec(n=1, target_m=0, k=1, seed=0))
        assert graph.n == 1 and graph.m == 0
        assert as_scipy(membership).toarray().tolist() == [[1.0]]

    def test_same_seed_is_bit_identical(self):
        a_graph, a_mem = random_dag(SynthSpec(n=120, target_m=500, k=4, seed=42))
        b_graph, b_mem = random_dag(SynthSpec(n=120, target_m=500, k=4, seed=42))
        assert a_graph.node_ids == b_graph.node_ids
        assert a_graph.time_keys.tobytes() == b_graph.time_keys.tobytes()
        assert a_graph.indptr.tobytes() == b_graph.indptr.tobytes()
        assert a_graph.indices.tobytes() == b_graph.indices.tobytes()
        for name in ("indptr", "indices", "data"):
            assert getattr(a_mem, name).tobytes() == getattr(b_mem, name).tobytes()

    def test_different_seed_differs(self):
        a_graph, _ = random_dag(SynthSpec(n=120, target_m=500, k=4, seed=42))
        b_graph, _ = random_dag(SynthSpec(n=120, target_m=500, k=4, seed=43))
        assert a_graph.indices.tobytes() != b_graph.indices.tobytes()

    def test_reaches_edge_target(self):
        graph, _ = random_dag(SynthSpec(n=200, target_m=2000, k=8, seed=42))
        assert graph.m == 2000

    def test_infeasible_target_warns(self):
        # a single time bucket admits no strictly decreasing edge at all
        with pytest.warns(UserWarning, match="infeasible"):
            graph, _ = random_dag(
                SynthSpec(n=10, target_m=20, k=2, seed=1, month_span=1)
            )
        assert graph.m == 0

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(n=0, target_m=0, k=1, seed=0)
        with pytest.raises(ValueError):
            SynthSpec(n=3, target_m=10, k=1, seed=0)
        with pytest.raises(ValueError):
            SynthSpec(n=3, target_m=1, k=0, seed=0)

    def test_n_bounded_by_int64_edge_keys(self):
        # the largest edge key, n * n - 1, must fit in int64
        assert SynthSpec(n=3_037_000_499, target_m=0, k=1, seed=0).n == 3_037_000_499
        for n in (3_037_000_500, 10**20):
            with pytest.raises(ValueError, match="3037000499"):
                SynthSpec(n=n, target_m=0, k=1, seed=0)


@st.composite
def _synth_specs(draw) -> SynthSpec:
    n = draw(st.integers(1, 300))
    return SynthSpec(
        n=n,
        target_m=draw(st.integers(0, n * (n - 1) // 2)),
        k=draw(st.integers(1, 5)),
        seed=draw(st.integers(0, 2**64 - 1)),
        month_span=draw(st.integers(1, 30)),
    )


def _membership_csr(n, rows, cols, data):
    """CSR arrays of a draw of one or two entries per row, laid out as
    ``random_dag`` once did it itself: entries sorted by (row, column),
    each scaled by the reciprocal of its row sum."""
    row_sums = np.bincount(rows, weights=data)
    entry = np.lexsort((cols, rows))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows), out=indptr[1:])
    return indptr, cols[entry], (1.0 / row_sums)[rows[entry]] * data[entry]


class TestRandomDagOracle:
    """``random_dag`` assembles its graph and its membership from index
    arrays. The graph oracle spells the generated pairs as id strings and
    builds the graph from them with ``build_graph``, and the membership
    oracle lays out the drawn entries, as the generator itself once did.
    The batch oracle draws alike but looks up every proposal of a batch."""

    @given(_synth_specs())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_graph_matches_build_graph(self, spec):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with (
                mock.patch.object(refkit, "graph_from_indices",
                                  wraps=refkit.graph_from_indices) as spy,
                mock.patch.object(refkit, "membership_from_indices",
                                  wraps=refkit.membership_from_indices) as mspy,
            ):
                graph, membership = random_dag(spec)
        mspy.assert_called_once()
        n, labels, rows, cols, data = mspy.call_args.args
        assert (n, labels, membership.k) == (spec.n, membership.labels, spec.k)
        indptr, indices, values = _membership_csr(n, rows, cols, data)
        assert membership.indptr.tobytes() == indptr.tobytes()
        assert membership.indices.tobytes() == indices.tobytes()
        assert membership.data.tobytes() == values.tobytes()
        spy.assert_called_once()
        ids, time_keys, citing, cited = spy.call_args.args
        spell = ids.__getitem__
        oracle, report = build_graph(
            NodeTable(ids, time_keys),
            [EdgeTable.from_pairs(zip(map(spell, citing), map(spell, cited)))],
        )
        assert graph.indptr.tobytes() == oracle.indptr.tobytes()
        assert graph.indices.tobytes() == oracle.indices.tobytes()
        assert graph.time_keys.tobytes() == oracle.time_keys.tobytes()
        assert graph.node_ids == oracle.node_ids
        assert graph.m == oracle.m == len(citing)
        assert report.synchronous_edges_discarded == 0
        assert report.duplicate_edges_discarded == 0
        if not caught:
            assert graph.m == spec.target_m

    @given(_synth_specs())
    @example(SynthSpec(n=3000, target_m=1200, k=3, seed=1))  # round 1 keeps a prefix
    @example(SynthSpec(n=60, target_m=1700, k=3, seed=1, month_span=60))  # prefix doubles
    @example(SynthSpec(n=10, target_m=20, k=2, seed=1, month_span=1))  # budget runs out
    @example(SynthSpec(n=12500, target_m=250000, k=30, seed=1, month_span=120))  # deep
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_the_batch_generator(self, spec):
        """Looking up only a prefix of each batch keeps the pairs that
        looking up the whole batch keeps, and leaves the generator where the
        membership draws find it."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            graph, membership = random_dag(spec)
            oracle, oracle_membership = batch_random_dag(spec)
        messages = [str(w.message) for w in caught]
        assert messages in ([], messages[:1] * 2)
        assert graph.node_ids == oracle.node_ids
        for name in ("indptr", "indices", "time_keys"):
            assert getattr(graph, name).tobytes() == getattr(oracle, name).tobytes()
        for name in ("indptr", "indices", "data"):
            assert (getattr(membership, name).tobytes()
                    == getattr(oracle_membership, name).tobytes())
