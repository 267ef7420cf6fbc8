"""Flow analytics: norms, chi-squared normalization, networks, Rao scores."""

from __future__ import annotations

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citeflow import (
    ENTRYWISE_L1,
    FROBENIUS,
    DisciplineNetwork,
    EdgeTable,
    NodeTable,
    PubTime,
    betweenness_centrality,
    build_graph,
    build_operator,
    cosine_similarity,
    detect_communities,
    discipline_summary,
    exhaustive_modularity,
    expected_flow,
    flow_decomposition,
    incoming_shares,
    matrix_norm,
    modularity,
    normalized_flow,
    order_contributions,
    rao_entropy,
    threshold_network,
)
from citeflow.analytics import _nearest_rank, _row_fsums
from conftest import FIX7_F, FIX7_M1, FIX7_SHARES, dense_membership


@pytest.fixture
def fix7_decomp(fix7_graph, fix7_membership):
    return flow_decomposition(build_operator(fix7_graph), fix7_membership)


def _sparse_flow(seed, k=9):
    """A k x k flow with about half its entries zero and one zero column."""
    rng = np.random.default_rng(seed)
    f = rng.random((k, k)) * (rng.random((k, k)) < 0.5) * 10.0
    f[:, 0] = 0.0
    return f


def _clique(nodes, offset=0, weight=1.0):
    return {
        (offset + u, offset + v): weight
        for u in range(nodes)
        for v in range(u + 1, nodes)
    }


class TestMatrixNorm:
    def test_fix7_first_order_l1(self):
        assert matrix_norm(FIX7_M1, ENTRYWISE_L1) == 5.0

    def test_zero_matrix(self):
        zero = np.zeros((3, 3))
        assert matrix_norm(zero, ENTRYWISE_L1) == 0.0
        assert matrix_norm(zero, FROBENIUS) == 0.0

    def test_three_four_five(self):
        assert matrix_norm([[3.0, 4.0], [0.0, 0.0]], FROBENIUS) == 5.0

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="norm kind"):
            matrix_norm(FIX7_M1, "spectral")

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_fsum_of_each_entry(self, seed):
        m = _sparse_flow(seed)
        assert matrix_norm(m, ENTRYWISE_L1) == math.fsum(abs(x) for x in m.ravel())
        frobenius = math.sqrt(math.fsum(x * x for x in m.ravel()))
        assert matrix_norm(m, FROBENIUS) == frobenius


class TestOrderContributions:
    def test_fix7_l1_shares(self, fix7_decomp):
        contrib = order_contributions(fix7_decomp, ENTRYWISE_L1)
        assert contrib.norms == (5.0, 3.0, 1.0)
        assert contrib.shares == pytest.approx(FIX7_SHARES, abs=1e-12)
        assert contrib.orders == (1, 2, 3)

    def test_chain_shares(self):
        nodes = [(c, PubTime(2016, 12 - i)) for i, c in enumerate("abc")]
        graph, _ = build_graph(
            NodeTable.from_pairs(nodes),
            [EdgeTable.from_pairs([("a", "b"), ("b", "c")])],
        )
        q = dense_membership(np.ones((3, 1)))
        decomp = flow_decomposition(build_operator(graph), q)
        contrib = order_contributions(decomp, ENTRYWISE_L1)
        assert contrib.shares == pytest.approx((2 / 3, 1 / 3), abs=1e-12)

    def test_edgeless_graph_is_empty(self):
        graph, _ = build_graph(
            NodeTable.from_pairs([("a", PubTime(2016, 1))]), [EdgeTable.from_pairs([])]
        )
        q = dense_membership(np.ones((1, 1)))
        decomp = flow_decomposition(build_operator(graph), q)
        contrib = order_contributions(decomp, ENTRYWISE_L1)
        assert contrib.norms == ()
        assert contrib.shares == ()

    def test_shares_sum_to_one(self, fix7_decomp):
        for kind in (ENTRYWISE_L1, FROBENIUS):
            shares = order_contributions(fix7_decomp, kind).shares
            assert abs(math.fsum(shares) - 1.0) <= 1e-9


class TestExpectedFlow:
    def test_diagonal_flow(self):
        e = expected_flow([[4.0, 0.0], [0.0, 4.0]])
        assert e.tolist() == [[2.0, 2.0], [2.0, 2.0]]

    def test_uniform_flow_is_fixed_point(self):
        f = np.full((4, 4), 0.37)
        assert np.abs(expected_flow(f) - f).max() <= 1e-12

    def test_fix7_entry(self):
        e = expected_flow(FIX7_F)
        assert e[0, 0] == pytest.approx(9 * 4.25 / 16, abs=1e-12)

    def test_zero_total_is_fatal(self):
        with pytest.raises(ValueError, match="zero total"):
            expected_flow(np.zeros((2, 2)))

    def test_margins_match(self):
        rng = np.random.default_rng(5)
        f = rng.random((6, 6))
        e = expected_flow(f)
        assert np.abs(e.sum(axis=1) - f.sum(axis=1)).max() <= 1e-9 * f.sum()
        assert np.abs(e.sum(axis=0) - f.sum(axis=0)).max() <= 1e-9 * f.sum()


class TestNormalizedFlow:
    def test_uniform_flow_residuals_vanish(self):
        f = np.full((3, 3), 2.0)
        assert np.abs(normalized_flow(f).normalized).max() <= 1e-12

    def test_diagonal_flow(self):
        norm = normalized_flow([[4.0, 0.0], [0.0, 4.0]])
        root2 = math.sqrt(2.0)
        expected = np.array([[root2, -root2], [-root2, root2]])
        assert np.abs(norm.normalized - expected).max() <= 1e-12

    def test_fix7_entry(self):
        norm = normalized_flow(FIX7_F)
        expected = (4.25 - 2.390625) / math.sqrt(2.390625)
        assert norm.normalized[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_zero_expectation_maps_to_zero(self):
        # an all-zero row/column forces zero expected cells
        f = np.array([[1.0, 2.0, 0.0], [3.0, 4.0, 0.0], [0.0, 0.0, 0.0]])
        norm = normalized_flow(f)
        assert np.all(norm.normalized[2, :] == 0.0)
        assert np.all(norm.normalized[:, 2] == 0.0)

    def test_weighted_residuals_sum_to_zero(self):
        rng = np.random.default_rng(11)
        f = rng.random((7, 7)) * 10
        norm = normalized_flow(f)
        residual = math.fsum(
            (norm.normalized * np.sqrt(norm.expected)).ravel()
        )
        assert abs(residual) <= 1e-9 * f.sum()


class TestThresholdNetwork:
    def test_all_zero_keeps_ties_on_both_sides(self):
        positive, negative = threshold_network(np.zeros((3, 3)), 90, 10)
        assert set(positive.edges) == {(0, 1), (0, 2), (1, 2)}
        assert set(negative.edges) == {(0, 1), (0, 2), (1, 2)}
        assert all(w == 0.0 for w in positive.edges.values())

    def test_single_strong_pair(self):
        fhat = np.zeros((3, 3))
        fhat[0, 1] = fhat[1, 0] = 5.0
        fhat[0, 2] = fhat[2, 0] = -1.0
        fhat[1, 2] = fhat[2, 1] = -2.0
        positive, _ = threshold_network(fhat, 90, 10)
        assert set(positive.edges) == {(0, 1)}
        assert positive.edges[(0, 1)] == 10.0

    def test_lowest_rank_keeps_everything(self):
        # with 10 pairs, hi_pct 1 is rank 1, the minimum, as is lo_pct 0
        rng = np.random.default_rng(2)
        fhat = rng.standard_normal((5, 5))
        positive, negative = threshold_network(fhat, 1, 0)
        assert len(positive.edges) == 10
        assert len(negative.edges) == 1

    def test_single_discipline_yields_empty_networks(self):
        positive, negative = threshold_network(np.array([[1.0]]), 90, 10)
        assert positive.edges == {} and negative.edges == {}

    def test_negative_weights_are_floored(self):
        fhat = np.array([[0.0, -3.0], [-3.0, 0.0]])
        positive, negative = threshold_network(fhat, 90, 10)
        assert all(w >= 0.0 for w in positive.edges.values())
        assert negative.edges[(0, 1)] == 6.0

    def test_requires_hi_above_lo(self):
        with pytest.raises(ValueError, match="need 0 <= lo_pct < hi_pct <= 100, got 90/10"):
            threshold_network(np.zeros((3, 3)), 10, 90)

    @pytest.mark.parametrize("hi, lo", [(101, 10), (90, -1), (100.5, 0), (50, 50)])
    def test_percentiles_out_of_range_raise(self, hi, lo):
        with pytest.raises(ValueError, match="need 0 <= lo_pct < hi_pct <= 100"):
            threshold_network(np.zeros((3, 3)), hi, lo)


class TestDetectCommunities:
    def test_two_disjoint_cliques(self):
        edges = {**_clique(4), **_clique(4, offset=4)}
        net = DisciplineNetwork(8, edges)
        assert detect_communities(net) == [[0, 1, 2, 3], [4, 5, 6, 7]]
        oracle_partition, oracle_q = exhaustive_modularity(net)
        assert detect_communities(net) == oracle_partition
        assert modularity(net, detect_communities(net)) == pytest.approx(
            oracle_q, abs=1e-12
        )

    def test_bridged_cliques_stay_separate(self):
        edges = {**_clique(4), **_clique(4, offset=4), (3, 4): 1.0}
        net = DisciplineNetwork(8, edges)
        partition = detect_communities(net)
        assert partition == [[0, 1, 2, 3], [4, 5, 6, 7]]
        oracle_partition, _ = exhaustive_modularity(net)
        assert partition == oracle_partition

    def test_empty_network_gives_singletons(self):
        net = DisciplineNetwork(3, {})
        assert detect_communities(net) == [[0], [1], [2]]

    def test_isolated_discipline_stays_singleton(self):
        net = DisciplineNetwork(5, _clique(4))
        partition = detect_communities(net)
        assert [4] in partition

    @pytest.mark.parametrize(
        ("k", "edges", "partition"),
        [
            (5, {(i, i + 1): 1.0 for i in range(4)}, [[0, 1, 2], [3, 4]]),
            (
                9,
                {**_clique(4), **_clique(4, offset=4), (3, 8): 1.0, (4, 8): 1.0},
                [[0, 1, 2, 3, 8], [4, 5, 6, 7]],
            ),
        ],
        ids=["path", "cliques-with-shared-neighbour"],
    )
    def test_ties_go_to_the_smallest_pair(self, k, edges, partition):
        assert detect_communities(DisciplineNetwork(k, edges)) == partition

    @pytest.mark.parametrize("seed", range(10))
    def test_greedy_never_beats_exhaustive(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(3, 8))
        edges = {}
        for u in range(k):
            for v in range(u + 1, k):
                if rng.random() < 0.6:
                    edges[(u, v)] = float(rng.integers(1, 10))
        net = DisciplineNetwork(k, edges)
        greedy_q = modularity(net, detect_communities(net))
        _, oracle_q = exhaustive_modularity(net)
        assert greedy_q <= oracle_q + 1e-12


class TestBetweenness:
    def test_path_midpoint(self):
        net = DisciplineNetwork(3, {(0, 1): 1.0, (1, 2): 1.0})
        assert betweenness_centrality(net).tolist() == [0.0, 1.0, 0.0]

    def test_star_center(self):
        net = DisciplineNetwork(5, {(0, i): 1.0 for i in range(1, 5)})
        scores = betweenness_centrality(net)
        assert scores[0] == 6.0  # all C(4, 2) leaf pairs route through the hub
        assert np.all(scores[1:] == 0.0)

    def test_complete_graph_is_flat(self):
        net = DisciplineNetwork(4, _clique(4))
        assert np.all(betweenness_centrality(net) == 0.0)


class TestIncomingShares:
    def test_fix7_columns(self):
        shares, zero = incoming_shares(FIX7_F)
        assert shares[:, 0].tolist() == [1.0, 0.0, 0.0]
        assert shares[:, 2] == pytest.approx([3 / 7, 2 / 7, 2 / 7], abs=1e-12)
        assert not zero.any()

    def test_identity_flow(self):
        shares, _ = incoming_shares(np.eye(3))
        assert np.array_equal(shares, np.eye(3))

    def test_zero_column_is_flagged(self):
        f = np.array([[1.0, 0.0], [1.0, 0.0]])
        shares, zero = incoming_shares(f)
        assert zero.tolist() == [False, True]
        assert np.all(shares[:, 1] == 0.0)


class TestCosineSimilarity:
    def test_unit_diagonal(self):
        s = cosine_similarity(FIX7_F)
        assert np.all(np.diag(s) == 1.0)

    def test_orthogonal_columns(self):
        s = cosine_similarity(np.eye(2))
        assert s[0, 1] == 0.0

    def test_fix7_value(self):
        s = cosine_similarity(FIX7_F)
        assert s[0, 1] == pytest.approx(1.75 / math.hypot(1.75, 3.0), abs=1e-12)

    def test_symmetric_in_unit_interval(self):
        rng = np.random.default_rng(8)
        f = rng.random((6, 6))
        s = cosine_similarity(f)
        assert np.array_equal(s, s.T)
        assert s.min() >= 0.0 and s.max() <= 1.0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_equals_fsum_over_numpy_scalars(self, seed):
        f = _sparse_flow(seed, k=12)
        assert cosine_similarity(f).tobytes() == _cosine_by_scalars(f).tobytes()


def _cosine_by_scalars(f):
    """Cosine similarity with fsum fed one numpy scalar at a time."""
    k = f.shape[0]
    norms = [math.sqrt(math.fsum(x * x for x in f[:, v])) for v in range(k)]
    s = np.zeros((k, k), dtype=np.float64)
    for u in range(k):
        for v in range(u + 1, k):
            if norms[u] > 0.0 and norms[v] > 0.0:
                dot = math.fsum(f[:, u] * f[:, v])
                s[u, v] = s[v, u] = min(dot / (norms[u] * norms[v]), 1.0)
    np.fill_diagonal(s, 1.0)
    return s


class TestRaoEntropy:
    def test_identity_flow_scores_zero(self):
        scores = rao_entropy(np.eye(4)).scores
        assert np.all(np.abs(scores) <= 1e-12)

    def test_identical_columns_score_zero(self):
        f = np.tile(np.array([[1.0], [2.0], [3.0]]), (1, 3))
        scores = rao_entropy(f).scores
        assert np.all(np.abs(scores) <= 1e-12)

    def test_fix7_scores(self):
        rao = rao_entropy(FIX7_F)
        assert rao.scores[0] == 0.0  # X receives only from itself
        assert rao.scores[2] > 0.0
        # independent direct evaluation for the Z column
        f = np.asarray(FIX7_F)
        p = f[:, 2] / f[:, 2].sum()
        s = cosine_similarity(f)
        direct = sum(
            p[u] * p[w] * (1.0 - s[u, w]) for u in range(3) for w in range(3)
        )
        assert rao.scores[2] == pytest.approx(direct, abs=1e-12)

    def test_scores_in_unit_interval(self):
        rng = np.random.default_rng(3)
        f = rng.random((7, 7)) * 5
        scores = rao_entropy(f).scores
        assert scores.min() >= 0.0 and scores.max() <= 1.0

    def test_zero_column_flagged_and_zero(self):
        f = np.array([[1.0, 0.0], [1.0, 0.0]])
        rao = rao_entropy(f)
        assert rao.zero_columns.tolist() == [False, True]
        assert rao.scores[1] == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_fsum_over_the_support(self, seed):
        f = _sparse_flow(seed)
        rao = rao_entropy(f)
        distance = 1.0 - cosine_similarity(f)
        for v in range(f.shape[0]):
            p = rao.shares[:, v]
            terms = (
                p[u] * p[w] * distance[u, w]
                for u in range(f.shape[0])
                for w in range(f.shape[0])
                if p[u] != 0.0 and p[w] != 0.0
            )
            assert rao.scores[v] == min(math.fsum(terms), 1.0)


class TestDisciplineSummary:
    def test_fix7_rows(self, fix7_membership):
        rows = discipline_summary(FIX7_F, fix7_membership.sizes())
        x, y, z = rows
        assert (x.size, x.self_flow, x.incoming_flow, x.outgoing_flow) == (
            3.0, 4.25, 0.0, 4.75,
        )
        assert (z.size, z.self_flow, z.incoming_flow, z.outgoing_flow) == (
            2.0, 2.0, 5.0, 0.0,
        )

    def test_single_discipline(self):
        rows = discipline_summary([[7.0]], [4.0])
        assert rows[0].incoming_flow == 0.0
        assert rows[0].outgoing_flow == 0.0


class TestScaleAndPermutationProperties:
    @given(scale=st.sampled_from([2.0, 3.0, 0.5, 10.0]))
    @settings(max_examples=8, deadline=None, derandomize=True)
    def test_scale_covariance(self, scale):
        rng = np.random.default_rng(14)
        f = rng.random((5, 5)) * 4
        base_shares, _ = incoming_shares(f)
        scaled_shares, _ = incoming_shares(scale * f)
        assert np.abs(base_shares - scaled_shares).max() <= 1e-12
        assert np.abs(
            cosine_similarity(f) - cosine_similarity(scale * f)
        ).max() <= 1e-12
        assert np.abs(
            rao_entropy(f).scores - rao_entropy(scale * f).scores
        ).max() <= 1e-12
        base_hat = normalized_flow(f).normalized
        scaled_hat = normalized_flow(scale * f).normalized
        assert np.abs(scaled_hat - math.sqrt(scale) * base_hat).max() <= 1e-9

    def test_permutation_equivariance_is_exact(self):
        rng = np.random.default_rng(33)
        f = rng.random((6, 6)) * 3
        perm = np.array([4, 2, 0, 5, 1, 3])
        fp = f[np.ix_(perm, perm)]
        shares, _ = incoming_shares(f)
        shares_p, _ = incoming_shares(fp)
        assert np.array_equal(shares_p, shares[np.ix_(perm, perm)])
        assert np.array_equal(
            cosine_similarity(fp), cosine_similarity(f)[np.ix_(perm, perm)]
        )
        assert np.array_equal(rao_entropy(fp).scores, rao_entropy(f).scores[perm])
        assert np.array_equal(
            normalized_flow(fp).normalized,
            normalized_flow(f).normalized[np.ix_(perm, perm)],
        )

    def test_partition_and_betweenness_equivariance(self):
        rng = np.random.default_rng(77)
        k = 7
        fhat = rng.standard_normal((k, k)) * 2
        perm = np.array([3, 6, 1, 0, 5, 2, 4])
        positive, _ = threshold_network(fhat, 60, 10)
        positive_p, _ = threshold_network(fhat[np.ix_(perm, perm)], 60, 10)
        relabel = {int(old): int(np.where(perm == old)[0][0]) for old in range(k)}
        mapped = sorted(
            sorted(relabel[v] for v in group)
            for group in detect_communities(positive)
        )
        assert mapped == sorted(detect_communities(positive_p))
        base_b = betweenness_centrality(positive)
        perm_b = betweenness_centrality(positive_p)
        assert np.array_equal(perm_b, base_b[perm])


# The per-element loops that ``incoming_shares`` and ``discipline_summary``
# ran before, kept as the oracle: the rewrites must agree bit for bit.
def _loop_incoming_shares(flow):
    f = np.asarray(flow, dtype=np.float64)
    k = f.shape[0]
    col_sums = np.array([math.fsum(col) for col in f.T])
    zero = col_sums == 0.0
    shares = np.zeros_like(f)
    for v in range(k):
        if not zero[v]:
            shares[:, v] = f[:, v] / col_sums[v]
    return shares, zero


def _loop_in_out(flow):
    f = np.asarray(flow, dtype=np.float64)
    k = f.shape[0]
    return [
        (math.fsum(f[u, v] for u in range(k) if u != v),
         math.fsum(f[v, u] for u in range(k) if u != v))
        for v in range(k)
    ]


class TestLoopOracles:
    @given(k=st.integers(1, 6), data=st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_match_the_loops(self, k, data):
        cell = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300]) | st.floats(
            0.0, 1e6
        )
        f = np.array(data.draw(st.lists(cell, min_size=k * k, max_size=k * k)))
        f = f.reshape(k, k)
        shares, zero = incoming_shares(f)
        loop_shares, loop_zero = _loop_incoming_shares(f)
        assert shares.tobytes() == loop_shares.tobytes()
        assert zero.tolist() == loop_zero.tolist()
        rows = discipline_summary(f, [1.0] * k)
        in_out = [(r.incoming_flow, r.outgoing_flow) for r in rows]
        assert np.array(in_out).tobytes() == np.array(_loop_in_out(f)).tobytes()


# The dict-based ``threshold_network`` and ``detect_communities`` and the
# numpy-array ``betweenness_centrality`` (less its dropped weighted mode)
# as they were before the k x k rewrite, kept as the oracle: the rewrites
# must agree bit for bit.
def _oracle_threshold_network(
    fhat, hi_pct=90, lo_pct=10
) -> tuple[DisciplineNetwork, DisciplineNetwork]:
    if not hi_pct > lo_pct:
        raise ValueError(f"hi_pct ({hi_pct}) must exceed lo_pct ({lo_pct})")
    f = np.asarray(fhat, dtype=np.float64)
    k = f.shape[0]
    if k < 2:
        return DisciplineNetwork(k, {}), DisciplineNetwork(k, {})
    pair_values: dict[tuple[int, int], float] = {}
    for u in range(k):
        for v in range(u + 1, k):
            pair_values[(u, v)] = float(f[u, v] + f[v, u])
    values = list(pair_values.values())
    hi_cut = _nearest_rank(values, hi_pct)
    lo_cut = _nearest_rank(values, lo_pct)
    positive = {p: max(w, 0.0) for p, w in pair_values.items() if w >= hi_cut}
    negative = {p: max(-w, 0.0) for p, w in pair_values.items() if w <= lo_cut}
    return DisciplineNetwork(k, positive), DisciplineNetwork(k, negative)


def _oracle_detect_communities(net: DisciplineNetwork) -> list[list[int]]:
    k = net.size
    total = math.fsum(net.edges.values())
    if total <= 0.0:
        return [[i] for i in range(k)]
    members: dict[int, list[int]] = {i: [i] for i in range(k)}
    degree = [0.0] * k
    for (u, v), w in sorted(net.edges.items()):
        degree[u] += w
        degree[v] += w
    comm_degree: dict[int, float] = {i: degree[i] for i in range(k)}
    between: dict[tuple[int, int], float] = {}
    for (u, v), w in sorted(net.edges.items()):
        between[(u, v)] = between.get((u, v), 0.0) + w
    while True:
        best = None  # (gain, (a, b))
        for (a, b), w in sorted(between.items()):
            gain = w / total - (comm_degree[a] * comm_degree[b]) / (2.0 * total * total)
            if gain > 0.0 and (
                best is None or gain > best[0] or (gain == best[0] and (a, b) < best[1])
            ):
                best = (gain, (a, b))
        if best is None:
            break
        a, b = best[1]
        members[a].extend(members.pop(b))
        comm_degree[a] += comm_degree.pop(b)
        rewired: dict[tuple[int, int], float] = {}
        for (x, y), w in between.items():
            x2 = a if x == b else x
            y2 = a if y == b else y
            if x2 == y2:
                continue
            p = (x2, y2) if x2 < y2 else (y2, x2)
            rewired[p] = rewired.get(p, 0.0) + w
        between = rewired
    return [sorted(c) for c in sorted(members.values(), key=min)]


def _oracle_betweenness_centrality(net: DisciplineNetwork) -> np.ndarray:
    k = net.size
    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(k)]
    for (u, v), w in sorted(net.edges.items()):
        adjacency[u].append((v, w))
        adjacency[v].append((u, w))
    scores = np.zeros(k, dtype=np.float64)
    for s in range(k):
        sigma = np.zeros(k, dtype=np.float64)
        sigma[s] = 1.0
        dist = np.full(k, np.inf)
        dist[s] = 0.0
        preds: list[list[int]] = [[] for _ in range(k)]
        order: list[int] = []
        queue = deque([s])
        while queue:
            u = queue.popleft()
            order.append(u)
            for v, _ in adjacency[u]:
                if dist[v] == np.inf:
                    dist[v] = dist[u] + 1
                    queue.append(v)
                if dist[v] == dist[u] + 1:
                    sigma[v] += sigma[u]
                    preds[v].append(u)
        delta = np.zeros(k, dtype=np.float64)
        for u in reversed(order):
            for p in preds[u]:
                delta[p] += sigma[p] / sigma[u] * (1.0 + delta[u])
            if u != s:
                scores[u] += delta[u]
    return scores / 2.0


# Integer weights force tied gains; zero weights are common in practice
# (most positive edges of ``wide`` weigh 0).
_WEIGHT = st.sampled_from([0.0, 1.0, 2.0]) | st.floats(1e-3, 1e3)


@st.composite
def _networks(draw):
    k = draw(st.integers(0, 30))
    pairs = [(u, v) for u in range(k) for v in range(u + 1, k)]
    # all-unit weights tie many gains at once
    weight = draw(st.sampled_from([_WEIGHT, st.just(1.0)]))
    weights = draw(
        st.lists(st.none() | weight, min_size=len(pairs), max_size=len(pairs))
    )
    edges = {p: w for p, w in zip(pairs, weights) if w is not None}
    return DisciplineNetwork(k, edges)


def _assert_network_matches_oracle(net):
    assert detect_communities(net) == _oracle_detect_communities(net)
    scores = betweenness_centrality(net)
    assert scores.tobytes() == _oracle_betweenness_centrality(net).tobytes()
    # every edge has length one, so the weights do not matter
    unit = DisciplineNetwork(net.size, dict.fromkeys(net.edges, 1.0))
    assert scores.tobytes() == betweenness_centrality(unit).tobytes()


def _items(net):
    # repr keeps the order, the float bits (-0.0 too) and the key types
    return repr(list(net.edges.items()))


class TestNetworkOracles:
    @given(net=_networks())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_communities_and_betweenness_match(self, net):
        _assert_network_matches_oracle(net)

    @given(
        k=st.integers(0, 12),
        pcts=st.tuples(
            *[st.sampled_from([-1, 0, 10, 50, 90, 100, 101]) | st.integers(-1, 101)] * 2
        ),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_thresholds_match(self, k, pcts, data):
        cell = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0]) | st.floats(-1e3, 1e3)
        fhat = np.array(data.draw(st.lists(cell, min_size=k * k, max_size=k * k)))
        fhat = fhat.reshape(k, k)
        hi, lo = pcts
        if not 0 <= lo < hi <= 100:
            with pytest.raises(ValueError, match="need 0 <= lo_pct < hi_pct <= 100"):
                threshold_network(fhat, hi, lo)
            return
        for net, oracle in zip(
            threshold_network(fhat, hi, lo), _oracle_threshold_network(fhat, hi, lo)
        ):
            assert net.size == oracle.size
            assert _items(net) == _items(oracle)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_paper_scale(self, seed):
        # about 250 Web of Science subject categories
        flow = np.random.default_rng(seed).random((250, 250)) * 100.0
        fhat = normalized_flow(flow).normalized
        networks = threshold_network(fhat)
        for net, oracle in zip(networks, _oracle_threshold_network(fhat)):
            assert _items(net) == _items(oracle)
        _assert_network_matches_oracle(networks[0])


def _fsum_outcome(rows):
    """What per-row ``math.fsum`` gives: the sums, or the first error."""
    try:
        return np.array([math.fsum(row) for row in rows]).tobytes()
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def _outcome(fn, *args):
    """``fn(*args)``, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


_SPECIAL = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0, 2.0**-53,
    2.0**-52, 2.0**53, 1e16, -1e16, 1.7976931348623157e308, -1.7976931348623157e308,
    1e308, math.inf, -math.inf, math.nan,
])
# Any exponent, from subnormal to near overflow, with a full mantissa.
_SCALED = st.builds(
    math.ldexp, st.integers(-(2**53) + 1, 2**53 - 1), st.integers(-1126, 971)
)
_TERM = _SPECIAL | _SCALED | st.floats()


@st.composite
def _term_rows(draw):
    """One to five rows of one length, 0 to 40, of terms of any kind."""
    width = draw(st.integers(0, 40))
    row = st.lists(_TERM, min_size=width, max_size=width)
    return draw(st.lists(row, min_size=1, max_size=5))


class TestRowFsums:
    """``_row_fsums`` gives each row's ``math.fsum`` bit for bit, and raises
    what it raises."""

    @given(rows=_term_rows())
    @example(rows=[[1.0, 2.0**-53]])  # an exact tie, to even
    @example(rows=[[1e308, 1e308]])  # overflows
    @example(rows=[[1e308, 1e308, -1e308]])  # overflows on the way
    @example(rows=[[math.inf, -math.inf]])
    @example(rows=[[-0.0], [-0.0]])
    @example(rows=[[-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0]])
    @example(rows=[[5e-324, 5e-324, -2.2250738585072014e-308]])
    @example(rows=[[  # found with the bound set to zero
        1.0331934196074032e-32, -3.886754434473591e-35, 4.5797622701004625e-35,
        -8.203550393695969e-33, 8.985000421453883e-35, 5.4897886757410114e-34,
        1.1102230246251565e-16, 1.0,
    ]])
    @settings(max_examples=600, deadline=None, derandomize=True)
    def test_matches_fsum(self, rows):
        terms = np.array(rows, dtype=np.float64).reshape(len(rows), -1)
        got = _outcome(lambda: _row_fsums(terms).tobytes())
        assert got == _fsum_outcome(rows)

    @pytest.mark.parametrize("seed", range(3))
    def test_near_ties(self, seed):
        """Rows whose exact sum lies within a few units of 2**-105 of a
        rounding tie, in pieces whose errors the compensation rounds away:
        only the error bound keeps the kernel from accepting them."""
        rng = np.random.default_rng(seed)
        rows = 20_000
        mantissas = rng.integers(2**52, 2**53, (rows, 6)).astype(np.float64)
        pieces = np.ldexp(mantissas, -159 + rng.integers(-8, 3, (rows, 6)))
        pieces *= rng.choice([-1.0, 1.0], (rows, 6)) * (rng.random((rows, 6)) < 0.7)
        tie = 2.0**-53 + rng.choice([-1.0, 0.0, 1.0], rows) * 2.0**-105
        terms = np.column_stack([np.ones(rows), tie, pieces])
        order = rng.permuted(np.tile(np.arange(8), (rows, 1)), axis=1)
        terms = np.take_along_axis(terms, order, axis=1)
        terms = np.ldexp(terms, rng.integers(-900, 900, (rows, 1)))
        assert _row_fsums(terms).tobytes() == _fsum_outcome(terms.tolist())

    @pytest.mark.parametrize("seed", range(30))
    def test_long_signed_rows(self, seed):
        # signed terms with exponents within about +-300
        rng = np.random.default_rng(seed)
        rows, width = int(rng.integers(1, 12)), int(rng.integers(100, 3000))
        terms = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(
            -300, 300, (rows, width)
        )
        if seed % 3 == 0:  # heavy cancellation
            terms[:, 1::2] = -terms[:, ::2][:, : width // 2] * (1 + 2.0**-40)
        assert _row_fsums(terms).tobytes() == _fsum_outcome(terms.tolist())

    def test_shapes(self):
        assert _row_fsums(np.zeros((3, 0))).tobytes() == np.zeros(3).tobytes()
        assert _row_fsums(np.zeros((0, 5))).shape == (0,)
        assert _row_fsums(np.full((2, 1), -0.0)).tobytes() == np.zeros(2).tobytes()
        transposed = np.arange(12.0).reshape(3, 4).T
        assert _row_fsums(transposed).tolist() == [12.0, 15.0, 18.0, 21.0]


# ``rao_entropy``, ``cosine_similarity``, ``matrix_norm``, ``expected_flow``
# and ``discipline_summary`` as they summed with ``math.fsum`` over
# ``.tolist()``, kept as the oracle: the array forms must agree bit for bit.
# (``_oracle_betweenness_centrality`` above is the betweenness oracle.)
def _fsum_matrix_norm(matrix, kind=ENTRYWISE_L1):
    m = np.asarray(matrix, dtype=np.float64)
    if kind == ENTRYWISE_L1:
        return math.fsum(np.abs(m).ravel().tolist())
    if kind == FROBENIUS:
        return math.sqrt(math.fsum((m * m).ravel().tolist()))
    raise ValueError(f"unknown norm kind {kind!r}")


def _fsum_expected_flow(flow):
    f = np.asarray(flow, dtype=np.float64)
    if np.any(f < 0):
        raise ValueError("flow matrix must be nonnegative")
    row_sums = np.array([math.fsum(row) for row in f])
    col_sums = np.array([math.fsum(col) for col in f.T])
    total = math.fsum(row_sums)
    if total <= 0.0:
        raise ValueError("flow matrix has zero total; expected flow is undefined")
    return np.outer(row_sums, col_sums) / total


def _fsum_cosine_similarity(flow):
    f = np.asarray(flow, dtype=np.float64)
    k = f.shape[0]
    norms = [math.sqrt(math.fsum(squares)) for squares in (f * f).T.tolist()]
    s = np.zeros((k, k), dtype=np.float64)
    for u in range(k):
        if not norms[u] > 0.0:
            continue
        products = (f[:, u + 1 :] * f[:, u : u + 1]).T.tolist()
        for v, terms in enumerate(products, start=u + 1):
            if norms[v] > 0.0:
                dot = math.fsum(terms)
                s[u, v] = s[v, u] = min(dot / (norms[u] * norms[v]), 1.0)
    np.fill_diagonal(s, 1.0)
    return s


def _fsum_rao_scores(flow):
    f = np.asarray(flow, dtype=np.float64)
    k = f.shape[0]
    shares, zero = incoming_shares(f)
    distance = 1.0 - _fsum_cosine_similarity(f)
    scores = np.zeros(k, dtype=np.float64)
    for v in range(k):
        if zero[v]:
            continue
        support = np.flatnonzero(shares[:, v] != 0.0)
        p = shares[support, v]
        terms = np.multiply.outer(p, p) * distance[np.ix_(support, support)]
        scores[v] = min(math.fsum(terms.ravel().tolist()), 1.0)
    return scores


def _fsum_in_out(flow):
    f = np.asarray(flow, dtype=np.float64)
    by_row, by_col = f.tolist(), f.T.tolist()
    return [
        (math.fsum(by_col[v][:v] + by_col[v][v + 1 :]),
         math.fsum(by_row[v][:v] + by_row[v][v + 1 :]))
        for v in range(f.shape[0])
    ]


@st.composite
def _flows(draw):
    """Nonnegative k x k flows, k from 1 to 40: dense, sparse, small
    integers (tied values), or spread over many binades down to
    subnormals; some columns or rows zero."""
    k = draw(st.sampled_from([1, 2, 3]) | st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    style = draw(st.sampled_from(["dense", "sparse", "ties", "binades"]))
    if style == "ties":
        f = rng.integers(0, 4, (k, k)).astype(np.float64)
    elif style == "binades":
        f = rng.random((k, k)) * 2.0 ** rng.integers(-1070, 60, (k, k))
    else:
        f = rng.random((k, k)) * 100.0
        if style == "sparse":
            f *= rng.random((k, k)) < 0.3
    for column in draw(st.lists(st.integers(0, k - 1), max_size=3)):
        f[:, column] = 0.0
    for row in draw(st.lists(st.integers(0, k - 1), max_size=2)):
        f[row] = 0.0
    return f


def _bytes(fn):
    return lambda *args: fn(*args).tobytes()


class TestArrayFormsMatchFsum:
    @given(f=_flows())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_discipline_analytics(self, f):
        assert _outcome(_bytes(cosine_similarity), f) == _outcome(
            _bytes(_fsum_cosine_similarity), f
        )
        assert _outcome(lambda x: rao_entropy(x).scores.tobytes(), f) == _outcome(
            _bytes(_fsum_rao_scores), f
        )
        assert _outcome(_bytes(expected_flow), f) == _outcome(
            _bytes(_fsum_expected_flow), f
        )
        rows = discipline_summary(f, [1.0] * len(f))
        in_out = [(r.incoming_flow, r.outgoing_flow) for r in rows]
        assert repr(in_out) == repr(_fsum_in_out(f))
        for kind in (ENTRYWISE_L1, FROBENIUS):
            signed = f - f.T
            assert repr(matrix_norm(signed, kind)) == repr(_fsum_matrix_norm(signed, kind))

    @given(f=_flows(), orders=st.integers(0, 4))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_order_contributions(self, f, orders):
        flows = tuple(f * (t + 1) - f.T for t in range(orders))

        class Decomposition:
            order_flows = flows

        for kind in (ENTRYWISE_L1, FROBENIUS):
            norms = order_contributions(Decomposition, kind).norms
            assert repr(norms) == repr(tuple(_fsum_matrix_norm(m, kind) for m in flows))

    def test_huge_flows_keep_the_support(self):
        # squares overflow, so distances are NaN off the support of each share
        f = np.array([[1e200, 0.0, 1.0], [1e200, 2.0, 0.0], [0.0, 3.0, 1e200]])
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = rao_entropy(f).scores, _fsum_rao_scores(f)
        assert got.tobytes() == want.tobytes()

    def test_underflowed_denominator_raises_as_before(self):
        f = np.array([[1e-170, 0.0], [0.0, 1e-170]]) + np.array([[0.0, 1e-170], [0.0, 0.0]])
        assert _outcome(_bytes(cosine_similarity), f) == _outcome(
            _bytes(_fsum_cosine_similarity), f
        )


def _grid(rows, cols):
    """A rows x cols grid: many shortest paths between far corners."""
    edges = {}
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges[(v, v + 1)] = 1.0
            if r + 1 < rows:
                edges[(v, v + cols)] = 1.0
    return DisciplineNetwork(rows * cols, edges)


class TestBetweennessShapes:
    @pytest.mark.parametrize(
        "net",
        [
            DisciplineNetwork(1, {}),
            DisciplineNetwork(2, {(0, 1): 1.0}),
            DisciplineNetwork(6, {(i, (i + 1) % 6) if i < 5 else (0, 5): 1.0 for i in range(6)}),
            _grid(4, 5),
            _grid(7, 7),
            DisciplineNetwork(9, {(u, v): 1.0 for u in range(3) for v in range(3, 9)}),
            DisciplineNetwork(12, {**_clique(4), **_clique(5, offset=5), (10, 11): 0.0}),
        ],
        ids=["single", "pair", "cycle", "grid-4x5", "grid-7x7", "bipartite",
             "disconnected"],
    )
    def test_matches_the_oracle(self, net):
        assert betweenness_centrality(net).tobytes() == (
            _oracle_betweenness_centrality(net).tobytes()
        )

    def test_sources_in_several_batches(self, monkeypatch):
        # one source per batch, and all sources in one
        net = _grid(6, 6)
        want = _oracle_betweenness_centrality(net).tobytes()
        for budget in (1, 1 << 30):
            monkeypatch.setattr("citeflow.analytics._BATCH_BYTES", budget)
            assert betweenness_centrality(net).tobytes() == want
