"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np
import pytest

from citeflow import (
    DisciplineNetwork,
    SynthSpec,
    build_graph,
    build_operator,
    dependence_stack,
    dependence_vector,
    detect_communities,
    flow_decomposition,
    incoming_shares,
    matrix_norm,
    modularity,
    normalized_flow,
    order_contributions,
    random_dag,
    rao_entropy,
)
from citeflow.cli import main
from conftest import (
    FIX7_EDGES,
    FIX7_F,
    FIX7_L1_NORMS,
    FIX7_NODES,
    FIX7_P_ROW1,
    FIX7_R_VECTOR,
    FIX7_SHARES,
    as_scipy,
)
from oracles import dense_dependence, enumerate_dependence_row, exhaustive_modularity

GOLDEN_DIR = Path(__file__).parent / "golden" / "fix7"


def _report(name: str, ok: bool) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def big_graph():
    """Seeded DAG with n = 10^5 and m ~ 10^6, shared by two criteria."""
    return random_dag(SynthSpec(n=100_000, target_m=1_000_000, k=8, seed=7,
                                month_span=48))


def test_fix7_exactness(fix7_graph, fix7_membership):
    """Full pipeline on FIX7 reproduces the frozen values within 1e-12."""
    started = time.perf_counter()
    p = dense_dependence(fix7_graph)
    op = build_operator(fix7_graph)
    decomp = flow_decomposition(op, fix7_membership)
    norms = [matrix_norm(m) for m in decomp.order_flows]
    shares = order_contributions(decomp).shares
    r = decomp.r
    elapsed = time.perf_counter() - started

    ok = (
        np.abs(p[0] - np.array(FIX7_P_ROW1)).max() <= 1e-12
        and np.abs(decomp.total - np.array(FIX7_F)).max() <= 1e-12
        and np.abs(np.array(norms) - np.array(FIX7_L1_NORMS)).max() <= 1e-12
        and np.abs(np.array(shares) - np.array(FIX7_SHARES)).max() <= 1e-12
        and np.abs(r - np.array(FIX7_R_VECTOR)).max() <= 1e-12
        and elapsed < 1.0
    )
    _report("FIX7 exactness", ok)
    assert ok, f"elapsed={elapsed:.3f}s"


def test_oracle_equivalence():
    """Iterative engine vs dense inversion vs exact enumeration on 100 DAGs."""
    started = time.perf_counter()
    max_iter_err = 0.0
    max_enum_err = 0.0
    for i in range(100):
        if i % 10 == 0:
            n = 20 + i  # denser family, stress the branching
            spec = SynthSpec(n=n, target_m=min(4 * n, n * (n - 1) // 2),
                             k=1 + i % 8, seed=1000 + i, month_span=5 + i % 16)
        else:
            n = min(10 + 2 * i, 200)
            spec = SynthSpec(n=n, target_m=int(1.4 * n), k=1 + i % 8,
                             seed=1000 + i, month_span=5 + i % 16)
        graph, membership = random_dag(spec)
        assert graph.n <= 200 and graph.m <= 2000 and membership.k <= 8
        op = build_operator(graph)
        total = dependence_stack(op, membership)
        p = dense_dependence(graph)
        oracle_total = p @ as_scipy(membership).toarray()
        max_iter_err = max(max_iter_err, float(np.abs(total - oracle_total).max()))
        for u in range(graph.n):
            exact_row = enumerate_dependence_row(graph, u)
            dense_row = p[u]
            for v, exact in exact_row.items():
                err = abs(dense_row[v] - float(exact))
                if err > max_enum_err:
                    max_enum_err = err
            pattern = dense_row != 0.0
            assert set(np.nonzero(pattern)[0].tolist()) == set(exact_row)
    elapsed = time.perf_counter() - started

    ok = max_iter_err <= 1e-9 and max_enum_err <= 1e-9 and elapsed < 60.0
    _report("oracle equivalence", ok)
    assert ok, f"iter={max_iter_err:.2e} enum={max_enum_err:.2e} t={elapsed:.1f}s"


def test_pagerank_identity(big_graph):
    """Dependence vector satisfies r = (DA) r + e at scale."""
    graph, _ = big_graph
    assert graph.n == 100_000 and graph.m == 1_000_000
    op = build_operator(graph)
    r = dependence_vector(op)
    residual = float(np.abs(r - (as_scipy(op) @ r + 1.0)).max())
    ok = residual <= 1e-9
    _report("PageRank identity", ok)
    assert ok, f"residual={residual:.2e}"


def test_decomposition_identity(big_graph):
    """Total flow norm splits exactly across the per-order norms at scale."""
    graph, membership = big_graph
    op = build_operator(graph)
    decomp = flow_decomposition(op, membership)
    total_norm = matrix_norm(decomp.total)
    split = matrix_norm(decomp.identity_flow) + math.fsum(
        matrix_norm(m) for m in decomp.order_flows
    )
    rel_err = abs(total_norm - split) / total_norm
    shares = order_contributions(decomp).shares
    share_sum_err = abs(math.fsum(shares) - 1.0)
    ok = rel_err <= 1e-9 and share_sum_err <= 1e-9
    _report("decomposition identity", ok)
    assert ok, f"rel={rel_err:.2e} shares={share_sum_err:.2e}"


def test_chi_squared_properties():
    """Uniform flow has zero residuals; margins always match."""
    uniform = np.full((6, 6), 1.0)
    uniform_max = float(np.abs(normalized_flow(uniform).normalized).max())

    rng = np.random.default_rng(19)
    worst_resid = 0.0
    worst_margin = 0.0
    for _ in range(20):
        k = int(rng.integers(2, 12))
        flow = rng.random((k, k)) * rng.integers(1, 1000)
        norm = normalized_flow(flow)
        total = flow.sum()
        worst_resid = max(
            worst_resid, abs(float((flow - norm.expected).sum())) / total
        )
        worst_margin = max(
            worst_margin,
            float(np.abs(norm.expected.sum(axis=1) - flow.sum(axis=1)).max()) / total,
            float(np.abs(norm.expected.sum(axis=0) - flow.sum(axis=0)).max()) / total,
        )
    ok = uniform_max <= 1e-12 and worst_resid <= 1e-9 and worst_margin <= 1e-9
    _report("chi-squared properties", ok)
    assert ok, f"uniform={uniform_max:.2e} resid={worst_resid:.2e} margin={worst_margin:.2e}"


def test_rao_properties():
    """Identity flow scores zero; scale invariance and equivariance hold."""
    identity_max = float(np.abs(rao_entropy(np.eye(5)).scores).max())

    rng = np.random.default_rng(23)
    in_range = True
    scale_err = 0.0
    equivariant = True
    for _ in range(10):
        k = int(rng.integers(2, 10))
        flow = rng.random((k, k)) * 7
        scores = rao_entropy(flow).scores
        in_range &= bool(scores.min() >= 0.0 and scores.max() <= 1.0)
        scaled = rao_entropy(3.0 * flow).scores
        scale_err = max(scale_err, float(np.abs(scores - scaled).max()))
        perm = rng.permutation(k)
        permuted = rao_entropy(flow[np.ix_(perm, perm)]).scores
        equivariant &= bool(np.array_equal(permuted, scores[perm]))
    ok = identity_max <= 1e-12 and in_range and scale_err <= 1e-12 and equivariant
    _report("Rao properties", ok)
    assert ok, f"identity={identity_max:.2e} scale={scale_err:.2e} equi={equivariant}"


def test_community_oracle():
    """Greedy never beats the exhaustive optimum; exact on the clique family."""
    clique_ok = True
    for bridge in (0.0, 0.5, 1.0):
        edges = {}
        for offset in (0, 4):
            for u in range(4):
                for v in range(u + 1, 4):
                    edges[(offset + u, offset + v)] = 1.0
        if bridge > 0.0:
            edges[(3, 4)] = bridge
        net = DisciplineNetwork(8, edges)
        greedy = detect_communities(net)
        oracle_partition, oracle_q = exhaustive_modularity(net)
        clique_ok &= greedy == oracle_partition == [[0, 1, 2, 3], [4, 5, 6, 7]]
        clique_ok &= modularity(net, greedy) <= oracle_q + 1e-12

    rng = np.random.default_rng(29)
    random_ok = True
    for _ in range(50):
        k = int(rng.integers(2, 9))
        edges = {}
        for u in range(k):
            for v in range(u + 1, k):
                if rng.random() < 0.55:
                    edges[(u, v)] = float(rng.integers(1, 10))
        net = DisciplineNetwork(k, edges)
        greedy_q = modularity(net, detect_communities(net))
        _, oracle_q = exhaustive_modularity(net)
        random_ok &= greedy_q <= oracle_q + 1e-12
    ok = clique_ok and random_ok
    _report("community oracle", ok)
    assert ok, f"clique={clique_ok} random={random_ok}"


def test_scale_benchmark(tmp_path_factory):
    """Full compute on n=2e5, m=1e6, k=30 in < 60 s; threads change nothing."""
    base = tmp_path_factory.mktemp("benchmark")
    data = base / "data"
    code = main(["synth", "--n", "200000", "--m", "1000000", "--k", "30",
                 "--seed", "11", "--month-span", "24", "--out", str(data)])
    assert code == 0
    args = ["compute", "--nodes", str(data / "nodes.csv"),
            "--edges", str(data / "edges.csv"),
            "--membership", str(data / "membership.csv")]

    started = time.perf_counter()
    assert main(args + ["--out", str(base / "default")]) == 0
    elapsed = time.perf_counter() - started

    assert main(args + ["--out", str(base / "t1"), "--threads", "1"]) == 0
    assert main(args + ["--out", str(base / "t8"), "--threads", "8"]) == 0
    t1_files = {p.name: p.read_bytes() for p in sorted((base / "t1").iterdir())}
    t8_files = {p.name: p.read_bytes() for p in sorted((base / "t8").iterdir())}
    ok = elapsed < 60.0 and t1_files == t8_files
    _report("scale benchmark", ok)
    assert ok, f"elapsed={elapsed:.1f}s identical={t1_files == t8_files}"


def test_golden_files(fix7_files, tmp_path):
    """FIX7 compute output matches the committed golden files byte for byte."""
    nodes, edges, membership = fix7_files
    out = tmp_path / "out"
    code = main(["compute", "--nodes", str(nodes), "--edges", str(edges),
                 "--membership", str(membership), "--out", str(out)])
    assert code == 0
    golden = {p.name: p.read_bytes() for p in sorted(GOLDEN_DIR.iterdir())}
    fresh = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    same_names = set(golden) == set(fresh)
    mismatched = [name for name in golden if golden[name] != fresh.get(name)]
    ok = same_names and not mismatched
    _report("golden files", ok)
    assert ok, f"names={same_names} mismatched={mismatched}"
