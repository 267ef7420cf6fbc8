"""Output checks for the benchmark, computed apart from citeflow.

The flows are rebuilt here from the input CSVs with numpy and scipy:
the outdegree-normalized citation operator, the order-by-order
iteration on dense n x k blocks, and the dependence vector. Each
``check_*`` function returns a list of problems; an empty list means
the files passed. Only the community check borrows ``refkit.modularity``
from the program, as the scorer the partition is judged by.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

# Numbers in the output carry 12 significant digits, so a printed value
# is within 5e-12 of the exact one, relatively.
RTOL = 1e-11
# Identities between printed files compound a few such roundings.
PROP_RTOL = 1e-10
FIXED_FILES = (
    "F.csv", "F0.csv", "contributions.csv", "E.csv", "fhat.csv", "summary.csv",
    "r.csv", "communities.csv", "betweenness.csv", "rao.csv", "positive.dot",
    "negative.dot", "contributions.svg",
)
DOT_EDGE = re.compile(r'^\s*"([^"]*)" -- "([^"]*)" \[weight=([^,]+),')


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


@dataclass
class Inputs:
    """The three input CSVs, parsed without citeflow."""

    ids: list[str]
    tkey: np.ndarray
    citing: np.ndarray
    cited: np.ndarray
    membership: list[tuple[str, str, float]]


def read_inputs(in_dir: Path) -> Inputs:
    nodes = _rows(in_dir / "nodes.csv")[1:]
    ids = [row[0] for row in nodes]
    tkey = np.array([int(y) * 12 + int(mo) - 1 for _, y, mo in nodes], dtype=np.int64)
    pos = {nid: i for i, nid in enumerate(ids)}
    edges = _rows(in_dir / "edges.csv")[1:]
    citing = np.fromiter((pos[a] for a, _ in edges), dtype=np.int64, count=len(edges))
    cited = np.fromiter((pos[b] for _, b in edges), dtype=np.int64, count=len(edges))
    membership = [(a, d, float(w)) for a, d, w in _rows(in_dir / "membership.csv")[1:]]
    return Inputs(ids, tkey, citing, cited, membership)


def check_synth(inputs: Inputs, n: int, m: int) -> list[str]:
    """The synthesized inputs: n nodes, m strictly time-decreasing edges,
    stochastic membership rows."""
    problems = []
    if len(inputs.ids) != n or len(set(inputs.ids)) != n:
        problems.append(f"nodes.csv has {len(inputs.ids)} rows for n={n}")
    if inputs.citing.size != m:
        problems.append(f"edges.csv has {inputs.citing.size} rows for m={m}")
    later = inputs.tkey[inputs.citing] > inputs.tkey[inputs.cited]
    if not later.all():
        problems.append(f"{int((~later).sum())} edges do not go back in time")
    sums: dict[str, float] = {}
    for nid, _, w in inputs.membership:
        sums[nid] = sums.get(nid, 0.0) + w
    off = [nid for nid in inputs.ids if abs(sums.get(nid, 0.0) - 1.0) > 1e-9]
    if off:
        problems.append(f"{len(off)} membership rows do not sum to 1, first {off[0]}")
    return problems


@dataclass
class Expected:
    """Flows recomputed from the inputs."""

    labels: list[str]
    q: sparse.csr_matrix  # n x k, rows sum to one
    w: sparse.csr_matrix  # n x n, outdegree-normalized
    blocks: list[np.ndarray]  # blocks[i] = Q^T W^i Q, every nonzero order
    r: np.ndarray

    @property
    def orders(self) -> int:
        return len(self.blocks) - 1


def expected_flows(inputs: Inputs) -> Expected:
    n = len(inputs.ids)
    # Keep citations from a strictly newer to an older publication, once each.
    keep = inputs.tkey[inputs.citing] > inputs.tkey[inputs.cited]
    key = np.unique(inputs.citing[keep] * n + inputs.cited[keep])
    src, dst = key // n, key % n
    outdeg = np.bincount(src, minlength=n)
    w = sparse.csr_matrix((1.0 / outdeg[src], (src, dst)), shape=(n, n))

    labels: list[str] = []
    col: dict[str, int] = {}
    weight: dict[tuple[int, int], float] = {}
    pos = {nid: i for i, nid in enumerate(inputs.ids)}
    for nid, label, value in inputs.membership:
        j = col.setdefault(label, len(col))
        if j == len(labels):
            labels.append(label)
        cell = (pos[nid], j)
        weight[cell] = weight.get(cell, 0.0) + value
    rows, cols = (np.array(a, dtype=np.int64) for a in zip(*weight))
    q = sparse.csr_matrix(
        (np.fromiter(weight.values(), dtype=np.float64), (rows, cols)),
        shape=(n, len(labels)),
    )
    q = sparse.diags(1.0 / np.asarray(q.sum(axis=1)).ravel()) @ q
    qt = q.T.tocsr()

    x = q.toarray()
    y = np.ones(n)
    r = np.zeros(n)
    blocks = []
    for _ in range(n + 1):  # W is nilpotent: W^n = 0
        if not x.any():
            break
        blocks.append(np.asarray(qt @ x))
        r += y
        x = w @ x
        y = w @ y
    return Expected(labels, q.tocsr(), w, blocks, r)


def _matrix(path: Path) -> tuple[list[str], np.ndarray]:
    rows = _rows(path)
    labels = rows[0][1:]
    if [row[0] for row in rows[1:]] != labels:
        raise ValueError(f"{path.name}: row labels differ from the header")
    return labels, np.array([[float(x) for x in row[1:]] for row in rows[1:]])


def _off(actual, expected, rtol) -> float:
    """Largest relative disagreement, 0 when within rtol everywhere."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if actual.shape != expected.shape:
        return math.inf
    scale = np.maximum(np.abs(actual), np.abs(expected))
    bad = np.abs(actual - expected) > rtol * scale
    if not bad.any():
        return 0.0
    return float((np.abs(actual - expected)[bad] / scale[bad]).max())


def check_compute(inputs: Inputs, exp: Expected, out_dir: Path) -> list[str]:
    """Compare a ``citeflow compute`` output directory with ``exp``."""
    problems: list[str] = []

    def expect(ok: bool, text: str) -> None:
        if not ok:
            problems.append(text)

    orders = exp.orders
    wanted = set(FIXED_FILES) | {f"M_{i}.csv" for i in range(1, orders + 1)}
    found = {p.name for p in out_dir.iterdir()}
    expect(found == wanted, f"files: missing {sorted(wanted - found)}, "
           f"extra {sorted(found - wanted)}")
    expect(len(found) == 13 + orders, f"{len(found)} files for 13 + {orders}")
    if wanted - found:
        return problems

    labels, _ = _matrix(out_dir / "F.csv")
    if sorted(labels) != sorted(exp.labels):
        return problems + ["F.csv labels differ from membership.csv"]
    perm = [exp.labels.index(lb) for lb in labels]
    order = np.ix_(perm, perm)
    k = len(labels)

    matrices = {"F0.csv": exp.blocks[0], "F.csv": sum(exp.blocks)}
    matrices.update({f"M_{i}.csv": exp.blocks[i] for i in range(1, orders + 1)})
    read: dict[str, np.ndarray] = {}
    for name, block in matrices.items():
        file_labels, value = _matrix(out_dir / name)
        read[name] = value
        expect(file_labels == labels, f"{name}: labels differ from F.csv")
        off = _off(value, block[order], RTOL)
        expect(off == 0.0, f"{name}: off by {off:.3g} relative")

    r_rows = _rows(out_dir / "r.csv")[1:]
    pos = {nid: i for i, nid in enumerate(inputs.ids)}
    expect(len(r_rows) == len(pos), f"r.csv has {len(r_rows)} rows")
    r_csv = np.zeros(len(pos))
    for nid, value in r_rows:
        r_csv[pos[nid]] = float(value)
    off = _off(r_csv, exp.r, RTOL)
    expect(off == 0.0, f"r.csv: off by {off:.3g} relative")

    # r = 1 + W r, and the row sums of F are Q^T r.
    off = _off(r_csv, 1.0 + exp.w @ r_csv, PROP_RTOL)
    expect(off == 0.0, f"r != 1 + W r, off by {off:.3g} relative")
    off = _off(read["F.csv"].sum(axis=1), (exp.q.T @ r_csv)[perm], PROP_RTOL)
    expect(off == 0.0, f"row sums of F != Q^T r, off by {off:.3g} relative")

    contrib = _rows(out_dir / "contributions.csv")
    expect(contrib[0] == ["order", "l1_norm", "l1_share", "frob_norm", "frob_share"],
           "contributions.csv header")
    table = np.array([[float(x) for x in row] for row in contrib[1:]]).reshape(-1, 5)
    expect(table[:, 0].tolist() == list(range(1, orders + 1)),
           f"contributions.csv orders {table[:, 0].tolist()}")
    if table.shape[0] == orders:
        l1 = [read[f"M_{i}.csv"].sum() for i in range(1, orders + 1)]
        frob = [math.sqrt((read[f"M_{i}.csv"] ** 2).sum()) for i in range(1, orders + 1)]
        off = max(_off(table[:, 1], l1, PROP_RTOL), _off(table[:, 3], frob, PROP_RTOL))
        expect(off == 0.0, f"contribution norms != M_i sums, off by {off:.3g}")
        for column in (2, 4):
            total = math.fsum(table[:, column])
            expect(abs(total - 1.0) <= PROP_RTOL, f"shares sum to {total!r}")

    f = read["F.csv"]
    _, e = _matrix(out_dir / "E.csv")
    _, fhat = _matrix(out_dir / "fhat.csv")
    off = max(_off(e.sum(axis=1), f.sum(axis=1), PROP_RTOL),
              _off(e.sum(axis=0), f.sum(axis=0), PROP_RTOL))
    expect(off == 0.0, f"E margins != F margins, off by {off:.3g}")
    with np.errstate(divide="ignore", invalid="ignore"):
        resid = np.where(e > 0, (f - e) / np.sqrt(e), 0.0)
        slack = np.where(e > 0, PROP_RTOL * (f + e) / np.sqrt(e), 0.0)
    bad = np.abs(fhat - resid) > slack
    expect(not bad.any(), f"fhat != (F - E)/sqrt(E) in {int(bad.sum())} cells")

    # Rao: p^T (1 - cos) p over each column's incoming shares.
    col = f.sum(axis=0)
    p = np.divide(f, col, out=np.zeros_like(f), where=col > 0)
    norms = np.sqrt((f * f).sum(axis=0))
    unit = np.divide(f, norms, out=np.zeros_like(f), where=norms > 0)
    cos = np.clip(unit.T @ unit, 0.0, 1.0)
    np.fill_diagonal(cos, 1.0)
    rao_expected = np.minimum(np.einsum("uv,wv,uw->v", p, p, 1.0 - cos), 1.0)
    rao_rows = _rows(out_dir / "rao.csv")[1:]
    expect([row[0] for row in rao_rows] == labels, "rao.csv labels")
    rao = np.array([float(row[1]) for row in rao_rows])
    if rao.shape == rao_expected.shape:
        gap = float(np.abs(rao - rao_expected).max(initial=0.0))
        expect(gap <= 1e-9, f"rao.csv off by {gap:.3g}")
    expect(bool(((rao >= 0.0) & (rao <= 1.0)).all()), "rao.csv outside [0, 1]")

    problems.extend(_check_communities(out_dir, labels, k))
    return problems


def _check_communities(out_dir: Path, labels: list[str], k: int) -> list[str]:
    from citeflow.analytics import DisciplineNetwork
    from citeflow.refkit import modularity

    rows = _rows(out_dir / "communities.csv")[1:]
    if sorted(row[0] for row in rows) != sorted(labels) or len(rows) != k:
        return ["communities.csv does not list every discipline once"]
    index = {label: i for i, label in enumerate(labels)}
    groups: dict[str, list[int]] = {}
    for label, number in rows:
        groups.setdefault(number, []).append(index[label])
    edges = {}
    for line in (out_dir / "positive.dot").read_text(encoding="utf-8").splitlines():
        match = DOT_EDGE.match(line)
        if match:
            u, v = index[match.group(1)], index[match.group(2)]
            edges[(min(u, v), max(u, v))] = float(match.group(3))
    net = DisciplineNetwork(k, edges)
    found = modularity(net, list(groups.values()))
    alone = modularity(net, [[i] for i in range(k)])
    if found < alone - 1e-12:
        return [f"communities score {found!r} below singletons {alone!r}"]
    return []
