"""Shared fixtures: the FIX7 seven-node citation network used throughout."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from citeflow import EdgeTable, Membership, NodeTable, PubTime, build_graph
from citeflow.citegraph import membership_from_indices

FIX7_NODES = [
    ("1", PubTime(2016, 5)),
    ("2", PubTime(2016, 1)),
    ("3", PubTime(2015, 9)),
    ("4", PubTime(2015, 5)),
    ("5", PubTime(2015, 1)),
    ("6", PubTime(2014, 5)),
    ("7", PubTime(2014, 1)),
]
FIX7_EDGES = [
    ("1", "2"),
    ("1", "3"),
    ("2", "4"),
    ("2", "5"),
    ("3", "5"),
    ("4", "6"),
    ("5", "6"),
    ("5", "7"),
]
# disciplines X = {1, 2, 4}, Y = {3, 5}, Z = {6, 7}
FIX7_MEMBER_ROWS = [
    ("1", "X", 1.0),
    ("2", "X", 1.0),
    ("3", "Y", 1.0),
    ("4", "X", 1.0),
    ("5", "Y", 1.0),
    ("6", "Z", 1.0),
    ("7", "Z", 1.0),
]

NODES_CSV = "id,year,month\n" + "".join(
    f"{nid},{t.year},{t.month}\n" for nid, t in FIX7_NODES
)
EDGES_CSV = "citing,cited\n" + "".join(f"{a},{b}\n" for a, b in FIX7_EDGES)
MEMBERSHIP_CSV = "id,discipline,weight\n" + "".join(
    f"{nid},{d},{w:g}\n" for nid, d, w in FIX7_MEMBER_ROWS
)

# Mutations of the fields of one line of an input file, for fuzz tests.
MUTATIONS = {
    "drop-field": lambda fields, i: fields[:-1],
    "extra-field": lambda fields, i: [*fields, "x"],
    "empty-field": lambda fields, i: fields[:i] + [""] + fields[i + 1 :],
    "non-numeric": lambda fields, i: fields[:i] + [fields[i] + "x"] + fields[i + 1 :],
    "negative": lambda fields, i: fields[:i] + ["-" + fields[i]] + fields[i + 1 :],
    "huge": lambda fields, i: fields[:i] + [fields[i] + "9" * 20] + fields[i + 1 :],
    "nan": lambda fields, i: fields[:i] + ["nan"] + fields[i + 1 :],
    "unknown-id": lambda fields, i: ["zzz", *fields[1:]],
    "id-of-line-1": lambda fields, i: ["1", *fields[1:]],
    "quoted": lambda fields, i: fields[:i] + [f'"{fields[i]}"'] + fields[i + 1 :],
    "open-quote": lambda fields, i: fields[:i] + [f'"{fields[i]}'] + fields[i + 1 :],
    "blank-before": lambda fields, i: ["\n" + fields[0], *fields[1:]],
    "spaces": lambda fields, i: [f"  {f} " for f in fields],
}


def mutate_line(text: str, line: int, field: int, names) -> str:
    """``text`` with the named MUTATIONS applied to one field of one line.

    ``line`` and ``field`` wrap around, so any integers pick a place.
    """
    lines = text.splitlines()
    fields = lines[line % len(lines)].split(",")
    for name in names:
        fields = fields or [""]  # "".split(","): the line lost every field
        fields = MUTATIONS[name](fields, field % len(fields))
    lines[line % len(lines)] = ",".join(fields)
    return "\n".join(lines) + "\n"


# frozen expectations, all dyadic and exact in binary floating point
FIX7_P_ROW1 = (1.0, 0.5, 0.5, 0.25, 0.75, 0.625, 0.375)
FIX7_F = [[4.25, 1.75, 3.0], [0.0, 3.0, 2.0], [0.0, 0.0, 2.0]]
FIX7_F0 = [[3.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]]
FIX7_M1 = [[1.0, 1.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]]
FIX7_L1_NORMS = (5.0, 3.0, 1.0)
FIX7_SHARES = (5 / 9, 3 / 9, 1 / 9)
FIX7_R_VECTOR = (4.0, 3.0, 3.0, 2.0, 2.0, 1.0, 1.0)
FIX7_LONGEST = 3


@pytest.fixture
def fix7_graph():
    graph, report = build_graph(
        NodeTable.from_pairs(FIX7_NODES), [EdgeTable.from_pairs(FIX7_EDGES)]
    )
    assert report.edges_kept == 8
    return graph


def id_index(graph) -> dict[str, int]:
    """The position of each publication id of ``graph``."""
    return dict(zip(graph.node_ids, range(graph.n)))


def as_scipy(holder) -> sparse.csr_matrix:
    """A Membership or NormalizedCitationOperator as a scipy CSR matrix."""
    ncols = holder.k if isinstance(holder, Membership) else holder.n
    return sparse.csr_matrix(
        (holder.data, holder.indices, holder.indptr), shape=(holder.n, ncols)
    )


def operator_csr(op) -> tuple:
    """The ``(indptr, indices, data, ncols)`` tuple of an operator, as
    ``propagate`` takes it."""
    return op.indptr, op.indices, op.data, op.n


def dense_membership(array) -> Membership:
    """The Membership of a dense n x k array with row sums of one, made
    by the assembler from its nonzero entries; discipline j is ``d<j>``."""
    array = np.asarray(array, dtype=np.float64)
    node, col = np.nonzero(array)
    labels = tuple(f"d{j}" for j in range(array.shape[1]))
    membership, _ = membership_from_indices(
        array.shape[0], labels, node, col, array[node, col]
    )
    return membership


@pytest.fixture
def fix7_membership(fix7_graph):
    index = id_index(fix7_graph)
    labels = ("X", "Y", "Z")
    membership, _ = membership_from_indices(
        fix7_graph.n,
        labels,
        np.array([index[nid] for nid, _, _ in FIX7_MEMBER_ROWS]),
        np.array([labels.index(d) for _, d, _ in FIX7_MEMBER_ROWS]),
        np.array([w for _, _, w in FIX7_MEMBER_ROWS]),
    )
    return membership


@pytest.fixture
def fix7_files(tmp_path):
    """FIX7 written out as the three CSV input files."""
    nodes = tmp_path / "nodes.csv"
    edges = tmp_path / "edges.csv"
    membership = tmp_path / "membership.csv"
    nodes.write_text(NODES_CSV, encoding="utf-8")
    edges.write_text(EDGES_CSV, encoding="utf-8")
    membership.write_text(MEMBERSHIP_CSV, encoding="utf-8")
    return nodes, edges, membership
