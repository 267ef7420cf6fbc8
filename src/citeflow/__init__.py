"""Higher-order citation influence over publication citation DAGs."""

import os

# citeflow calls no BLAS routine, yet loading numpy starts OpenBLAS's worker
# threads, and each busy-waits about 2**28 cycles before it sleeps: about
# 0.06 s of CPU per process, and as much wall time on a 2-vCPU host
# (`import numpy`: 0.169 -> 0.100 s wall, 0.156 -> 0.090 s user CPU). OpenBLAS
# reads this variable when numpy loads it; at 4 the idle workers sleep at once
# and BLAS stays multi-threaded for library users. A caller's own value wins,
# and in a process that imported numpy before citeflow it does nothing.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .analytics import (
    ENTRYWISE_L1,
    FROBENIUS,
    DisciplineNetwork,
    DisciplineSummary,
    NormalizedFlow,
    OrderContributions,
    RaoScores,
    betweenness_centrality,
    cosine_similarity,
    detect_communities,
    discipline_summary,
    expected_flow,
    incoming_shares,
    matrix_norm,
    normalized_flow,
    order_contributions,
    rao_entropy,
    threshold_network,
)
from .citegraph import (
    UNCLASSIFIED,
    CitationGraph,
    CiteflowError,
    EdgeTable,
    IngestError,
    IngestReport,
    InternalInvariantError,
    Membership,
    NodeTable,
    PubTime,
    build_graph,
    longest_path_length,
    parse_edges,
    parse_membership,
    parse_nodes,
)
from .dependence import (
    AUTO,
    FlowDecomposition,
    NormalizedCitationOperator,
    build_operator,
    dependence_stack,
    dependence_vector,
    edge_work,
    flow_decomposition,
    propagate,
)
from .refkit import SynthSpec, modularity, random_dag

__version__ = "0.1.0"
