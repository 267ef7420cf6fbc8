"""Higher-order citation influence over publication citation DAGs."""

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
