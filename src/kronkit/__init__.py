"""Connectivity toolkit for Kronecker products of graphs."""

from .connectivity import (
    CutSet,
    enumerate_min_cuts,
    min_cut_verdict,
    vertex_connectivity,
)
from .corpus import all_graphs, connected_graphs
from .errors import (
    BudgetExceededError,
    Graph6Error,
    KronkitError,
    PreconditionError,
    UnsupportedSizeError,
)
from .graphs import (
    Graph,
    encode_graph6,
    make_complete,
    make_cycle,
    parse_graph6,
    random_graph,
)
from .product_analysis import (
    BatchSummary,
    SkipRecord,
    VerificationReport,
    batch_verify,
    check_gstar_connected,
    check_residue_components,
    predicted_counterexample,
    verify_connectivity_formula,
    verify_super_connectivity,
)
from .products import is_bipartite, kronecker

__all__ = [
    "BatchSummary",
    "BudgetExceededError",
    "CutSet",
    "Graph",
    "Graph6Error",
    "KronkitError",
    "PreconditionError",
    "SkipRecord",
    "UnsupportedSizeError",
    "VerificationReport",
    "all_graphs",
    "batch_verify",
    "check_gstar_connected",
    "check_residue_components",
    "connected_graphs",
    "encode_graph6",
    "enumerate_min_cuts",
    "is_bipartite",
    "kronecker",
    "make_complete",
    "make_cycle",
    "min_cut_verdict",
    "parse_graph6",
    "predicted_counterexample",
    "random_graph",
    "verify_connectivity_formula",
    "verify_super_connectivity",
    "vertex_connectivity",
]

__version__ = "0.1.0"
