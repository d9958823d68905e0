"""Connectivity toolkit for Kronecker products of graphs."""

from .connectivity import (
    ConnectivityResult,
    CutSet,
    brute_force_connectivity,
    classify_cut,
    connectivity_result,
    enumerate_min_cuts,
    vertex_connectivity,
)
from .corpus import all_graphs, are_isomorphic, connected_graphs, graphs_up_to
from .errors import (
    BudgetExceededError,
    Graph6Error,
    KronkitError,
    PreconditionError,
    UnsupportedSizeError,
)
from .graphs import (
    Graph,
    delete_vertex,
    encode_graph6,
    graph_from_edges,
    is_connected,
    make_complete,
    make_cycle,
    parse_graph6,
    random_graph,
    validate,
)
from .product_analysis import (
    BatchSummary,
    ResidueSystem,
    SkipRecord,
    VerificationReport,
    batch_verify,
    build_gstar,
    build_residue_system,
    check_gstar_connected,
    check_residue_components,
    verify_connectivity_formula,
    verify_super_connectivity,
)
from .products import (
    is_bipartite,
    kronecker,
    weichsel_connected,
)

__all__ = [
    "BatchSummary",
    "BudgetExceededError",
    "ConnectivityResult",
    "CutSet",
    "Graph",
    "Graph6Error",
    "KronkitError",
    "PreconditionError",
    "ResidueSystem",
    "SkipRecord",
    "UnsupportedSizeError",
    "VerificationReport",
    "all_graphs",
    "are_isomorphic",
    "batch_verify",
    "brute_force_connectivity",
    "build_gstar",
    "build_residue_system",
    "check_gstar_connected",
    "check_residue_components",
    "classify_cut",
    "connected_graphs",
    "connectivity_result",
    "delete_vertex",
    "encode_graph6",
    "enumerate_min_cuts",
    "graph_from_edges",
    "graphs_up_to",
    "is_bipartite",
    "is_connected",
    "kronecker",
    "make_complete",
    "make_cycle",
    "parse_graph6",
    "random_graph",
    "validate",
    "verify_connectivity_formula",
    "verify_super_connectivity",
    "vertex_connectivity",
    "weichsel_connected",
]

__version__ = "0.1.0"
