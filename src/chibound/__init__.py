"""Construction and certification of graph families whose chromatic number is
bounded by a function of their clique number, but by no polynomial one.

The package builds oriented triangle-free base graphs with prescribed
chromatic number, derives residue-labeled power graphs from their unique-path
distances, partitions residues along Farey intervals, and colors every
induced subgraph with at most n^(n^2) colors at clique number n. Independent
brute-force oracles certify each property on desk-scale instances.
"""

from .coloring import (
    Coloring,
    bounded_color,
    edge_partition,
    longest_path_coloring,
)
from .errors import (
    BudgetExceeded,
    CliqueTooLarge,
    CycleFound,
    DomainTooSmall,
    GraphError,
    InconsistentLabels,
    MultiplePaths,
    NotPrime,
    OrderTooLarge,
    PathTooLong,
    PrimeMismatch,
    SizeBudgetExceeded,
    UniquePathViolation,
    UnknownVertex,
    UnlabeledEdge,
)
from .farey import (
    ResiduePartition,
    residue_partition,
)
from .formats import (
    canonical_json,
    graph_json_dict,
    read_edgelist,
    write_dimacs,
    write_edgelist,
)
from .graphs import (
    LabeledGraph,
    OrientedGraph,
    distance_table,
    induced_subgraph,
    topological_order,
)
from .oracles import (
    Budget,
    VerificationReport,
    exact_chromatic_number,
    max_clique,
    verify_no_long_path,
    verify_partition_sums,
    verify_proper,
    verify_triangle_free,
    verify_unique_paths,
)
from .power import build_power_graph, is_prime
from .zykov import build_zykov, predict_size, zykov_closure

__all__ = [
    "Budget",
    "BudgetExceeded",
    "CliqueTooLarge",
    "Coloring",
    "CycleFound",
    "DomainTooSmall",
    "GraphError",
    "InconsistentLabels",
    "LabeledGraph",
    "MultiplePaths",
    "NotPrime",
    "OrderTooLarge",
    "OrientedGraph",
    "PathTooLong",
    "PrimeMismatch",
    "ResiduePartition",
    "SizeBudgetExceeded",
    "UniquePathViolation",
    "UnknownVertex",
    "UnlabeledEdge",
    "VerificationReport",
    "bounded_color",
    "build_power_graph",
    "build_zykov",
    "canonical_json",
    "distance_table",
    "edge_partition",
    "exact_chromatic_number",
    "graph_json_dict",
    "induced_subgraph",
    "is_prime",
    "longest_path_coloring",
    "max_clique",
    "predict_size",
    "read_edgelist",
    "residue_partition",
    "topological_order",
    "verify_no_long_path",
    "verify_partition_sums",
    "verify_proper",
    "verify_triangle_free",
    "verify_unique_paths",
    "write_dimacs",
    "write_edgelist",
    "zykov_closure",
]
