"""lap1: exact computation of the multiplicity of 1 as a Laplacian
eigenvalue, a calculus of multiplicity-preserving graph reductions, and
exhaustive verification of the governing theorems at small orders.

Everything is exact: arbitrary-precision integer linear algebra, complete
canonical forms, isomorph-free enumeration.  No floating point.
"""

from .canon import canonical_form
from .enumeration import (
    free_trees,
    random_connected_graph,
    trees_in_class_T,
    unicyclic_graphs,
    unicyclic_in_class_G,
)
from .extremal import ExtremalSpec, extremal_tree, extremal_unicyclic
from .graph6 import (
    Graph6Error,
    parse_graph6,
    read_edge_list,
    to_graph6,
    write_edge_list,
)
from .graphs import (
    Graph,
    PathLocation,
    PendantProfile,
    complete_graph,
    cycle_graph,
    disjoint_union,
    double_star_like_tree,
    find_internal_paths,
    find_pendant_paths,
    from_edge_list,
    in_class_G,
    is_reduced,
    line_graph,
    path_graph,
    pendant_profile,
    spider,
    star_graph,
    star_like_tree,
)
from .linalg import (
    SparseIntMatrix,
    adjacency,
    char_poly,
    eigen_multiplicity,
    integer_laplacian_eigenvalues,
    internal_submatrix,
    laplacian,
    laplacian_multiplicity_one,
    multiplicity_one_by_peeling,
    poly_root_multiplicity,
    rank,
)
from .reduction import (
    ReductionStep,
    ReductionTrace,
    contract_line_P4,
    contract_tree_P5,
    cycle_multiplicity_one,
    delete_pendant_P3,
    edge_split,
    final_reduction_graph,
    multiplicity_fast,
    reduced_graph,
    reduction_operation,
)
from .verify import VerificationReport, run_suite

__version__ = "0.1.0"
