"""Exact tree-depth laboratory.

A certifying tree-depth solver, labeling transforms, criticality and
1-uniqueness tests, generators for the graph families under study, and an
exhaustive small-graph search pipeline, with a CLI front end (``tdlab``).
"""

from .criticality import (
    CriticalityReport,
    critical_spanning_subgraph,
    criticality_report,
    is_induced_subgraph_critical,
    is_minor_critical,
    is_one_unique,
    is_one_unique_vertex,
    is_subgraph_critical,
    one_unique_vertices,
)
from .errors import BudgetError, Graph6Error
from .families import (
    FAMILY_NAMES,
    FORBIDDEN_LISTS,
    PATTERNS,
    FamilySpec,
    andrasfai,
    clique_prism,
    complete,
    cycle,
    cycle_complement,
    fk_free,
    g4k,
    generate,
    h_graph,
    k_net,
    path,
    pattern,
)
from .graphs import (
    Graph,
    canonical_form,
    cartesian_product,
    contains_induced,
    disjoint_union,
    parse_edge_list,
    parse_graph6,
    to_edge_list,
    to_graph6,
    vertex_connectivity,
)
from .labelings import (
    IrreducibleCore,
    enumerate_optimal_labelings,
    feasible_labelings,
    format_labeling,
    irreducible_core,
    is_reduced,
    iter_optimal_labelings,
    parse_labeling,
    reduce_labeling,
    standard_labeling_andrasfai,
    t_uniqueness,
)
from .search import (
    SearchCounters,
    SearchJob,
    SearchResult,
    enumerate_graphs,
    read_graph6_lines,
    run_search,
)
from .solver import (
    FeasibilityCheck,
    MAX_VERTICES,
    TreeDepthWitness,
    surplus,
    tree_depth,
    tree_depth_decision,
    verify_feasible,
)
from .verify import CriterionResult, run_criterion, verify_paper

__version__ = "0.1.0"
