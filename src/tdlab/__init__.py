"""Exact tree-depth laboratory.

A certifying tree-depth solver, labeling transforms, criticality and
1-uniqueness tests, generators for the graph families under study, and an
exhaustive small-graph search pipeline, with a CLI front end (``tdlab``).
"""

from .criticality import (
    CriticalityReport,
    critical_spanning_subgraph,
    criticality_report,
    is_minor_critical,
    is_one_unique,
)
from .errors import BudgetError, Graph6Error
from .families import (
    FAMILIES,
    FORBIDDEN_LISTS,
    PATTERNS,
    andrasfai,
    clique_prism,
    complete,
    cycle,
    cycle_complement,
    fk_free,
    g4k,
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
    parse_edge_list,
    parse_graph6,
    to_edge_list,
    to_graph6,
)
from .labelings import (
    FeasibilityCheck,
    IrreducibleCore,
    feasible_labelings,
    format_labeling,
    irreducible_core,
    is_reduced,
    parse_labeling,
    reduce_labeling,
    standard_labeling_andrasfai,
    verify_feasible,
)
from .search import (
    SearchCounters,
    SearchJob,
    SearchResult,
    enumerate_graphs,
    run_search,
)
from .solver import (
    MAX_VERTICES,
    TreeDepthWitness,
    surplus,
    tree_depth,
    tree_depth_decision,
)
from .verify import CriterionResult, run_criterion, verify_paper

__version__ = "0.1.0"
