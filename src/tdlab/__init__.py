"""Exact tree-depth laboratory.

A certifying tree-depth solver, labeling transforms, criticality and
1-uniqueness tests, generators for the graph families under study, and an
exhaustive small-graph search pipeline, with a CLI front end (``tdlab``).

``import tdlab`` loads graphs, solver, criticality, search and families,
the modules that the solve, the reports and the search run. The labeling
names (FeasibilityCheck, IrreducibleCore, feasible_labelings,
format_labeling, irreducible_core, is_reduced, parse_labeling,
reduce_labeling, standard_labeling_andrasfai, verify_feasible) and the
replication names (CriterionResult, run_criterion, verify_paper) resolve
on first access, which imports ``tdlab.labelings`` or ``tdlab.verify``;
so do those two modules as attributes. ``__all__`` and ``dir()`` list every name.
"""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

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

__version__ = "0.1.0"

_LAZY = dict.fromkeys(
    ("FeasibilityCheck", "IrreducibleCore", "feasible_labelings", "format_labeling",
     "irreducible_core", "is_reduced", "parse_labeling", "reduce_labeling",
     "standard_labeling_andrasfai", "verify_feasible"),
    "labelings",
) | dict.fromkeys(("CriterionResult", "run_criterion", "verify_paper"), "verify")

# the names imported above, then the lazy ones; the submodules are not exports
__all__ = [name for name, value in globals().items()
           if not (name.startswith("_") or isinstance(value, _ModuleType))] + list(_LAZY)


def __getattr__(name: str) -> object:
    """A lazy export, or its module, imported on first access (PEP 562)."""
    home = _LAZY.get(name, name if name in _LAZY.values() else None)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{home}")  # binds the module's own name here too
    if name != home:
        globals()[name] = getattr(module, name)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_LAZY.values()})
