"""1-uniqueness and the three criticality notions, plus the JSON-friendly
per-graph report.

A vertex is 1-unique iff the star-clique transform at it strictly lowers
tree-depth; the transform turns the open neighborhood into a clique and
deletes the vertex. Minor-criticality only needs single-step minors: if some
deeper minor dropped the depth, monotonicity means a single deletion or
contraction on the way there already did.

Each single-step minor h of g has td(g) - 1 <= td(h) <= td(g), so its depth
drop is 0 or 1 and one decision at cutoff td(g) - 1 settles it. The upper
bound is minor-monotonicity. The lower bound, in elimination forests (every
edge joins an ancestor and a descendant; depth = number of levels):

* h = g - v: v as a new root over a forest of h gives a forest of g;
* h = g - uv: so does u over a forest of g - u, a subgraph of h;
* h = g/uv: split the merged node w of a forest of h into the chain u -> v,
  u in w's place and w's children below v. A neighbour of u or v was one
  of w, so it is an ancestor of u or a descendant of v, and uv is a
  parent-child pair; only paths through w grow, by one level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .graphs import Graph
from .labelings import T_UNIQUE_MAX_N, T_UNIQUE_MAX_TD, _t_uniqueness
from .solver import MAX_VERTICES, _MinorTable, tree_depth, tree_depth_decision


def is_one_unique_vertex(g: Graph, v: int) -> bool:
    value = tree_depth(g).value
    return tree_depth_decision(g.star_clique_transform(v), value - 1)


def one_unique_vertices(g: Graph) -> tuple[bool, ...]:
    return _one_unique(g, tree_depth(g).value)


def _one_unique(g: Graph, value: int) -> tuple[bool, ...]:
    return tuple(tree_depth_decision(g.star_clique_transform(v), value - 1) for v in range(g.n))


def is_one_unique(g: Graph) -> bool:
    """Every vertex 1-unique (vacuously true for the empty graph)."""
    return all(one_unique_vertices(g))


def is_subgraph_critical(g: Graph) -> bool:
    """Every single edge deletion strictly lowers tree-depth."""
    return all(d for _, _, d in _MinorTable(g).edge_deletions())


def is_induced_subgraph_critical(g: Graph) -> bool:
    """Every single vertex deletion strictly lowers tree-depth."""
    return all(_MinorTable(g).vertex_deletions())


def is_minor_critical(g: Graph, shortcut: bool = False) -> bool:
    """Every single edge deletion, edge contraction, and vertex deletion
    strictly lowers tree-depth.

    With shortcut=True, contractions of edges incident to a 1-unique vertex
    are skipped (they are guaranteed to lower the depth); the search harness
    cross-validates the shortcut against the full check on small graphs.
    """
    return _minor_critical(_MinorTable(g), shortcut)[0]


def _minor_critical(table: _MinorTable, shortcut: bool) -> tuple[bool, tuple[bool, ...] | None]:
    """Edge, then vertex, then contraction stage, stopping at the first minor
    that keeps the depth; also the 1-unique flags if the shortcut made them."""
    if not (all(d for _, _, d in table.edge_deletions()) and all(table.vertex_deletions())):
        return False, None
    if not shortcut:
        return all(d for _, _, d in table.contractions()), None
    g = table.g
    ou = _one_unique(g, table.value)
    kept = [(u, v) for u, v in g.edges() if not ou[u] and not ou[v]]
    return all(d for _, _, d in table.contractions(kept)), ou


def critical_spanning_subgraph(g: Graph) -> Graph:
    """Greedy fixed point of depth-preserving edge deletion: repeatedly
    delete the first edge (ascending (u, v) order) whose removal keeps
    tree-depth unchanged, restarting after each deletion."""
    value = tree_depth(g).value
    while True:
        table = _MinorTable(g, value)
        spare = next(((u, v) for u, v, d in table.edge_deletions() if not d), None)
        if spare is None:
            return g
        g = g.delete_edge(*spare)


@dataclass(frozen=True)
class CriticalityReport:
    """Everything the search pipeline records per graph.

    Deltas are td(g) minus the depth after the operation. min_t entries are
    None either when no optimal labeling isolates the vertex at any label or
    when the instance exceeds the t_uniqueness cap (n <= 10, td <= 6); the
    criticality booleans and one_unique flags are always exact.
    conjecture_checks: "order" is n <= 2^(td-1), "maxdeg" is
    max degree <= td - 1.
    """

    td: int
    surplus: int
    edge_deletion_deltas: tuple[tuple[int, int, int], ...]
    contraction_deltas: tuple[tuple[int, int, int], ...]
    vertex_deletion_deltas: tuple[int, ...]
    one_unique: tuple[bool, ...]
    min_t: tuple[int | None, ...]
    is_minor_critical: bool
    is_subgraph_critical: bool
    is_induced_subgraph_critical: bool
    is_one_unique_graph: bool
    conjecture_checks: dict[str, bool]

    def to_dict(self) -> dict[str, Any]:
        return {
            "td": self.td,
            "surplus": self.surplus,
            "edge_deletion_deltas": [list(t) for t in self.edge_deletion_deltas],
            "contraction_deltas": [list(t) for t in self.contraction_deltas],
            "vertex_deletion_deltas": list(self.vertex_deletion_deltas),
            "one_unique": list(self.one_unique),
            "min_t": list(self.min_t),
            "is_minor_critical": self.is_minor_critical,
            "is_subgraph_critical": self.is_subgraph_critical,
            "is_induced_subgraph_critical": self.is_induced_subgraph_critical,
            "is_one_unique_graph": self.is_one_unique_graph,
            "conjecture_checks": dict(self.conjecture_checks),
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "CriticalityReport":
        return CriticalityReport(
            td=data["td"],
            surplus=data["surplus"],
            edge_deletion_deltas=tuple(tuple(t) for t in data["edge_deletion_deltas"]),
            contraction_deltas=tuple(tuple(t) for t in data["contraction_deltas"]),
            vertex_deletion_deltas=tuple(data["vertex_deletion_deltas"]),
            one_unique=tuple(data["one_unique"]),
            min_t=tuple(data["min_t"]),
            is_minor_critical=data["is_minor_critical"],
            is_subgraph_critical=data["is_subgraph_critical"],
            is_induced_subgraph_critical=data["is_induced_subgraph_critical"],
            is_one_unique_graph=data["is_one_unique_graph"],
            conjecture_checks=dict(data["conjecture_checks"]),
        )


def criticality_report(g: Graph, max_vertices: int = MAX_VERTICES) -> CriticalityReport:
    if g.n == 0:
        raise ValueError("criticality report needs a nonempty graph")
    table = _MinorTable(g, max_vertices=max_vertices)
    value = table.value
    edge_deltas = tuple(table.edge_deletions())
    contraction_deltas = tuple(table.contractions())
    vertex_deltas = tuple(table.vertex_deletions())
    ou = _one_unique(g, value)
    if g.is_complete() or (g.n <= T_UNIQUE_MAX_N and value <= T_UNIQUE_MAX_TD):
        min_t = tuple(_t_uniqueness(g, v, value) for v in range(g.n))
    else:
        min_t = (None,) * g.n
    sub_critical = all(d for _, _, d in edge_deltas)
    ind_critical = all(vertex_deltas)
    minor_critical = sub_critical and ind_critical and all(d for _, _, d in contraction_deltas)
    return CriticalityReport(
        td=value,
        surplus=g.n - value,
        edge_deletion_deltas=edge_deltas,
        contraction_deltas=contraction_deltas,
        vertex_deletion_deltas=vertex_deltas,
        one_unique=ou,
        min_t=min_t,
        is_minor_critical=minor_critical,
        is_subgraph_critical=sub_critical,
        is_induced_subgraph_critical=ind_critical,
        is_one_unique_graph=all(ou),
        conjecture_checks={
            "order": g.n <= 2 ** (value - 1),
            "maxdeg": g.max_degree() <= value - 1,
        },
    )
