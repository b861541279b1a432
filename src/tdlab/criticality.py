"""1-uniqueness and the three criticality notions, plus the JSON-friendly
per-graph report.

A vertex is 1-unique iff the star-clique transform at it strictly lowers
tree-depth; the transform turns the open neighborhood into a clique and
deletes the vertex. Minor-criticality only needs single-step minors: if some
deeper minor dropped the depth, monotonicity means a single deletion or
contraction on the way there already did.

Each single-step minor h of g has td(g) - 1 <= td(h) <= td(g), so its depth
drop is 0 or 1. The minor table settles it with one exact solve of h that
starts from the floor td(g) - 1 and reuses g's memo (see the solver
module). The upper bound is minor-monotonicity. The lower bound, in
elimination forests (every edge joins an ancestor and a descendant; depth =
number of levels):

* h = g - v: v as a new root over a forest of h gives a forest of g;
* h = g - uv: so does u over a forest of g - u, a subgraph of h;
* h = g/uv: split the merged node w of a forest of h into the chain u -> v,
  u in w's place and w's children below v. A neighbour of u or v was one
  of w, so it is an ancestor of u or a descendant of v, and uv is a
  parent-child pair; only paths through w grow, by one level.

The star-clique transform h of g at v is not a minor and can raise the depth
(the star K(1,3) becomes K3), but the same floor holds: h contains g - v, so
v as a new root over a forest of h gives a forest of g. The 1-uniqueness
test is the same exact solve as a minor's, asking whether td(h) < td(g).

So a 1-unique vertex v settles the minors at it: g - v and g/uv (merged
vertex kept as u) are subgraphs of h on V - v, since h keeps every edge of
g - v and u's new neighbours N(v) - u lie in the clique on N(v).
Hence td(g/uv) <= td(h) < td(g), and likewise when u is 1-unique.

t-uniqueness follows the reading: v is t-unique when some optimal labeling
(feasible, labels at most td(g)) gives v the label t and no other vertex
that label; min_t is the least such t, None if there is none. Write
elim(g, S) for the graph on V - S that joins x and y when some path between
them runs inside S (the solver module). Then v is t-unique iff some subset
L of V - v has td(g[L]) <= t - 1 and td(elim(g, L + v)) <= td(g) - t; this
is the path lemma of the elimination game (Rose, Tarjan and Lueker, 1976).

* Only if: let L be the vertices labeled below t and U those labeled above
  t. The labeling restricted to L is feasible, so td(g[L]) <= t - 1. On U,
  the labels minus t label elim(g, L + v) with 1..td(g) - t: a path of it
  between two equal labels expands, edge by edge, into a walk of g whose
  added vertices are labeled at most t, below both ends. A path of g
  inside that walk meets a higher label, and only a vertex of U, which is
  on the eliminated graph's path, can carry it.
* If: label L by a labeling of g[L] in 1..t - 1, v by t, and U = V - L - v
  by t plus a labeling of elim(g, L + v) in 1..td(g) - t. A path of g
  between two equal labels below t meets a higher label inside L, by the
  labeling of g[L], or leaves L through one. A path between two equal
  labels above t leaves U only through runs inside one component of
  g[L + v], each of which the eliminated graph shortcuts by an edge, so it
  meets a higher label in U. The label t is v's alone.

L = {} is the star-clique test, so min_t is 1 exactly at the one_unique
flags. A larger t needs td(g[L]) = t - 1 exactly, since a shallower L
already passes at a smaller t, and td(g - L - v) <= td(g) - t, since
g - L - v is a subgraph of elim(g, L + v).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any

from .graphs import Graph
from .solver import _MinorTable


def is_one_unique(g: Graph) -> bool:
    """Every vertex 1-unique (vacuously true for the empty graph)."""
    return g.n == 0 or all(_MinorTable(g).one_unique())


def is_minor_critical(g: Graph) -> bool:
    """Every single edge deletion, edge contraction, and vertex deletion
    strictly lowers tree-depth. A contraction at a 1-unique vertex lowers it
    by the module docstring's argument, so only the other contractions are
    solved."""
    return _minor_critical(_MinorTable(g))


def _minor_critical(table: _MinorTable) -> bool:
    """Edge, then vertex, then contraction stage, stopping at the first minor
    that keeps the depth. The contraction stage first solves the table's
    1-unique flags, which the caller can then read from the table, and
    solves only the edges that the flags do not settle."""
    return (
        all(d for _, _, d in table.edge_deletions())
        and all(table.vertex_deletions())
        and all(d for _, _, d in table.contractions())
    )


def critical_spanning_subgraph(g: Graph) -> Graph:
    """Greedy fixed point of depth-preserving edge deletion: one pass over
    the edges in ascending (u, v) order, deleting each edge whose removal
    keeps tree-depth unchanged in the graph left so far.

    The pass ends subgraph-critical, and it deletes the same edges as
    restarting the scan after every deletion would: an edge f that was kept
    stays needed. A later deletion leaves a subgraph H of the graph G in
    which f was kept, with td(H) = td(G), and td(H - f) <= td(G - f) <
    td(G) by monotonicity.
    """
    if g.n == 0:
        return g
    table = _MinorTable(g)
    for u, v in g.edges():
        if not table.edge_drops(u, v):
            table = _MinorTable(table.g.delete_edge(u, v), table.value)
    return table.g


@dataclass(frozen=True)
class CriticalityReport:
    """Everything the search pipeline records per graph.

    Deltas are td(g) minus the depth after the operation. min_t is 1
    exactly at the one_unique flags. Any other entry is the least t at
    which an optimal labeling gives the vertex a unique label, or None when
    no t does or when n > solver.T_UNIQUE_MAX_N. The criticality booleans and
    one_unique flags are always exact.
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
        # not asdict: its deep copy doubles the JSON time of a search's hits
        return {f.name: getattr(self, f.name) for f in fields(self)}


def criticality_report(g: Graph) -> CriticalityReport:
    """Every answer about g from one minor table; ValueError on the empty
    graph."""
    return _report(_MinorTable(g))


def _report(table: _MinorTable) -> CriticalityReport:
    """The report of the table's graph, from every stage of the table."""
    g, value = table.g, table.value
    edge_deltas = tuple(table.edge_deletions())
    contraction_deltas = tuple(table.contractions())
    vertex_deltas = tuple(table.vertex_deletions())
    ou = table.one_unique()
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
        min_t=tuple(map(table.min_t, range(g.n))),
        is_minor_critical=minor_critical,
        is_subgraph_critical=sub_critical,
        is_induced_subgraph_critical=ind_critical,
        is_one_unique_graph=all(ou),
        conjecture_checks={
            "order": g.n <= 2 ** (value - 1),
            "maxdeg": g.max_degree() <= value - 1,
        },
    )
