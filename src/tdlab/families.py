"""Generators for the graph families under study and the forbidden-subgraph
machinery for small surplus.

F_k is the minimal forbidden-induced-subgraph list characterizing
td(g) >= n - k: a graph on n vertices satisfies the bound iff it contains no
member of F_k as an induced subgraph (implemented for k = 0, 1, 2). Its
members are the minimal graphs of surplus k + 1, which the component lemma
in the solver docstring describes.
"""

from __future__ import annotations

from .graphs import Graph, cartesian_product, contains_induced

# pattern graphs as edge-list constants: name -> (n, edges)
PATTERNS: dict[str, tuple[int, list[tuple[int, int]]]] = {
    "2K1": (2, []),
    "3K1": (3, []),
    "4K1": (4, []),
    "2K2": (4, [(0, 1), (2, 3)]),
    "2K2+K1": (5, [(0, 1), (2, 3)]),
    "P3+K2": (5, [(0, 1), (1, 2), (3, 4)]),
    "2K3": (6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]),
}

# F_k for k = 0, 1, 2. By the component lemma (solver module docstring), F_k
# holds the disjoint unions of t + k + 1 vertices in which at least two
# components have the greatest depth t; each component has at most k + 1.
FORBIDDEN_LISTS: dict[int, tuple[str, ...]] = {
    0: ("2K1",),
    1: ("3K1", "2K2"),
    2: ("4K1", "2K2+K1", "P3+K2", "2K3"),
}

def pattern(pattern_id: str) -> Graph:
    if pattern_id not in PATTERNS:
        raise ValueError(f"unknown pattern {pattern_id!r}")
    n, edges = PATTERNS[pattern_id]
    return Graph.from_edges(n, edges)


def complete(n: int) -> Graph:
    if n < 0:
        raise ValueError("n must be non-negative")
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def cycle_complement(n: int) -> Graph:
    return cycle(n).complement()


def g4k(k: int) -> Graph:
    """Cycle complement on n = 4k vertices minus alternate antipodal edges.

    Construction stated on vertices 1..n: delete edges {2j, 2j+2k} for
    j = 1..k. Here vertices are 0-based, so the deleted edges are
    {2j-1, 2j-1+2k}: half of the antipodal pairs, alternating around the
    cycle. (Figure captions elsewhere index this family by k, so the graph
    called G_3 in a figure is the n = 12 member here.)

    td is n - 1 for every k, but the graph is subgraph-critical only for
    k = 2 and 3: for k >= 4 an edge uv can go without lowering td exactly
    when the complement plus uv keeps girth >= 5 (32 edges for k = 4, 80
    for k = 5).
    """
    if k < 2:
        raise ValueError("g4k needs k >= 2")
    g = cycle_complement(4 * k)
    for j in range(1, k + 1):
        g = g.delete_edge(2 * j - 1, 2 * j - 1 + 2 * k)
    return g


def k_net(k: int) -> Graph:
    """Clique on 0..k-1 plus one pendant per clique vertex (pendant of i is
    k + i). Tree-depth k + 1."""
    if k < 1:
        raise ValueError("k_net needs k >= 1")
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges.extend((i, k + i) for i in range(k))
    return Graph.from_edges(2 * k, edges)


def clique_prism(a: int) -> Graph:
    """Cartesian product of a complete graph with one edge; vertex (i, side)
    is numbered 2i + side. Tree-depth ceil(3a/2)."""
    if a < 1:
        raise ValueError("clique_prism needs a >= 1")
    return cartesian_product(complete(a), complete(2))


def h_graph(n: int) -> Graph:
    """Complete graph on n vertices with every edge at one vertex subdivided.

    Vertex 0 is the hub, 1..n-1 the subdivision vertices, and n..2n-2 the
    remaining clique; subdivision vertex i sits between the hub and clique
    vertex i + n - 1. The n = 3 member is the five-cycle.
    """
    if n < 3:
        raise ValueError("h_graph needs n >= 3")
    edges = [(0, i) for i in range(1, n)]
    edges.extend((i, i + n - 1) for i in range(1, n))
    edges.extend((i, j) for i in range(n, 2 * n - 1) for j in range(i + 1, 2 * n - 1))
    return Graph.from_edges(2 * n - 1, edges)


def andrasfai(k: int) -> Graph:
    """k-th Andrasfai graph: vertices 0..3k-2, edges between integers whose
    difference is 1 mod 3. k-regular, k-connected, triangle-free circulant;
    tree-depth 2k."""
    if k < 1:
        raise ValueError("andrasfai needs k >= 1")
    n = 3 * k - 1
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if (j - i) % 3 == 1]
    return Graph.from_edges(n, edges)


# family name -> builder of the member with the given parameter; the
# "pattern" family is pattern(), which takes a pattern id instead
FAMILIES = {
    "complete": complete,
    "cycle": cycle,
    "path": path,
    "cycle_complement": cycle_complement,
    "g4k": g4k,
    "k_net": k_net,
    "clique_prism": clique_prism,
    "h_graph": h_graph,
    "andrasfai": andrasfai,
}


def fk_free(g: Graph, k: int) -> bool:
    """True when g avoids every member of F_k as an induced subgraph, which
    decides td(g) >= n - k without the solver."""
    if k not in FORBIDDEN_LISTS:
        raise ValueError(f"forbidden list implemented for k in {sorted(FORBIDDEN_LISTS)}")
    return not any(contains_induced(g, pattern(p)) for p in FORBIDDEN_LISTS[k])
