"""Independent reference implementations used only by the tests.

Deliberately written from the definitions, with different algorithms than
the package: feasibility by per-pair path search, tree-depth by label
enumeration or by the shortcut-free recursion on vertex sets, isomorphism by
permutation scan, graph6 by direct bit reading, vertex connectivity by
scanning vertex cuts, colour refinement by ranking every vertex's sorted
neighbour colours in every round. ``ref_certificate`` is the subset
solver's certificate search in its recursive form, one call per connected
set it meets, kept to pin the set that the solver's loop returns. The graph
constructions the package does not need, the star-clique transform, the
disjoint union and seeded random regular graphs, are built here from edge
lists.
"""

from __future__ import annotations

import itertools
import random

from tdlab import Graph


def star_clique_transform(g: Graph, v: int) -> Graph:
    """Join every two neighbours of v, then delete v; vertices above v shift
    down by one."""
    nbrs = [u for u in range(g.n) if g.has_edge(u, v)]
    edges = set(g.edges()) | set(itertools.combinations(nbrs, 2))
    return Graph.from_edges(
        g.n - 1, [(a - (a > v), b - (b > v)) for a, b in edges if v not in (a, b)]
    )


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """g followed by h, with h's vertices shifted up by g.n."""
    return Graph.from_edges(g.n + h.n, g.edges() + [(a + g.n, b + g.n) for a, b in h.edges()])


def random_regular(rng: random.Random, n: int, d: int) -> Graph:
    """A d-regular graph on n vertices by the pairing model: n * d endpoint
    copies paired at random, redrawn until no pair is a loop or a repeat."""
    while True:
        ends = [v for v in range(n) for _ in range(d)]
        rng.shuffle(ends)
        edges = {(min(e), max(e)) for e in zip(ends[::2], ends[1::2])}
        if len(edges) == n * d // 2 and all(u != v for u, v in edges):
            return Graph.from_edges(n, sorted(edges))


def regular_corpus() -> list[Graph]:
    """15 seeded random regular graphs for each (n, d) in (8, 3), (8, 4),
    (9, 4), (10, 3), (10, 4) and (10, 5). Color refinement splits no cell of
    a regular graph, so a canonical search on them must individualize."""
    rng = random.Random(2208)
    shapes = ((8, 3), (8, 4), (9, 4), (10, 3), (10, 4), (10, 5))
    return [random_regular(rng, n, d) for n, d in shapes for _ in range(15)]


def ref_feasible(n: int, edges: list[tuple[int, int]], labels) -> bool:
    """Path definition: equal-labeled vertices need a higher label on every
    connecting path. Checked pair by pair with BFS restricted to labels <= c."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for u in range(n):
        for v in range(u + 1, n):
            if labels[u] != labels[v]:
                continue
            c = labels[u]
            seen = {u}
            queue = [u]
            while queue:
                x = queue.pop()
                for y in adj[x]:
                    if labels[y] <= c and y not in seen:
                        if y == v:
                            return False
                        seen.add(y)
                        queue.append(y)
    return True


def ref_tree_depth(n: int, edges: list[tuple[int, int]]) -> int:
    """Least k admitting a feasible labeling from {1..k}; backtracking with
    the path checker, so no shared code with the subset solver."""
    if n == 0:
        return 0
    for k in range(1, n + 1):
        if _exists_labeling(n, edges, k):
            return k
    raise AssertionError("unreachable: n labels always feasible")


def _exists_labeling(n: int, edges: list[tuple[int, int]], k: int) -> bool:
    labels = [0] * n

    def go(v: int) -> bool:
        if v == n:
            return True
        for c in range(1, k + 1):
            labels[v] = c
            if ref_feasible(v + 1, [(a, b) for a, b in edges if a <= v and b <= v], labels[: v + 1]):
                if go(v + 1):
                    return True
        labels[v] = 0
        return False

    return go(0)


def _neighbour_sets(n: int, edges: list[tuple[int, int]]) -> list[set[int]]:
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def _components(nbrs: list[set[int]], vs: frozenset) -> list[frozenset]:
    """Components of the set by DFS, in ascending order of smallest vertex."""
    left, comps = set(vs), []
    while left:
        stack, comp = [min(left)], set()
        while stack:
            x = stack.pop()
            if x not in comp:
                comp.add(x)
                stack.extend(nbrs[x] & left)
        left -= comp
        comps.append(frozenset(comp))
    return comps


def ref_components(n: int, edges: list[tuple[int, int]], vs) -> list[frozenset]:
    """Components of the vertex set by DFS, in ascending order of smallest
    vertex."""
    return _components(_neighbour_sets(n, edges), frozenset(vs))


def ref_vertex_connectivity(n: int, edges: list[tuple[int, int]]) -> int:
    """Fewest vertices whose deletion leaves a disconnected graph, by scanning
    vertex sets in order of size; n - 1 when no deletion does (complete
    graphs, and 0 for one vertex)."""
    nbrs = _neighbour_sets(n, edges)
    for k in range(n - 1):
        for cut in itertools.combinations(range(n), k):
            if len(_components(nbrs, frozenset(range(n)) - set(cut))) > 1:
                return k
    return n - 1


def ref_tree_depth_dp(n: int, edges: list[tuple[int, int]]):
    """The plain recursion on vertex sets, with no shortcuts: td(empty) = 0,
    a disconnected set takes the max over its components, and a connected
    set costs 1 + min over all its vertices v of td(set - v). Returns the
    memoized depth function on frozensets of vertices."""
    nbrs = _neighbour_sets(n, edges)
    memo: dict[frozenset, int] = {}

    def td(vs: frozenset) -> int:
        if not vs:
            return 0
        if vs not in memo:
            comps = _components(nbrs, vs)
            if len(comps) > 1:
                memo[vs] = max(td(c) for c in comps)
            else:
                memo[vs] = 1 + min(td(vs - {v}) for v in vs)
        return memo[vs]

    return td


def ref_witness_dp(n: int, edges: list[tuple[int, int]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(labeling, elimination forest) from the shortcut-free recursion, with
    the tie-breaks the solver documents: components in ascending order of
    smallest vertex, and in each the smallest root that achieves its depth."""
    td, nbrs = ref_tree_depth_dp(n, edges), _neighbour_sets(n, edges)
    parent, label = [-1] * n, [0] * n

    def build(vs: frozenset, up: int) -> None:
        for comp in _components(nbrs, vs):
            t = td(comp)
            v = next(v for v in sorted(comp) if 1 + td(comp - {v}) == t)
            parent[v], label[v] = up, t
            build(comp - {v}, v)

    build(frozenset(range(n)), -1)
    return tuple(label), tuple(parent)


def ref_tree_depth_scan(n: int, edges: list[tuple[int, int]]) -> int:
    """Same value by exhaustive product scan; only sane for n <= 4ish."""
    if n == 0:
        return 0
    for k in range(1, n + 1):
        for labels in itertools.product(range(1, k + 1), repeat=n):
            if ref_feasible(n, edges, labels):
                return k
    raise AssertionError("unreachable")


def ref_decode_graph6(line: str) -> tuple[int, set[tuple[int, int]]]:
    """Straight transcription of the format: order byte, then upper-triangle
    bits (0,1),(0,2),(1,2),(0,3),... packed big-endian six per byte."""
    n = ord(line[0]) - 63
    stream = ""
    for ch in line[1:]:
        stream += format(ord(ch) - 63, "06b")
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    edges = {pairs[idx] for idx, bit in enumerate(stream[: len(pairs)]) if bit == "1"}
    return n, edges


def ref_isomorphic(n1: int, edges1, n2: int, edges2) -> bool:
    if n1 != n2:
        return False
    e1 = {tuple(sorted(e)) for e in edges1}
    e2 = {tuple(sorted(e)) for e in edges2}
    if len(e1) != len(e2):
        return False
    for perm in itertools.permutations(range(n1)):
        if {tuple(sorted((perm[u], perm[v]))) for u, v in e1} == e2:
            return True
    return False


def ref_isomorphism_classes(n: int) -> int:
    """Count isomorphism classes on n vertices by labeled-graph dedup."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seen = set()
    classes = 0
    for bits in range(1 << len(pairs)):
        if bits in seen:
            continue
        classes += 1
        edges = [pairs[idx] for idx in range(len(pairs)) if (bits >> idx) & 1]
        for perm in itertools.permutations(range(n)):
            mapped = 0
            for u, v in edges:
                a, b = sorted((perm[u], perm[v]))
                mapped |= 1 << pairs.index((a, b))
            seen.add(mapped)
    return classes


def ref_refine(nbrs: list[list[int]], colors: list[int], v: int = -1) -> list[int]:
    """Stable colour refinement of ``colors``, after individualizing vertex
    ``v`` when one is given: v keeps its cell's colour, and the rest of that
    cell and every higher cell move up by one. New colour ids are ranked by
    (colour, sorted neighbour colours) over every vertex in every round,
    until a round changes no colour. ``nbrs`` lists each vertex's
    neighbours."""
    if v >= 0:
        c = colors[v]
        colors = [x + 1 if x > c or (x == c and u != v) else x for u, x in enumerate(colors)]
    while True:
        get = colors.__getitem__
        sigs = [(c, *sorted(map(get, row))) for c, row in zip(colors, nbrs)]
        rank = {s: r for r, s in enumerate(sorted(set(sigs)))}
        new = [rank[s] for s in sigs]
        if new == colors:
            return new
        colors = new


def cell_colours(cells: list[int], n: int) -> list[int]:
    """The colour list of a partition given as an ordered list of cell
    bitmasks: vertex u gets the index of its cell."""
    return [next(c for c, cell in enumerate(cells) if cell >> u & 1) for u in range(n)]


def ref_certificate(solver, mask: int, bit: int, need: int) -> int:
    """The certificate search through the vertex ``bit`` of the subset
    ``mask``, one call of _ref_grow per connected set it meets, in the same
    depth-first order as the solver's; depths come from ``solver.td``."""
    near = solver.adj[bit.bit_length() - 1] & mask
    return _ref_grow(solver, bit, near, mask & ~near ^ bit, need, 1)


def _ref_grow(solver, c: int, ext: int, far: int, need: int, floor: int) -> int:
    size = c.bit_count()
    slack = size + far.bit_count() - need
    if slack >= floor:
        if slack < size:
            floor = solver.td(c)
        if floor <= slack and solver.td(far) <= slack:
            return c
    if size == need or not far & (far - 1):
        return 0  # a larger C has td >= 2 and needs |F| >= 2
    # a larger C grown from here has slack at most
    # slack + min(|ext|, need - size), and needs slack >= max(floor, 2)
    least = max(floor, 2) - slack
    if need - size < least:
        return 0
    while ext and ext.bit_count() >= least:
        low = ext & -ext
        ext ^= low
        near = solver.adj[low.bit_length() - 1]
        found = _ref_grow(solver, c | low, ext | near & far, far & ~near, need, floor)
        if found:
            return found
    return 0
