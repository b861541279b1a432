"""Immutable simple graphs on vertex set 0..n-1 with bitmask adjacency rows.

Covers the structural toolkit everything else builds on: minor operations
(edge/vertex deletion, edge contraction), induced subgraphs, complement,
cartesian product, exact canonicalization for small graphs, checked
automorphisms and their orbits, induced-pattern containment, the graph6 /
edge-list text codecs, and the graph6 stream syntax that search and the
CLI read.

``_pairs`` is the one home of the graph6 pair order: the encoder, the
decoder and ``canonical_form`` all read it.

A partition of the vertices, in ``_refine``, ``canonical_form`` and
``automorphisms``, is an ordered list of cells, one bitmask each.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import Graph6Error

GRAPH6_MAX_N = 62
CANONICAL_MAX_N = 10


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_component(adj: Sequence[int], mask: int) -> int:
    """The component of the subgraph induced by ``mask`` that holds its
    lowest vertex, as a bitmask; 0 for the empty mask."""
    comp = frontier = mask & -mask
    while frontier:
        grown = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            grown |= adj[low.bit_length() - 1]
        frontier = grown & mask & ~comp
        comp |= frontier
    return comp


def mask_components(adj: Sequence[int], mask: int) -> list[int]:
    """Connected components of the subgraph induced by ``mask``.

    Returned as bitmasks in ascending order of smallest member vertex.
    """
    comps = []
    while mask:
        comp = mask_component(adj, mask)
        comps.append(comp)
        mask ^= comp
    return comps


class Graph:
    """Simple undirected graph with dense vertex ids 0..n-1.

    Adjacency is one int bitmask per vertex. Instances are value-like and
    treated as immutable: every operation returns a new Graph, so values are
    safe to share and hash.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Sequence[int]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        if len(adj) != n:
            raise ValueError("adjacency length does not match vertex count")
        rows = tuple(adj)
        for v, row in enumerate(rows):
            if row >> n:  # a bit at n or above, or a negative row
                raise ValueError(f"adjacency row {v} references vertices >= {n}")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v, row in enumerate(rows):
            for u in bits(row):
                if not (rows[u] >> v) & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
        self.adj = rows

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, rows)

    # -- basic queries ----------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def max_degree(self) -> int:
        return max((row.bit_count() for row in self.adj), default=0)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, ascending."""
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1)
            for d in bits(row):
                out.append((u, u + 1 + d))
        return out

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def is_connected(self) -> bool:
        full = self.full_mask()
        return mask_component(self.adj, full) == full

    # -- minor operations -------------------------------------------------

    def delete_edge(self, u: int, v: int) -> "Graph":
        if not self.has_edge(u, v):
            raise ValueError(f"no edge ({u}, {v}) to delete")
        rows = list(self.adj)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph(self.n, rows)

    def delete_vertex(self, v: int) -> "Graph":
        """Remove v; vertices above v shift down by one."""
        if not 0 <= v < self.n:
            raise ValueError(f"no vertex {v}")
        return self.induced_subgraph(w for w in range(self.n) if w != v)

    def contract_edge(self, u: int, v: int) -> "Graph":
        """Merge the endpoints of edge (u, v) into the smaller endpoint's slot."""
        if not self.has_edge(u, v):
            raise ValueError(f"no edge ({u}, {v}) to contract")
        u, v = min(u, v), max(u, v)
        rows = list(self.adj)
        for w in bits(rows[v] & ~(1 << u)):
            rows[u] |= 1 << w
            rows[w] |= 1 << u
        return Graph(self.n, rows).delete_vertex(v)

    def induced_subgraph(self, vertices: Iterable[int]) -> "Graph":
        """Subgraph on the given vertices, renumbered in ascending order."""
        keep = sorted(set(vertices))
        for v in keep:
            if not 0 <= v < self.n:
                raise ValueError(f"no vertex {v}")
        pos = {v: i for i, v in enumerate(keep)}
        rows = [0] * len(keep)
        for v in keep:
            for u in bits(self.adj[v]):
                if u in pos:
                    rows[pos[v]] |= 1 << pos[u]
        return Graph(len(keep), rows)

    # -- constructions ----------------------------------------------------

    def complement(self) -> "Graph":
        full = self.full_mask()
        return Graph(self.n, [full & ~self.adj[v] & ~(1 << v) for v in range(self.n)])

    def relabeled(self, perm: Sequence[int]) -> "Graph":
        """New graph with old vertex v renamed to perm[v]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm is not a permutation of the vertex set")
        rows = [0] * self.n
        for v in range(self.n):
            for u in bits(self.adj[v]):
                rows[perm[v]] |= 1 << perm[u]
        return Graph(self.n, rows)

    # -- value semantics --------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()})"


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Box product; vertex (a, b) is numbered a * h.n + b."""
    n = g.n * h.n
    rows = [0] * n
    for a in range(g.n):
        for b in range(h.n):
            i = a * h.n + b
            for b2 in bits(h.adj[b]):
                rows[i] |= 1 << (a * h.n + b2)
            for a2 in bits(g.adj[a]):
                rows[i] |= 1 << (a2 * h.n + b)
    return Graph(n, rows)


# -- graph6 codec ---------------------------------------------------------


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The pairs i < j of n vertices in graph6 order: (0,1), (0,2), (1,2),
    (0,3), .... Every caller caps n at GRAPH6_MAX_N, so the cache holds at
    most 63 tuples."""
    return tuple((i, j) for j in range(1, n) for i in range(j))


def _pair_bits(adj: Sequence[int], order: Sequence[int]) -> str:
    """One '0' or '1' per pair of _pairs, for the graph whose vertex k is
    order[k]: the graph6 body bits of that relabeled graph."""
    rows = [adj[v] for v in order]
    masks = [1 << v for v in order]
    return "".join(["1" if rows[j] & masks[i] else "0" for i, j in _pairs(len(order))])


def _graph6(n: int, pair_bits: str) -> str:
    """The graph6 line of order n: six pair bits to a body byte, the last
    byte padded with zero bits."""
    body = pair_bits + "0" * (-len(pair_bits) % 6)
    return chr(n + 63) + "".join([chr(int(body[k:k + 6], 2) + 63) for k in range(0, len(body), 6)])


def to_graph6(g: Graph) -> str:
    """Encode as a single-line graph6 string (order at most 62)."""
    if g.n > GRAPH6_MAX_N:
        raise Graph6Error(f"graph6 single-byte order supports n <= {GRAPH6_MAX_N}", 0)
    return _graph6(g.n, _pair_bits(g.adj, range(g.n)))


def parse_graph6(line: str) -> Graph:
    """Decode a graph6 line (order at most 62, single-byte order form)."""
    text = line.rstrip("\r\n")
    if not text:
        raise Graph6Error("empty graph6 line", 0)
    c0 = ord(text[0])
    if c0 == 126:
        raise Graph6Error("multi-byte order form (n > 62) not supported", 0)
    if not 63 <= c0 <= 126:
        raise Graph6Error(f"invalid order byte {c0!r}", 0)
    n = c0 - 63
    pairs = _pairs(n)
    need = (len(pairs) + 5) // 6
    if len(text) - 1 < need:
        raise Graph6Error(f"truncated graph6 body, expected {need} bytes", len(text))
    if len(text) - 1 > need:
        raise Graph6Error("trailing bytes after graph6 body", 1 + need)
    for k in range(1, len(text)):
        if not 63 <= ord(text[k]) <= 126:
            raise Graph6Error(f"invalid body byte {ord(text[k])}", k)
    body = "".join(f"{ord(ch) - 63:06b}" for ch in text[1:])
    if "1" in body[len(pairs):]:  # under six padding bits, all in the last byte
        raise Graph6Error("nonzero padding bits", need)
    rows = [0] * n
    for (i, j), bit in zip(pairs, body):
        if bit == "1":
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return Graph(n, rows)


def graph6_lines(lines: Iterable[str]) -> Iterator[str]:
    """Stripped lines of a graph6 stream, without blank and '>>' comment
    lines. The optional '>>graph6<<' header is cut from the front of its
    line, which holds the first graph unless the header stands alone."""
    for line in lines:
        text = line.strip().removeprefix(">>graph6<<")
        if text and not text.startswith(">>"):
            yield text


# -- edge-list codec ------------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse the plain text format: first line ``n m``, then m lines ``u v``."""
    return parse_edge_lines(text.splitlines())


def parse_edge_lines(lines: Iterable[str]) -> Graph:
    """The edge-list format read one line at a time, blank lines skipped.
    The order n is capped as in graph6 before any row is allocated, the edge
    lines are counted, not stored, and each distinct pair is kept once, so
    memory is bounded by n, not by the input. A wrong line count is reported
    before a malformed line, and a malformed line before a bad pair."""
    fields = (ln.split() for ln in lines if ln.strip())
    head = next(fields, None)
    if head is None:
        raise ValueError("empty edge-list input")
    if len(head) != 2:
        raise ValueError("edge-list header must be 'n m'")
    n, m = int(head[0]), int(head[1])
    if n < 0 or m < 0:
        raise ValueError("edge-list header counts must be non-negative")
    if n > GRAPH6_MAX_N:
        raise ValueError(f"edge-list order supports n <= {GRAPH6_MAX_N}")
    pairs: dict[tuple[int, int], None] = {}
    clean = True  # no out-of-range pair or self-loop kept yet; from_edges reports the first
    k = 1
    for k, parts in enumerate(fields, start=2):
        try:
            if len(parts) != 2:
                raise ValueError(f"line {k}: expected 'u v'")
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            k += sum(1 for _ in fields)  # count the lines after the malformed one
            if k - 1 == m:
                raise
            break
        if clean and (u, v) not in pairs:
            pairs[u, v] = None
            clean = 0 <= u < n and 0 <= v < n and u != v
    if k - 1 != m:
        raise ValueError(f"expected {m} edge lines, got {k - 1}")
    return Graph.from_edges(n, pairs)


def to_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count()}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# -- canonical form and automorphisms --------------------------------------


def _refine(adj: Sequence[int], cells: list[int] | None = None, v: int = -1) -> list[int]:
    """Stable colour refinement of a partition of the vertices, given as an
    ordered list of cells, one bitmask each; a vertex's colour is the index
    of its cell. ``None`` stands for the unit partition. Given equitable
    ``cells`` (a result of this function) and a vertex ``v``, v is first
    individualized: its cell becomes {v} followed by the rest of the cell.
    Each round ranks the vertices by (colour, sorted neighbour colours),
    and the rounds stop at the first that splits no cell. The result is a
    new list, independent of the vertex numbering: relabeling the input
    relabels the output. ``cells`` itself is never changed, so a caller
    can refine it again for another v.

    Ranking by colour first keeps every cell in place and splits it into
    the ranks of its members, so only the order inside a cell needs
    computing, and by the lemma below only cells next to a fresh split can
    have one. A member's counts into the kept pieces are packed into one
    integer, first piece highest, so the descending order of these keys is
    the lemma's order.

    Lemma. (a) The first round from the unit colouring ranks the vertices
    by degree. (b) From then on every cell holds vertices of one degree, and
    inside a cell the order by sorted neighbour colours is the
    lexicographic order of the negated neighbour counts into the pieces of
    the cells that split in the previous round, in colour order, leaving
    out the last piece of each. (c) A cell with no member adjacent to a kept
    piece does not split. (d) Individualizing v in an equitable colouring
    splits only v's cell, into {v} and the rest.

    Proof. (a) The signatures (0, 0, ..., 0) differ only in length. (b)
    Cells only split, so they stay inside the degree classes. Two sorted
    tuples of equal length first differ where one holds a colour c that the
    other holds fewer times, with equal counts below c; so the tuple is
    smaller iff its vector of counts per colour is larger at its first
    difference, which is the stated order over all cells. Members of a cell
    had equal signatures a round before, so they agree on their count into
    every cell of that round: into each cell that did not split, and into
    the union of the pieces of each cell that did. Counts that all members
    share do not change the order, and neither does the last piece of a
    split cell: two members have the same count into the union of its
    pieces, so where they first differ a later piece of that cell differs
    too, and the first difference never falls on the last piece. (c)
    Its members all count 0 into every kept piece. (d) The colouring is
    equitable, so the signatures of the previous round split nothing; the
    round after individualization starts from them with v's cell split.
    """
    if cells is None:
        by_degree: dict[int, int] = {}
        for u, row in enumerate(adj):
            d = row.bit_count()
            by_degree[d] = by_degree.get(d, 0) | 1 << u
        cells = [by_degree[d] for d in sorted(by_degree)]
        split = cells[:-1]
    else:
        bit = 1 << v
        c = next(c for c, cell in enumerate(cells) if cell & bit)
        cells, split = cells[:], []
        if cells[c] != bit:
            cells[c:c + 1] = [bit, cells[c] ^ bit]
            split = [bit]
    shift = len(adj).bit_length()  # bits per count: a count is below n
    while split:
        kept, split = split, []
        touched = 0
        for piece in kept:
            while piece:
                low = piece & -piece
                piece ^= low
                touched |= adj[low.bit_length() - 1]
        out: list[int] = []
        for cell in cells:
            if cell & touched and cell & (cell - 1):
                groups: dict[int, int] = {}
                rest = cell
                while rest:
                    low = rest & -rest
                    rest ^= low
                    row = adj[low.bit_length() - 1]
                    key = 0  # the counts into the kept pieces, first piece highest
                    for p in kept:
                        key = key << shift | (row & p).bit_count()
                    groups[key] = groups.get(key, 0) | low
                if len(groups) > 1:
                    pieces = [groups[k] for k in sorted(groups, reverse=True)]
                    out += pieces
                    split += pieces[:-1]
                    continue
            out.append(cell)
        cells = out
    return cells


def _target_cell(cells: list[int]) -> int:
    """The first cell with two or more vertices; 0 when the partition is
    discrete."""
    return next((cell for cell in cells if cell & (cell - 1)), 0)


def canonical_form(g: Graph) -> str:
    """Canonical graph6 string: equal for two graphs iff they are isomorphic.

    Individualization-refinement search for the vertex ordering that
    minimizes the graph6 pair bits (``_pair_bits``) among
    refinement-consistent orderings, so the canonical string is the graph6
    of the least leaf. Orbit pruning keeps highly symmetric graphs
    tractable: a vertex of the target cell is skipped when its closure
    under the automorphisms found so far that fix the prefix pointwise
    meets a vertex already tried there. Exact but capped at n <= 10.
    """
    n = g.n
    if n > CANONICAL_MAX_N:
        raise ValueError(f"canonical_form capped at n <= {CANONICAL_MAX_N}")
    adj = g.adj
    best_key = best_order = None
    autos: list[list[int]] = []

    def search(cells: list[int], prefix: tuple[int, ...]) -> None:
        nonlocal best_key, best_order
        target = _target_cell(cells)
        if not target:
            order = [cell.bit_length() - 1 for cell in cells]
            key = _pair_bits(adj, order)
            if best_key is None or key < best_key:
                best_key, best_order = key, order
            elif key == best_key and order != best_order:
                sigma = [0] * n
                for b, o in zip(best_order, order):
                    sigma[b] = o
                autos.append(sigma)
            return
        tried: set[int] = set()
        for v in bits(target):
            if tried:
                gens = [a for a in autos if all(a[p] == p for p in prefix)]
                if _orbit(v, gens) & tried:
                    continue
            tried.add(v)
            search(_refine(adj, cells, v), prefix + (v,))

    search(_refine(adj), ())
    # search's closure holds search; clearing it frees the search state at
    # return, not at a later cyclic collection
    del search
    return _graph6(n, best_key)


def _orbit(v: int, perms: Sequence[Sequence[int]]) -> set[int]:
    """The orbit of ``v`` under the group that ``perms`` generate."""
    orbit, todo = {v}, [v]
    while todo:
        w = todo.pop()
        for a in perms:
            if a[w] not in orbit:
                orbit.add(a[w])
                todo.append(a[w])
    return orbit


def _greedy_leaf(adj: Sequence[int], cells: list[int], path: list | None = None) -> list[int]:
    """The vertices in cell order at the discrete partition reached from
    the refined ``cells`` by individualizing, at each level, the lowest
    vertex of the target cell. ``path``, when given, receives each level's
    (cells, target cell, vertex)."""
    while target := _target_cell(cells):
        v = (target & -target).bit_length() - 1
        if path is not None:
            path.append((cells, target, v))
        cells = _refine(adj, cells, v)
    return [cell.bit_length() - 1 for cell in cells]


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Generators of a subgroup of Aut(g), each a checked automorphism:
    sigma[v] is the image of v.

    Individualization-refinement without backtracking (McKay and Piperno,
    "Practical graph isomorphism, II", 2014). The first greedy descent
    (``_greedy_leaf``) fixes a leaf. At each level of its path, deepest
    first, every vertex w of the target cell that is not yet in the orbit
    of the path's vertex starts one more greedy descent, and the map from
    the first leaf to the new one is kept when both leaves order g into the
    same graph6 pair bits (``_pair_bits``): then it maps edges onto edges
    and non-edges onto non-edges. All maps found fix the path's vertices above
    their level, so they act on that level's cell, and the orbit test needs
    no filter. At most n descents per level, so the cost is polynomial; a
    descent that misses an automorphism only leaves the subgroup smaller.
    """
    adj = g.adj
    path: list = []
    first = _greedy_leaf(adj, _refine(adj), path)
    key = _pair_bits(adj, first)
    gens: list[tuple[int, ...]] = []
    for cells, target, v in reversed(path):
        orbit = _orbit(v, gens)
        for w in bits(target):
            if w in orbit:
                continue
            leaf = _greedy_leaf(adj, _refine(adj, cells, w))
            if _pair_bits(adj, leaf) == key:
                sigma = [0] * g.n
                for a, b in zip(first, leaf):
                    sigma[a] = b
                gens.append(tuple(sigma))
                orbit = _orbit(v, gens)
    return gens


def _least_in_orbit(size: int, perms: Sequence[Sequence[int]]) -> list[int]:
    """For each of 0..size-1, the least member of its orbit under the group
    that ``perms`` (permutations of 0..size-1) generate."""
    least = list(range(size))
    for x in range(size):
        if least[x] == x:  # x is the least of an orbit not yet met
            for y in _orbit(x, perms):
                least[y] = x
    return least


def orbits(g: Graph) -> tuple[list[int], list[int]]:
    """The least vertex of each vertex's orbit, and the index in
    ``g.edges()`` of the least edge of each edge's orbit, under the group
    that ``automorphisms(g)`` generates. These orbits refine the orbits of
    Aut(g)."""
    gens = automorphisms(g)
    edges = g.edges()
    index: dict[tuple[int, int], int] = {}
    for i, (u, v) in enumerate(edges):
        index[u, v] = index[v, u] = i
    edge_perms = [[index[s[u], s[v]] for u, v in edges] for s in gens]
    return _least_in_orbit(g.n, gens), _least_in_orbit(len(edges), edge_perms)


# -- induced pattern containment ------------------------------------------


def contains_induced(g: Graph, pattern: Graph) -> bool:
    """Does g contain an induced copy of pattern?

    Exact backtracking over injections, pattern vertices in descending
    degree order. A free vertex w of g can take the next pattern vertex
    when its row meets the images placed so far in exactly the images of
    that vertex's placed neighbours: ``g.adj[w] & placed == need``.
    """
    order = sorted(range(pattern.n), key=lambda v: -pattern.degree(v))
    return pattern.n <= g.n and _embeds(g, pattern, order, [])


def _embeds(g: Graph, pattern: Graph, order: list[int], image: list[int]) -> bool:
    """Can the images ``image`` of the first pattern vertices of ``order``
    be extended to an induced embedding of the rest?"""
    if len(image) == pattern.n:
        return True
    row = pattern.adj[order[len(image)]]
    placed = sum(1 << w for w in image)
    need = sum(1 << w for u, w in zip(order, image) if row >> u & 1)
    for w in range(g.n):
        if not placed >> w & 1 and g.adj[w] & placed == need:
            if _embeds(g, pattern, order, image + [w]):
                return True
    return False
