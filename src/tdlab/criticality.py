"""1-uniqueness and the three criticality notions, plus the JSON-friendly
per-graph report.

A vertex is 1-unique iff the star-clique transform at it strictly lowers
tree-depth; the transform turns the open neighborhood into a clique and
deletes the vertex. Minor-criticality only needs single-step minors: if some
deeper minor dropped the depth, monotonicity means a single deletion or
contraction on the way there already did.

Each single-step minor h of g has td(g) - 1 <= td(h) <= td(g), so its depth
drop is 0 or 1. The minor table settles it with one exact solve of h that
starts from the floor td(g) - 1 and reuses g's memo (_MinorSolver in the
solver module). The upper bound is minor-monotonicity. The lower bound, in
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

The mirror rule: a vertex v with td(g - v) = td(g) settles its flag and
every edge uv at it, for none of them lowers the depth. g - v is a
spanning subgraph of the star-clique transform at v and of g/uv (merged
vertex kept as u), and an induced subgraph of g - uv; each of the three
is at least as deep as g - v. Such a v also has min_t None: were v alone
labeled t in an optimal labeling, deleting v and lowering each label
above t by one would label g - v feasibly with td(g) - 1 labels (the map
keeps the order of the labels left, and a path of g - v has none equal
to t). And the vertex deletions give the depth itself: a connected g
has td(g) = 1 + min td(g - v), and that minimum can be taken over one
vertex of each automorphism orbit, so the table reads td(g) from those
depths with no search over the whole vertex set.

Every answer of the table is constant on the orbits of Aut(g). An
automorphism s of g maps g - uv, g/uv, g - v and the star-clique transform
at v onto the same operation at s(u)s(v) or s(v), isomorphic to it (and
g/uv is isomorphic to g/vu, so a contraction asks about an unordered
edge). It maps a labeling f of g onto f(s^-1), feasible with the same
labels, in which s(v) carries v's label, alone when v carried it alone;
so min_t is constant on orbits too. The table asks each single question
once per orbit of the group that graphs.automorphisms(g) generates and
copies the answer to the rest of the orbit. Those generators are checked
automorphisms, so they generate a subgroup of Aut(g), and each of its
orbits lies inside an orbit of Aut(g): the copies are exact even when the
search misses automorphisms, which only costs solves.

So the table has one stage order, which the report, the search's screen
and the single questions all read: the vertex deletions (and with them
td(g) and the vertices that keep it), the 1-unique flags, the edge
deletions, the contractions, each once per orbit and past what the
stages before it settle; then min_t. minor_critical() asks the
deletions and contractions in the same order, at every vertex and edge
with no orbits, for it stops at the first minor that keeps the depth; its
contractions read the flag stage, and a True fills the other stages.

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
g - L - v is a subgraph of elim(g, L + v). So min_t is td(g[L]) + 1 for
the shallowest depth class that holds a passing L, and the order in which
a class is tried cannot change it. The class of t = 2 needs no depth
solve: td(g[L]) = 1 iff L is a nonempty independent set.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Callable, Sequence

from .graphs import Graph, bits, mask_components, orbits
from .solver import MAX_VERTICES, _MinorSolver, _solver_for

T_UNIQUE_MAX_N = 10  # min_t scans the 2^(n-1) subsets of V - v past the flags

# Every (u, v, delta) entry a report's edge tables can hold, made once so
# that kept reports (a search keeps one per distinct hit) share them: 600
# tuples, where each report's own would take most of its memory.
_TRIPLES = {(u, v, d): (u, v, d) for v in range(MAX_VERTICES) for u in range(v) for d in (0, 1)}


class _stage:
    """A lazy stage of _MinorTable: the method runs on the first read and
    its value is kept in the instance dict, which later reads find first.
    An assignment puts a value there without running it. Unlike
    functools.cached_property, it takes no lock."""

    def __init__(self, fn: Callable[[Any], Any]):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, table: Any, owner: type | None = None) -> Any:
        if table is None:
            return self
        value = vars(table)[self.name] = self.fn(table)
        return value


class _MinorTable:
    """Depth drops of the single-step minors of g, its 1-unique flags and
    its vertices' min_t. A minor or star-clique transform h has
    td(h) >= td(g) - 1 (module docstring), so it drops the depth iff its
    exact depth is below td(g); every exact solve can stop at that floor.

    Vertex deletions are exact depths on the parent solver of g. Each edge
    deletion, contraction and elimination runs one _MinorSolver on top of
    it, so the subsets that h shares with g are solved once, in the parent.
    The parent solver comes from _solver_for.

    Every caller reads the same lazy stages, each solved on first use and
    kept, in the order vertex, edge, contraction: keeps (does g - v keep
    td(g)?) and the 1-unique flags, then the edge deletions, then the
    contractions. Each stage asks its question once per orbit of
    automorphisms(g), of vertices or of edges, and copies the answer to the
    rest of the orbit; the orbits too are found on first use. A vertex
    that keeps the depth settles its flag (False), its min_t (None) and
    every edge at it (no drop), and a 1-unique flag settles every
    contraction at it (a drop; module docstring). report() reads the four
    stages and adds min_t.

    td(g), ``value``, is lazy: the first use solves it on the parent
    solver, unless keeps has read it from the vertex deletions first, as
    1 + their least for a connected g. ``value``, when given, must be
    td(g): it seeds the shared memo, as does a depth that keeps reads.
    """

    def __init__(self, g: Graph, value: int | None = None):
        if g.n == 0:
            raise ValueError("criticality is defined for nonempty graphs")
        self.g, self.full, self.solver = g, g.full_mask(), _solver_for(g.adj)
        if value is not None:
            self.value = self.solver.memo[self.full] = value

    @_stage
    def value(self) -> int:
        """td(g), solved by the parent solver on first use."""
        return self.solver.td(self.full)

    @_stage
    def _orbits(self) -> tuple[list[int], list[int], list[tuple[int, int]]]:
        """orbits(g), then the edges that its edge indices number."""
        return (*orbits(self.g), self.g.edges())

    def _depth(self, adj: Sequence[int], dropped: int = 0) -> int:
        return _MinorSolver(self.solver, adj, dropped).td(self.full ^ dropped)

    @_stage
    def keeps(self) -> tuple[bool, ...]:
        """Does deleting v keep td, at each vertex v? td(g - v) is solved
        once per vertex orbit; for a connected g whose depth is not yet
        known, td(g) is 1 + the least of them."""
        depths = _by_orbit(self._orbits[0], lambda v: self.solver.td(self.full ^ 1 << v))
        if "value" not in vars(self) and self.g.is_connected():  # td(g) not solved yet
            self.value = self.solver.memo[self.full] = 1 + min(depths)
        return tuple(d == self.value for d in depths)

    @_stage
    def one_unique(self) -> tuple[bool, ...]:
        """The 1-unique flag of every vertex: False where the deletion keeps
        td, else the star-clique test."""
        keeps = self.keeps
        return _by_orbit(self._orbits[0], lambda v: not keeps[v] and self._unique_at(v))

    @_stage
    def edge_deltas(self) -> tuple[tuple[int, int, int], ...]:
        """The (u, v, drop) entry of every edge deletion."""
        return self._edge_table(self.edge_drops)

    @_stage
    def contraction_deltas(self) -> tuple[tuple[int, int, int], ...]:
        """The (u, v, drop) entry of every edge contraction."""
        return self._edge_table(self.contraction_drops)

    def _edge_table(self, drops: Callable[[int, int], bool]) -> tuple[tuple[int, int, int], ...]:
        """drops(u, v) once per edge orbit, unless u or v keeps the depth."""
        keeps, (_, reps, edges) = self.keeps, self._orbits
        answers = _by_orbit(reps, lambda i: not (keeps[edges[i][0]] or keeps[edges[i][1]])
                            and drops(*edges[i]))
        return tuple(_TRIPLES[u, v, int(d)] for (u, v), d in zip(edges, answers))

    def edge_drops(self, u: int, v: int) -> bool:
        """Does deleting the edge uv lower td?"""
        rows = list(self.g.adj)
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        return self._depth(rows) < self.value

    def contraction_drops(self, u: int, v: int) -> bool:
        """Does contracting the edge uv lower td? u keeps the merged vertex
        and v is dropped; an edge at a 1-unique vertex drops the depth
        without a solve."""
        adj, flags = self.g.adj, self.one_unique
        if flags[u] or flags[v]:
            return True
        rows = list(adj)
        rows[u] = (adj[u] | adj[v]) & ~(1 << u | 1 << v)
        for w in bits(rows[u]):
            rows[w] |= 1 << u
        return self._depth(rows, 1 << v) < self.value

    def _unique_at(self, v: int) -> bool:
        """Does the star-clique transform at v lower td?"""
        return self._eliminated(1 << v) < self.value

    def _eliminated(self, s: int) -> int:
        """td of elim(g, s), the graph on V - s that joins two vertices when
        a path between them runs inside s."""
        adj = self.g.adj
        rows = list(adj)
        for comp in mask_components(adj, s):
            rim = 0
            for w in bits(comp):
                rim |= adj[w]
            rim &= ~s
            for w in bits(rim):
                rows[w] |= rim ^ 1 << w
        return self._depth(rows, s)

    def min_t(self, v: int) -> int | None:
        """Least t at which some optimal labeling gives v, and no other
        vertex, the label t; None if there is none (module docstring). 1 at
        a 1-unique flag. Elsewhere v is t-unique iff some nonempty L, a
        subset of V - v with td(g[L]) = t - 1, has
        td(elim(g, L + v)) <= td(g) - t; L is skipped without an
        elimination when already td(g - L - v), a subgraph of that
        elimination, is too deep. Any order inside a depth class gives the
        same t, so the scan tries t = 2 first, on the independent sets
        (td 1, found by bit tests with no depth solve), largest first; only
        if none passes does it solve the other sets' depths and try them in
        (td(g[L]), -|L|, L) order. Past T_UNIQUE_MAX_N vertices, where the
        2^(n-1) subsets L are too many to scan, such a v reads None as well.
        """
        if self.one_unique[v]:
            return 1
        if self.g.n > T_UNIQUE_MAX_N:
            return None
        adj, td, bit, value = self.g.adj, self.solver.td, 1 << v, self.value
        rest, sub = self.full ^ bit, 0
        independent, deeper = {0}, []
        while sub := (sub - rest) & rest:  # ascending: sub ^ low came earlier
            low = sub & -sub
            if sub ^ low in independent and not adj[low.bit_length() - 1] & sub:
                independent.add(sub)
            else:
                deeper.append(sub)
        independent.remove(0)
        for sub in sorted(independent, key=lambda s: (-s.bit_count(), s)):
            if 1 + td(rest ^ sub) < value and 1 + self._eliminated(sub | bit) < value:
                return 2
        candidates = []
        for sub in deeper:
            depth = td(sub)
            if depth + td(rest ^ sub) < value:
                candidates.append((depth, -sub.bit_count(), sub))
        for depth, _, sub in sorted(candidates):
            if depth + self._eliminated(sub | bit) < value:
                return depth + 1
        return None

    def minor_critical(self) -> bool:
        """Vertex, then edge, then contraction questions, each asked at
        every vertex or edge and stopping at the first minor that keeps the
        depth. A True fills the stages: every single-step minor drops the
        depth, so report() solves none again. The contractions read the
        1-unique flags, which the caller can then read from the table too."""
        g, value, edges = self.g, self.value, self.g.edges()
        if not all(self.solver.td(self.full ^ 1 << v) < value for v in range(g.n)):
            return False
        self.keeps = (False,) * g.n
        if not (all(self.edge_drops(u, v) for u, v in edges)
                and all(self.contraction_drops(u, v) for u, v in edges)):
            return False
        self.edge_deltas = self.contraction_deltas = tuple(_TRIPLES[u, v, 1] for u, v in edges)
        return True

    def report(self) -> CriticalityReport:
        """The report of the table's graph, from its stages, plus min_t
        once per vertex orbit at each vertex whose deletion drops the
        depth."""
        g, keeps = self.g, self.keeps  # first, so that a connected g reads td(g) from it
        ou, value = self.one_unique, self.value
        edge_deltas, contraction_deltas = self.edge_deltas, self.contraction_deltas
        vertex_deltas = tuple(int(not k) for k in keeps)
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
            min_t=_by_orbit(self._orbits[0], lambda v: None if keeps[v] else self.min_t(v)),
            is_minor_critical=minor_critical,
            is_subgraph_critical=sub_critical,
            is_induced_subgraph_critical=ind_critical,
            is_one_unique_graph=all(ou),
            conjecture_checks={
                "order": g.n <= 2 ** (value - 1),
                "maxdeg": g.max_degree() <= value - 1,
            },
        )


def _by_orbit(reps: list[int], ask: Callable[[int], Any]) -> tuple:
    """ask(i) at each least orbit member i, where reps[i] is the least
    member of i's orbit, and the same answer at the rest of the orbit."""
    out: list = []
    for i, r in enumerate(reps):
        out.append(ask(i) if r == i else out[r])  # r < i is answered
    return tuple(out)


def is_one_unique(g: Graph) -> bool:
    """Every vertex 1-unique (vacuously true for the empty graph)."""
    return g.n == 0 or all(_MinorTable(g).one_unique)


def is_minor_critical(g: Graph) -> bool:
    """Every single edge deletion, edge contraction, and vertex deletion
    strictly lowers tree-depth. A contraction at a 1-unique vertex lowers it
    by the module docstring's argument, so only the other contractions are
    solved."""
    return _MinorTable(g).minor_critical()


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
    no t does or when n > T_UNIQUE_MAX_N. The criticality booleans and
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
    return _MinorTable(g).report()
