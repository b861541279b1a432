"""Exact tree-depth with a certifying witness.

tree_depth(g) follows the recursive characterization: an empty graph has
depth 0, a disconnected graph takes the maximum over its components, and a
connected graph costs 1 plus the best vertex deletion. The recursion is
memoized on vertex-subset bitmasks, with three exact rules:

* a subset with a universal vertex v satisfies td(S) = 1 + td(S - v),
  because v's label must differ from every other label in any feasible
  labeling of S, so deleting v first is always optimal. The lowest vertex
  of a connected set of one or two vertices is universal, so this rule
  gives such a set its size as depth;
* the scan over the vertices v of a connected subset S stops once the
  depths td(S - v) seen so far include both T - 1 and T, where T = td(S).
  Every td(S - v) lies in {T - 1, T}: td(S - v) <= T because S - v is a
  subgraph, and T <= 1 + td(S - v) because v can top any forest of S - v.
  So 1 + min td(S - v) >= T >= max td(S - v), and once the running
  minimum plus one meets the running maximum, both equal T. The scan reads
  the children already in the memo first, in ascending order, and solves
  the others afterwards in the same order, so a memo that already shows
  T - 1 and T ends it without a new solve;
* the scan ends at the first child S - x whose surplus k = |S| - 1 - d,
  with d = td(S - x), is at most 2 or at most d. Here x is not universal
  in S, for the walk tests each vertex for that before it reads the
  vertex's child, and the solve loop runs after the walk. By the rule
  before, T is d or d + 1, and _settle decides which by one search
  through x (the settle rule below).

The surplus of a graph is its order less its depth. Deleting a vertex
lowers the order by one and td by at most one, so the surplus drops by 0
or 1: it is monotone under induced subgraphs. Call a graph M of surplus
>= k + 1 minimal when each proper induced subgraph has surplus <= k; then
M has surplus k + 1, and no vertex deletion lowers td(M).

The component lemma: a minimal graph M of surplus k + 1 is a disjoint
union in which at least two components have depth t = td(M), so each of
its components has at most k + 1 vertices.

* A connected graph has a vertex whose deletion lowers its depth, the
  root of an optimal forest, and so does a union in which one component
  alone has depth t: that component's root. So two components of M have
  depth t, and each has at least t vertices. M has t + k + 1 vertices, so
  each component, which misses one of those two, has at most k + 1.
* Conversely, a disjoint union of t + k + 1 vertices with two components
  of depth t is minimal: deleting any vertex leaves one of the two, so td
  stays t and the surplus falls to k.

F_k, the list families.FORBIDDEN_LISTS[k], holds the minimal graphs of
surplus k + 1, so a graph has td <= |S| - k - 1 iff it holds a member of
F_k as an induced subgraph (a least induced subgraph of surplus >= k + 1
is minimal). By the lemma, since 2t <= t + k + 1: F_0 = {2K1}; F_1 =
{3K1, 2K2} (t = 1, 2); F_2 = {4K1, 2K2+K1, P3+K2, 2K3}, where t = 2 takes
K2 and P3, the connected graphs of depth 2 on at most three vertices, and
t = 3 takes K3.

The settle rule: let S be connected, x not universal in S, d = td(S - x)
and k = |S| - 1 - d, the surplus of S - x. Then T = d iff some connected
C through x with |C| <= k + 1 has |C| + |F| - max(td C, td F) >= k + 1,
where F = S - N[C] holds the vertices of S with no neighbour in C.

* (<=) g[C + F] = g[C] + g[F] is an induced subgraph of g[S] of surplus
  >= k + 1, and surplus is monotone, so T <= |S| - k - 1 = d.
* (=>) T = d means g[S] has surplus k + 1, so it holds a minimal induced
  M of surplus k + 1. M contains x, because S - x has surplus k. By the
  lemma x's component C in M has at most k + 1 vertices; the rest of M
  has no vertex in N[C], so it lies in F, and M is an induced subgraph of
  g[C + F].

_certificate looks for such a C. It grows C from {x} by extension sets
(Wernicke, "Efficient detection of network motifs", 2006), so it meets
each connected set through x once: it branches on each vertex w of the
candidate set ext and gives the child the rest of ext plus the neighbours
of w in F. _grow tests each child C + w inside its parent's loop, and
calls itself only for a child that can still grow, in the same depth-first
preorder. C stops growing at k + 1 vertices and once |F| < 2: a larger
C has td >= 2, so it needs |F| >= td C >= 2, and F only shrinks as C
grows. With slack = |C| + |F| - (k + 1), a C is turned down without a
solve when slack is below td of the set it grew from, a lower bound on
td C; td C is solved only when slack < |C|, and td F last. The last
vertex, at |C| = k + 1, is decided with no solve of F, for there
slack = |F| >= td F. Both are strict subsets of S (|C| <= k + 1 < |S|,
since d >= 1, and F misses x), so the recursion answers them exactly and
every memo entry stays exact. C is connected as grown, so its depth is
read from the memo or solved by the scan with no component pass.

A set C' grown from C has slack' <= slack + min(|ext|, k + 1 - |C|). C'
adds vertices of ext, which lie outside F, and vertices of F; each added
vertex raises |C| by one, one from F also leaves F, and |C'| <= k + 1.
C' must have slack' >= td C' >= max(td C, 2), as it is connected with two
or more vertices. So the search drops a branch, and the rest of the
loop, whose ext only shrinks, once that bound falls below max(floor, 2),
floor being the lower bound on td C it holds. On the 54 seed-1 graphs of
the solve-gnp benchmark this bound cut the searches from 128,403 calls
to 80,966, and deciding each child in its parent's loop cut them to
36,332, with the same sets found.

_settle applies the rule. At k = 0, S - x is complete and x misses some
vertex y, so C = {x} and F = {y} give T = d with no search. At k = 1 and
2, S - x holds no member of F_k, so g[S] holds one iff it holds one
through x, and the pattern tests _no_f1_through and _no_f2_through below
answer that; the search would answer the same, but on the n = 7 census
screens it took the census-n7 benchmark's median item from 0.060 to
0.071 ms. At k >= 3, _certificate. Each test must be exact in both
directions: a false "found" gives a wrong depth, not only a longer scan.

The rule holds for every k, but the scan settles only at a child with
k <= 2 or k <= d, that is 2d >= |S| - 1, because the search costs most
where d is small against |S|: with every child settled, one seeded
G(22, m) at p = .15 took 0.67 s in place of 0.014 s, for its searches at
k = 7..9 mostly find no C and walk 1.3 million connected sets in all
(2-core Xeon VM, Python 3.11).

_no_f1_through asks whether g[S] holds a 3K1 or an induced 2K2 through x
in one pass over S - x: x's non-neighbours must form a clique (else x and
two of them form a 3K1), and no neighbour y of x may miss two of them
(else xy and the edge between those two form a 2K2); that is, no vertex
of S - x misses two of x's non-neighbours, counting itself as missed.

_no_f2_through asks whether g[S] holds one of the four through x, when
S - x holds none, by looking at each place x can take. Let far be x's
non-neighbours in S. Where x is the K1 of a 4K1 or a 2K2+K1, the rest is
a 3K1 or a 2K2 in far, so g[far] must hold neither (the surplus-one test
at each vertex of far in turn). Every other place puts a neighbour y of
x next to x in the pattern; let fy be the vertices of far that y misses
too. An xy edge of a 2K2+K1 or a P3+K2 needs an induced K2+K1 or P3 in
fy, so fy must be a clique or edgeless (with no P3 its components are
cliques, and with no K2+K1 an edge leaves no other component). An
edgeless fy has at most two vertices, since far holds no 3K1, and every
remaining place needs an edge in fy. With fy a clique, a P3 x-y-z (z in
far) or y-x-z (z a neighbour of x that misses y) ends a P3+K2 iff z
misses two vertices of fy, an edge; a triangle xyz ends a 2K3 iff z
misses three vertices of fy, a triangle.

Every memo entry is exact; the early exits only leave some subsets unsolved.
This one recursion answers every question; tree_depth_decision(g, k)
compares its value with k. An unsolved subset grows only the component of
its lowest vertex (graphs.mask_component): the whole subset goes to the
scan, and any other takes the larger of that component's depth and the
depth of the rest.

The memo is dense: one bytearray of 2^n bytes per solver, indexed by the
subset mask. A nonempty subset has td >= 1, so 0 means "unsolved", and
every depth is at most n <= MAX_VERTICES = 25, so it fits a byte. A
solver zeroes its whole buffer when it is made (about 0.03 ms at n = 20,
0.5 ms at n = 23 and 18 ms at n = 25 on a 2-core Xeon VM, Python 3.11).

The module keeps the solver of the last graph asked, one entry keyed on
the adjacency rows (_solver_for). tree_depth, tree_depth_decision and the
criticality module's minor tables take their solver from it, so
tree_depth(g) followed by tree_depth_decision(g, td - 1) solves g once; a
minor table given td(g) writes it into that shared memo. At rest one
graph's memo stays alive. A minor table runs one _MinorSolver at a time
on top of it, and a new graph's solver is made while the kept one is
still held, so unless a caller keeps an old solver or table alive, at
most two memos live at once: 2 * 2^25 bytes, 64 MB, at the vertex cap.
Every memo entry is exact whoever writes it, so threads that share the
kept solver, or replace it while another still holds the old one, get
exact answers.

_MinorSolver runs the recursion on a graph h made from g by one
operation: an edge deletion, an edge contraction, or an elimination
elim(g, D), the graph on V - D in which x and y are adjacent when some
path joins them whose inner vertices all lie in D (the neighbourhood of
each component of g[D] becomes a clique, then D is deleted). h stays in
g's vertex numbering with its dropped set D (empty for an edge deletion,
the merged-away vertex for a contraction) out of every mask. A subset S
that h and g induce alike is solved by g's solver, whether it comes to td
or, known to be connected, to _td_grown; one test (_alike) routes both.
So are the sets C and F of an inherited _settle, which asks h's own td.
Any other S starts its scan with hi = td_g(S + D) - max(1, td_g(D)) in
place of 0, when g's memo holds td_g(S + D); then the scan stops as soon
as 1 + min td_h(S - x) reaches it. The floor holds because
td(h[S]) >= td(g[S + D]) - max(1, td(g[D])):

* h[S] = g[S] - uv and h[S] = g[S + v]/uv are single-step minors of g[S]
  and g[S + v], at most one level shallower (proof in the criticality
  module);
* h[S] = elim(g, D)[S], which is elim(g[S + D], D): label g[D] with
  1..td(g[D]) and h[S] above those labels. A path of g[S + D] between two
  equal labels in D leaves D only through higher labels. A path between
  two equal labels in S leaves S only through runs inside one component
  of g[D], each of which h[S] shortcuts by an edge, so it meets a higher
  label in S. D = {v} is the star-clique transform at v, where
  td(g[D]) = 1.

The witness is an elimination forest (parent map, roots = -1) whose
height-plus-one labeling is feasible and uses exactly td(g) labels.
Deterministic tie-breaks: the root of a connected subset is the smallest
vertex id achieving the minimum, and components are processed in ascending
order of smallest vertex.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

from .errors import BudgetError
from .graphs import Graph, bits, mask_component, mask_components

# The one vertex cap; no caller can change it. It also bounds memory: at
# most two memos of 2^n bytes live at once, 64 MB at n = 25 (module docstring).
MAX_VERTICES = 25


@dataclass(frozen=True)
class TreeDepthWitness:
    value: int
    labeling: tuple[int, ...]
    elimination_forest: tuple[int, ...]  # parent vertex per vertex, -1 for roots


class _SubsetSolver:
    """Memoized exact tree-depth over vertex subsets of one graph, given by
    its adjacency rows. Callers take it from _solver_for; the minor solvers
    of a criticality minor table share its instance.
    """

    def __init__(self, adj: Sequence[int]):
        self.adj = adj
        self.memo = bytearray(1 << len(adj))

    def td(self, mask: int) -> int:
        if mask == 0:
            return 0
        cached = self.memo[mask]
        if cached:
            return cached
        comp = mask_component(self.adj, mask)
        if comp == mask:
            val = self._td_connected(mask)
        else:
            val = max(self._td_grown(comp), self.td(mask ^ comp))
        self.memo[mask] = val
        return val

    def _td_grown(self, mask: int) -> int:
        """td of a nonempty subset known to be connected: from the memo, or
        by the scan with no component pass."""
        val = self.memo[mask]
        if not val:
            val = self.memo[mask] = self._td_connected(mask)
        return val

    def _td_connected(self, mask: int, hi: int = 0) -> int:
        """td of a connected subset, given a lower bound ``hi`` on it."""
        size = mask.bit_count()
        adj, memo = self.adj, self.memo
        # best = 1 + min td(S - v) >= td(S) >= max(hi, max td(S - v)), so
        # the scan is done as soon as best <= hi. One walk looks for a
        # universal vertex and reads the children already in the memo; the
        # children it had to skip are solved afterwards, in the same order.
        # The first child S - x whose surplus k = size - 1 - depth is at most
        # 2 or at most its depth, that is depth >= min(size - 3, size // 2),
        # settles td(S) by one search through x.
        settle_from = min(size - 3, size // 2)
        best = size
        unsolved = []
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            child = mask ^ low
            if adj[low.bit_length() - 1] & mask == child:
                return 1 + self.td(child)
            depth = memo[child]
            if not depth:
                unsolved.append(child)
                continue
            if depth > hi:
                hi = depth
            if depth + 1 < best:
                best = depth + 1
            if best <= hi:
                return best
            if depth >= settle_from:
                return self._settle(mask, low, depth)
        for child in unsolved:
            depth = self.td(child)
            if depth > hi:
                hi = depth
            if depth + 1 < best:
                best = depth + 1
            if best <= hi:
                return best
            if depth >= settle_from:
                return self._settle(mask, mask ^ child, depth)
        return best

    def _settle(self, mask: int, bit: int, depth: int) -> int:
        """td of a connected subset S, given the depth of its child S - x,
        where x is the vertex ``bit`` and not universal in S. With
        k = |S| - 1 - depth, td(S) is depth if S has surplus k + 1, which
        some induced subgraph through x then shows, else depth + 1 (module
        docstring)."""
        k = mask.bit_count() - 1 - depth
        if k == 1:
            free = _no_f1_through(self.adj, mask, bit)
        elif k == 2:
            free = _no_f2_through(self.adj, mask, bit)
        else:
            free = k and not self._certificate(mask, bit, k + 1)
        return depth + 1 if free else depth

    def _certificate(self, mask: int, bit: int, need: int) -> int:
        """A connected set C through the vertex ``bit`` of at most ``need``
        vertices such that C and F, the vertices of the subset with no
        neighbour in C, induce a graph of surplus >= ``need``; 0 if there is
        none (module docstring). The search starts from the empty set, whose
        one extension is the vertex."""
        return self._grow(0, bit, mask ^ bit, need, 1, 1)

    def _grow(self, c: int, ext: int, far: int, need: int, floor: int, least: int) -> int:
        """_certificate's search among the connected sets that grow ``c`` by
        vertices of ``ext`` and of the neighbours they bring in from ``far``,
        the subset less N[c]. Each set is met once, and tested in this loop
        before any set grown from it. ``floor`` is a lower bound on td of
        each set; the loop ends once ``ext`` holds fewer than ``least``
        vertices, too few for any set grown from c to pass."""
        size = c.bit_count() + 1  # the size of each set tested here
        room = need - size
        adj = self.adj
        while ext and ext.bit_count() >= least:
            low = ext & -ext
            ext ^= low
            near = adj[low.bit_length() - 1]
            child, rest = c | low, far & ~near
            slack = size + rest.bit_count() - need
            depth = floor
            if slack >= floor:
                if slack < size:
                    depth = self._td_grown(child)
                # with no room left, slack = |F| >= td(F)
                if depth <= slack and (not room or self.td(rest) <= slack):
                    return child
            if not room or not rest & (rest - 1):
                continue  # a larger C has td >= 2 and needs |F| >= 2
            # a larger C grown from child has slack at most
            # slack + min(|ext|, room), and needs slack >= max(depth, 2)
            grow = max(depth, 2) - slack
            more = ext | near & far
            if grow <= room and grow <= more.bit_count():
                found = self._grow(child, more, rest, need, depth, grow)
                if found:
                    return found
        return 0


def _no_f1_through(adj: Sequence[int], mask: int, bit: int) -> bool:
    """Does the subset hold no 3K1 and no induced 2K2 through its vertex
    ``bit``? When the subset less that vertex holds neither, this decides
    td(subset) >= |subset| - 1 (module docstring)."""
    far = mask & ~adj[bit.bit_length() - 1] ^ bit  # the vertex's non-neighbours
    return _each_misses_at_most(adj, mask ^ bit, far, 1)


def _no_f2_through(adj: Sequence[int], mask: int, bit: int) -> bool:
    """Does the subset hold no induced 4K1, 2K2+K1, P3+K2 or 2K3 through its
    vertex ``bit``, x? When the subset less x holds none, this decides
    td(subset) >= |subset| - 2 (module docstring)."""
    x = bit.bit_length() - 1
    far = mask & ~adj[x] ^ bit  # the non-neighbours of x
    rest = far
    while rest.bit_count() > 2:  # a 3K1 or 2K2 needs three vertices
        low = rest & -rest
        if not _no_f1_through(adj, rest, low):
            return False  # x and a 3K1 or 2K2 of far: 4K1 or 2K2+K1
        rest ^= low
    rest = mask & adj[x]
    while rest:
        low = rest & -rest
        rest ^= low
        near_y = adj[low.bit_length() - 1]  # the neighbours of y
        fy = far & ~near_y  # the vertices that miss both x and y
        if not fy & (fy - 1):
            continue  # one vertex at most: no edge for any pattern with xy
        if not _each_misses_at_most(adj, fy, fy, 1):
            if fy.bit_count() > 2:
                return False  # xy and a K2+K1 or P3 of fy: 2K2+K1 or P3+K2
            continue  # fy is two non-adjacent vertices and holds no edge
        # fy is a clique. A P3 x-y-z or y-x-z and an edge of fy off z form a
        # P3+K2; a triangle xyz and a triangle of fy off z form a 2K3. The
        # last two are symmetric in y and z, so z above y suffices there.
        triangle = rest & near_y
        if not (_each_misses_at_most(adj, far & near_y | rest ^ triangle, fy, 1)
                and _each_misses_at_most(adj, triangle, fy, 2)):
            return False
    return True


def _each_misses_at_most(adj: Sequence[int], among: int, within: int, k: int) -> bool:
    """Does each vertex of ``among`` miss at most ``k`` vertices of
    ``within``? A vertex misses itself."""
    while among:
        low = among & -among
        among ^= low
        if (within & ~adj[low.bit_length() - 1]).bit_count() > k:
            return False
    return True


class _MinorSolver(_SubsetSolver):
    """Exact tree-depth of a graph h derived from the parent's graph g by one
    operation, given by h's adjacency rows in g's numbering; the vertices the
    operation removes (bitmask ``dropped``, 0 for an edge deletion) stay out
    of every mask.

    A subset S in which no vertex gains or loses a neighbour inside S has
    h[S] = g[S], so the parent's shared exact td answers it. Any other S is
    solved here, starting from the lower bound
    td_g(S + dropped) - max(1, td_g(dropped)) when the parent memo holds
    td_g(S + dropped) (see the module docstring).
    """

    def __init__(self, parent: _SubsetSolver, adj: Sequence[int], dropped: int = 0):
        super().__init__(adj)
        self.parent, self.dropped = parent, dropped
        self.slack = max(1, parent.td(dropped))
        self.diff = [(a ^ b) & ~dropped for a, b in zip(adj, parent.adj)]
        self.changed = sum(1 << w for w, d in enumerate(self.diff) if d)

    def _alike(self, mask: int) -> bool:
        """Do h and g induce the same graph on the subset?"""
        diff = self.diff
        rest = mask & self.changed
        while rest:
            low = rest & -rest
            rest ^= low
            if diff[low.bit_length() - 1] & mask:
                return False
        return True

    def td(self, mask: int) -> int:
        return self.parent.td(mask) if self._alike(mask) else super().td(mask)

    def _td_grown(self, mask: int) -> int:
        return self.parent._td_grown(mask) if self._alike(mask) else super()._td_grown(mask)

    def _td_connected(self, mask: int, hi: int = 0) -> int:
        known = self.parent.memo[mask | self.dropped]
        return super()._td_connected(mask, known - self.slack if known else hi)


@functools.lru_cache(maxsize=1)
def _solver_for(adj: tuple[int, ...]) -> _SubsetSolver:
    """The solver of the graph with these adjacency rows, kept until a
    graph with other rows is asked (the rule is in the module docstring).
    The vertex cap is checked here, once for every solve."""
    if len(adj) > MAX_VERTICES:
        raise BudgetError(f"solver refuses n={len(adj)} > cap {MAX_VERTICES}")
    return _SubsetSolver(adj)


def tree_depth(g: Graph) -> TreeDepthWitness:
    """Exact tree-depth of g plus a feasible witness labeling and forest."""
    solver = _solver_for(g.adj)
    value = solver.td(g.full_mask())
    parent = [-1] * g.n
    label = [0] * g.n
    # A vertex's parent and label depend only on its component and the
    # vertex above it, so the order in which the stack visits them is free.
    stack = [(g.full_mask(), -1)]
    while stack:
        mask, up = stack.pop()
        for comp in mask_components(g.adj, mask):
            t = solver.td(comp)
            for v in bits(comp):
                if 1 + solver.td(comp ^ (1 << v)) == t:
                    parent[v] = up
                    label[v] = t
                    stack.append((comp ^ (1 << v), v))
                    break
    return TreeDepthWitness(value, tuple(label), tuple(parent))


def tree_depth_decision(g: Graph, k: int) -> bool:
    """Is td(g) <= k? The exact solve decides, on the solver from
    _solver_for."""
    if k < 0:
        raise ValueError("cutoff must be non-negative")
    return _solver_for(g.adj).td(g.full_mask()) <= k


def surplus(g: Graph) -> int:
    """n(g) - td(g); hereditary and monotone under induced subgraphs. The
    exact solve alone, with no witness."""
    return g.n - _solver_for(g.adj).td(g.full_mask())
