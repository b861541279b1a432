"""Exact tree-depth with a certifying witness.

tree_depth(g) follows the recursive characterization: an empty graph has
depth 0, a disconnected graph takes the maximum over its components, and a
connected graph costs 1 plus the best vertex deletion. The recursion is
memoized on vertex-subset bitmasks, with four exact rules:

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
* the scan ends at the first child S - x of depth d >= |S| - 3. Here x
  is not universal in S, for the walk tests each vertex for that before it
  reads the vertex's child, and the solve loop runs after the walk. Let
  k = |S| - 1 - d. At k = 0, S - x is complete and x misses a vertex of
  S, so T = d;
* at k = 1 or 2, T = d + 1 if g[S] holds no member of F_k through x, and
  T = d otherwise: _settle, with the tests below.

The last two rules use each surplus lemma both ways. By the rule before
them, T is d or d + 1 for every child depth d. The surplus-k lemma says
td(S) >= |S| - k iff g[S] holds no induced member of F_k, the list
families.FORBIDDEN_LISTS[k]; F_0 = {2K1}, for td = n iff the graph is
complete. S - x has surplus |S - x| - d = k, so it holds no member of F_k,
and g[S] holds one iff it holds one through x. If it holds none, T >=
|S| - k = d + 1; if it holds one, T <= |S| - k - 1 = d. So the pattern
tests through x, _no_f1_through and _no_f2_through, must be exact in both
directions: a false "pattern found" gives a wrong depth, not only a
longer scan.

The surplus-one lemma, the F_1 case: td(S) >= |S| - 1 iff g[S] has no
induced 3K1 and no induced 2K2, that is, iff the complement of g[S] has
no triangle and no 4-cycle (a 4-cycle with a chord holds a triangle).

* If td(S) <= |S| - 2: while the set is connected, delete the root of an
  optimal forest of it. Each deletion lowers td by exactly one, so the
  surplus |S| - td(S) stays >= 2, and a connected set of two vertices has
  surplus 0, so a disconnected set D with surplus >= 2 is reached. With
  three components, D holds a 3K1. With two, C and C', td(C) >= td(C'):
  if |C'| = 1, then |C| - td(C) >= 1, so C is not complete and two
  non-adjacent vertices of C with C' form a 3K1; if |C'| >= 2, then
  td(C) >= 2, so both components have an edge, and the two edges form an
  induced 2K2.
* Conversely, each deleted vertex adds at most one level, so deleting all
  of S but an induced 3K1 (td 1) or 2K2 (td 2) shows td(S) <= (|S| - 3) + 1
  or (|S| - 4) + 2.

_no_f1_through asks whether g[S] holds a 3K1 or an induced 2K2 through x
in one pass over S - x: x's non-neighbours must form a clique (else x and
two of them form a 3K1), and no neighbour y of x may miss two of them
(else xy and the edge between those two form a 2K2); that is, no vertex
of S - x misses two of x's non-neighbours, counting itself as missed.

The surplus-two lemma, the F_2 case: td(S) >= |S| - 2 iff g[S] has no
induced 4K1, 2K2+K1, P3+K2 or 2K3.

* If td(S) <= |S| - 3, delete optimal roots while the set is connected, as
  above; the surplus stays >= 3, and a disconnected set D with surplus >= 3
  is reached. Let C be a deepest component of D, so td(D) = td(C). With
  four or more components, one vertex of each forms a 4K1. With three, a
  component that is not a clique gives two non-adjacent vertices, and one
  vertex of each other component completes a 4K1. If all three are
  cliques, td(D) = |C| is the largest size, the other two have at least
  three vertices together, so C and one other hold an edge each, and the
  third gives the K1 of a 2K2+K1. With two components, C and C':
  if |C'| = 1, C has surplus >= 2, so by the surplus-one lemma it holds a
  3K1 or a 2K2, and the vertex of C' makes a 4K1 or a 2K2+K1. If C' is
  an edge, C has surplus >= 1 and is not a clique, so, being connected, it
  holds an induced P3, and with C' a P3+K2. If |C'| >= 3 and C' is not a
  clique, C' holds an induced P3 and C, with td(C) >= td(C') >= 2, an
  edge: a P3+K2. If C' is a clique, td(C) >= |C'| >= 3; a C that is not a
  clique holds a P3 to go with an edge of C', and a clique C holds a
  triangle to go with one of C': a P3+K2 or a 2K3.
* Conversely, each of the four patterns P has td(P) = |P| - 3 (1, 2, 2
  and 3), and each deleted vertex adds at most one level, so a pattern in
  g[S] shows td(S) <= (|S| - |P|) + (|P| - 3) = |S| - 3.

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
compares its value with k.

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
that h and g induce alike is solved by g's solver. Any other S starts its
scan with hi = td_g(S + D) - max(1, td_g(D)) in place of 0, when g's memo
holds td_g(S + D); then the scan stops as soon as 1 + min td_h(S - x)
reaches it. The floor holds because td(h[S]) >= td(g[S + D]) -
max(1, td(g[D])):

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
from .graphs import Graph, bits, mask_components

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
        comps = mask_components(self.adj, mask)
        if len(comps) > 1:
            val = max(self.td(c) for c in comps)
        else:
            val = self._td_connected(mask)
        self.memo[mask] = val
        return val

    def _td_connected(self, mask: int, hi: int = 0) -> int:
        """td of a connected subset, given a lower bound ``hi`` on it."""
        size = mask.bit_count()
        adj, memo = self.adj, self.memo
        # best = 1 + min td(S - v) >= td(S) >= max(hi, max td(S - v)), so
        # the scan is done as soon as best <= hi. One walk looks for a
        # universal vertex and reads the children already in the memo; the
        # children it had to skip are solved afterwards, in the same order.
        # The first child of depth >= size - 3 settles td(S) by a surplus
        # test through its vertex.
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
            if depth >= size - 3:
                return _settle(adj, mask, low, depth)
        for child in unsolved:
            depth = self.td(child)
            if depth > hi:
                hi = depth
            if depth + 1 < best:
                best = depth + 1
            if best <= hi:
                return best
            if depth >= size - 3:
                return _settle(adj, mask, mask ^ child, depth)
        return best


def _settle(adj: Sequence[int], mask: int, bit: int, depth: int) -> int:
    """td of a connected subset S, given the depth of its child S - x, where
    x is the vertex ``bit``, not universal in S, and depth >= |S| - 3. With
    k = |S| - 1 - depth, td(S) is depth + 1 if S holds no F_k member through
    x, else depth (module docstring)."""
    k = mask.bit_count() - 1 - depth
    if k == 1 and _no_f1_through(adj, mask, bit) or k == 2 and _no_f2_through(adj, mask, bit):
        return depth + 1
    return depth


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

    def td(self, mask: int) -> int:
        diff = self.diff
        rest = mask & self.changed
        while rest:
            low = rest & -rest
            rest ^= low
            if diff[low.bit_length() - 1] & mask:
                return super().td(mask)
        return self.parent.td(mask)

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
    """n(g) - td(g); hereditary and monotone under induced subgraphs."""
    return g.n - tree_depth(g).value
