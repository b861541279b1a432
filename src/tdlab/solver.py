"""Exact tree-depth with a certifying witness.

tree_depth(g) follows the recursive characterization: an empty graph has
depth 0, a disconnected graph takes the maximum over its components, and a
connected graph costs 1 plus the best vertex deletion. The recursion is
memoized on vertex-subset bitmasks, with three exact shortcuts:

* a connected subset of size <= 2 has depth equal to its size;
* a subset with a universal vertex v satisfies td(S) = 1 + td(S - v),
  because v's label must differ from every other label in any feasible
  labeling of S, so deleting v first is always optimal;
* the scan over the vertices v of a connected subset S stops once the
  depths td(S - v) seen so far include both T - 1 and T, where T = td(S).
  Every td(S - v) lies in {T - 1, T}: td(S - v) <= T because S - v is a
  subgraph, and T <= 1 + td(S - v) because v can top any forest of S - v.
  So 1 + min td(S - v) >= T >= max td(S - v), and once the running
  minimum plus one meets the running maximum, both equal T.

Every memo entry is exact; the early exit only leaves some subsets unsolved.

The witness is an elimination forest (parent map, roots = -1) whose
height-plus-one labeling is feasible and uses exactly td(g) labels.
Deterministic tie-breaks: the root of a connected subset is the smallest
vertex id achieving the minimum, and components are processed in ascending
order of smallest vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import BudgetError
from .graphs import Graph, bits, mask_components

MAX_VERTICES = 25


@dataclass(frozen=True)
class TreeDepthWitness:
    value: int
    labeling: tuple[int, ...]
    elimination_forest: tuple[int, ...]  # parent vertex per vertex, -1 for roots


@dataclass(frozen=True)
class FeasibilityCheck:
    feasible: bool
    violation: tuple[int, int, int] | None = None  # (label, u, v)

    def __bool__(self) -> bool:
        return self.feasible


class _SubsetSolver:
    """Memoized exact tree-depth over vertex subsets of one graph.

    One instance per tree_depth/tree_depth_decision call or minor table (whose
    child solvers share it); no state is shared across calls, so concurrent
    use on different graphs is safe.
    """

    def __init__(self, g: Graph):
        self.adj = g.adj
        self.memo: dict[int, int] = {}
        self.decision_memo: dict[tuple[int, int], bool] = {}

    def td(self, mask: int) -> int:
        if mask == 0:
            return 0
        cached = self.memo.get(mask)
        if cached is not None:
            return cached
        comps = mask_components(self.adj, mask)
        if len(comps) > 1:
            val = max(self.td(c) for c in comps)
        else:
            val = self._td_connected(mask)
        self.memo[mask] = val
        return val

    def _td_connected(self, mask: int) -> int:
        size = mask.bit_count()
        if size <= 2:
            return size
        adj, memo = self.adj, self.memo
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            if adj[low.bit_length() - 1] & mask == mask ^ low:
                return 1 + self.td(mask ^ low)
        # best = 1 + min td(S - v) >= td(S) >= max td(S - v) = hi, so the
        # scan is done as soon as best <= hi.
        best, hi = size, 0
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            child = mask ^ low
            depth = memo.get(child)
            if depth is None:
                depth = self.td(child)
            if depth + 1 < best:
                best = depth + 1
            if depth > hi:
                hi = depth
            if best <= hi:
                break
        return best

    def td_le(self, mask: int, k: int) -> bool:
        """Decision form with cutoff: is td of the subset at most k?"""
        if mask.bit_count() <= k:
            return True
        if k <= 0:
            return False
        exact = self.memo.get(mask)
        if exact is not None:
            return exact <= k
        key = (mask, k)
        cached = self.decision_memo.get(key)
        if cached is not None:
            return cached
        adj = self.adj
        comps = mask_components(adj, mask)
        if len(comps) > 1:
            out = all(self.td_le(c, k) for c in comps)
        else:
            out = False
            rest = mask
            while rest:
                low = rest & -rest
                rest ^= low
                if adj[low.bit_length() - 1] & mask == mask ^ low:
                    out = self.td_le(mask ^ low, k - 1)
                    break
            else:
                memo = self.memo
                rest = mask
                while rest:
                    low = rest & -rest
                    rest ^= low
                    child = mask ^ low
                    depth = memo.get(child)
                    if depth is None:
                        out = self.td_le(child, k - 1)
                    else:
                        out = depth < k
                    if out:
                        break
        self.decision_memo[key] = out
        return out


class _EdgeDeletedSolver(_SubsetSolver):
    """Decision solver for g - uv on top of the solver of g. A subset missing
    u or v induces the same graph in both, so the parent's exact (and shared)
    td answers it. A subset holding both loses at most one level, so a parent
    depth already memoized answers it unless it is exactly k + 1."""

    def __init__(self, parent: _SubsetSolver, g: Graph, u: int, v: int):
        super().__init__(g.delete_edge(u, v))
        self.parent, self.both = parent, (1 << u) | (1 << v)

    def td_le(self, mask: int, k: int) -> bool:
        if mask & self.both != self.both:
            return mask.bit_count() <= k or self.parent.td(mask) <= k
        known = self.parent.memo.get(mask)
        if known is not None and known != k + 1:
            return known <= k
        return super().td_le(mask, k)


class _MinorTable:
    """Depth drops of the single-step minors of g, as three lazy stages. Each
    drop is 0 or 1 (proof in the criticality module), so each is a decision.

    Vertex deletions ask the parent solver of g. Its exact solve of a
    connected g without a universal vertex memoizes every g - v only when g is
    vertex-critical; otherwise its scan stops once it has seen a drop of 1 and
    a drop of 0, and the later deletions fall back to the parent's td_le.
    Edge deletions run on the parent through _EdgeDeletedSolver; contractions
    are one cutoff decision each. Given ``value`` = td(g), the parent only
    solves the subsets it is asked about.
    """

    def __init__(self, g: Graph, value: int | None = None, max_vertices: int = MAX_VERTICES):
        self.g, self.solver = g, _SubsetSolver(g)
        if value is None:
            if g.n == 0:
                raise ValueError("criticality is defined for nonempty graphs")
            _check_budget(g, max_vertices)
            value = self.solver.td(g.full_mask())
        self.value = value

    def edge_deletions(self) -> Iterator[tuple[int, int, int]]:
        g, k = self.g, self.value - 1
        for u, v in g.edges():
            yield u, v, int(_EdgeDeletedSolver(self.solver, g, u, v).td_le(g.full_mask(), k))

    def vertex_deletions(self) -> Iterator[int]:
        for v in range(self.g.n):
            yield int(self.solver.td_le(self.g.full_mask() ^ (1 << v), self.value - 1))

    def contractions(
        self, edges: Iterable[tuple[int, int]] | None = None
    ) -> Iterator[tuple[int, int, int]]:
        for u, v in self.g.edges() if edges is None else edges:
            yield u, v, int(tree_depth_decision(self.g.contract_edge(u, v), self.value - 1))


def _check_budget(g: Graph, max_vertices: int) -> None:
    cap = min(max_vertices, MAX_VERTICES)
    if g.n > cap:
        raise BudgetError(f"solver refuses n={g.n} > cap {cap}")


def tree_depth(g: Graph, max_vertices: int = MAX_VERTICES) -> TreeDepthWitness:
    """Exact tree-depth of g plus a feasible witness labeling and forest."""
    _check_budget(g, max_vertices)
    solver = _SubsetSolver(g)
    value = solver.td(g.full_mask())
    parent = [-1] * g.n
    label = [0] * g.n

    def build(mask: int, up: int) -> None:
        for comp in mask_components(solver.adj, mask):
            t = solver.td(comp)
            for v in bits(comp):
                if 1 + solver.td(comp ^ (1 << v)) == t:
                    parent[v] = up
                    label[v] = t
                    build(comp ^ (1 << v), v)
                    break

    build(g.full_mask(), -1)
    return TreeDepthWitness(value, tuple(label), tuple(parent))


def tree_depth_decision(g: Graph, k: int, max_vertices: int = MAX_VERTICES) -> bool:
    """Is td(g) <= k? Same recursion as tree_depth but pruned by the cutoff."""
    if k < 0:
        raise ValueError("cutoff must be non-negative")
    _check_budget(g, max_vertices)
    solver = _SubsetSolver(g)
    return solver.td_le(g.full_mask(), k)


def surplus(g: Graph, max_vertices: int = MAX_VERTICES) -> int:
    """n(g) - td(g); hereditary and monotone under induced subgraphs."""
    return g.n - tree_depth(g, max_vertices).value


def verify_feasible(g: Graph, labels) -> FeasibilityCheck:
    """Check the path condition: for every label c, no component of the
    subgraph induced by labels <= c contains two vertices labeled exactly c.

    The reported violation is the first in deterministic order: ascending
    label, then components by smallest vertex, then the two smallest
    offending vertices.
    """
    labels = tuple(labels)
    if len(labels) != g.n:
        raise ValueError(f"labeling length {len(labels)} != n {g.n}")
    if any(c < 1 for c in labels):
        raise ValueError("labels must be positive integers")
    for c in sorted(set(labels)):
        mask = 0
        for v, lv in enumerate(labels):
            if lv <= c:
                mask |= 1 << v
        for comp in mask_components(g.adj, mask):
            hits = [v for v in bits(comp) if labels[v] == c]
            if len(hits) >= 2:
                return FeasibilityCheck(False, (c, hits[0], hits[1]))
    return FeasibilityCheck(True)
