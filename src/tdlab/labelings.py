"""Labeling transforms and exhaustive labeling search.

A labeling assigns a positive integer to every vertex; it is feasible when
every path between two vertices with equal labels passes through a higher
label. "Optimal" here means feasible with maximum label at most td(g): the
label budget is td(g) even if not every value in 1..td(g) is used.

t-uniqueness follows the reading: vertex v is t-unique when some optimal
labeling assigns label t to v and to no other vertex; t_uniqueness returns
the least such t (None if no optimal labeling ever isolates v).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import BudgetError
from .graphs import Graph, bits
from .solver import tree_depth, verify_feasible

T_UNIQUE_MAX_N = 10
T_UNIQUE_MAX_TD = 6


def parse_labeling(text: str) -> tuple[int, ...]:
    """Comma-separated integers in vertex-id order."""
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad labeling text {text!r}") from exc


def format_labeling(labels: Sequence[int]) -> str:
    return ",".join(str(c) for c in labels)


def _partial_violation(adj: Sequence[int], labels: list[int], v: int) -> bool:
    # Assigning v can only create violations in components containing v,
    # and a violation among assigned vertices can never be repaired later.
    c = labels[v]
    top = max(labels[: v + 1])
    for level in range(c, top + 1):
        mask = 0
        for w in range(v + 1):
            if labels[w] <= level:
                mask |= 1 << w
        comp = 1 << v
        frontier = comp
        while frontier:
            grown = 0
            for w in bits(frontier):
                grown |= adj[w]
            frontier = grown & mask & ~comp
            comp |= frontier
        count = 0
        for w in bits(comp):
            if labels[w] == level:
                count += 1
                if count >= 2:
                    return True
    return False


def feasible_labelings(
    g: Graph,
    max_label: int,
    allowed: Sequence[Sequence[int]] | None = None,
) -> Iterator[tuple[int, ...]]:
    """All feasible labelings with labels in 1..max_label, in lexicographic
    order of the label array. ``allowed`` optionally restricts the label
    choices per vertex. Backtracking with partial-feasibility pruning; the
    pruning is lossless because partial violations are permanent.
    """
    n = g.n
    if n == 0:
        yield ()
        return
    if max_label <= 0:
        return
    if allowed is None:
        choices = [range(1, max_label + 1)] * n
    else:
        choices = [sorted(set(a) & set(range(1, max_label + 1))) for a in allowed]
    adj = g.adj
    labels = [0] * n

    def go(v: int) -> Iterator[tuple[int, ...]]:
        if v == n:
            yield tuple(labels)
            return
        for c in choices[v]:
            labels[v] = c
            if not _partial_violation(adj, labels, v):
                yield from go(v + 1)
        labels[v] = 0

    yield from go(0)


def iter_optimal_labelings(g: Graph) -> Iterator[tuple[int, ...]]:
    return feasible_labelings(g, tree_depth(g).value)


def enumerate_optimal_labelings(g: Graph, budget: int) -> tuple[list[tuple[int, ...]], bool]:
    """Up to ``budget`` optimal labelings in lexicographic order.

    Returns (labelings, complete); complete is False exactly when the budget
    ran out with more labelings remaining.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    out: list[tuple[int, ...]] = []
    it = iter_optimal_labelings(g)
    for lab in it:
        out.append(lab)
        if len(out) == budget:
            return out, next(it, None) is None
    return out, True


def is_reduced(labels: Sequence[int]) -> bool:
    """Reduced: every repeated label is smaller than every singleton label."""
    counts = Counter(labels)
    repeated = [c for c, k in counts.items() if k > 1]
    single = [c for c, k in counts.items() if k == 1]
    return not repeated or not single or max(repeated) < min(single)


def reduce_labeling(g: Graph, labels: Sequence[int]) -> tuple[int, ...]:
    """Remap so repeated labels become 1..k (ascending by old value) and
    singleton labels continue k+1.. in ascending order. Preserves feasibility
    and the number of distinct labels."""
    labels = tuple(labels)
    check = verify_feasible(g, labels)
    if not check:
        raise ValueError(f"infeasible labeling, violation {check.violation}")
    counts = Counter(labels)
    repeated = sorted(c for c, k in counts.items() if k > 1)
    single = sorted(c for c, k in counts.items() if k == 1)
    remap = {c: i + 1 for i, c in enumerate(repeated)}
    remap.update({c: len(repeated) + i + 1 for i, c in enumerate(single)})
    return tuple(remap[c] for c in labels)


@dataclass(frozen=True)
class IrreducibleCore:
    core: Graph
    core_vertices: tuple[int, ...]
    restricted_labeling: tuple[int, ...]


def irreducible_core(g: Graph, labels: Sequence[int]) -> IrreducibleCore:
    """Induced subgraph on the vertices whose label is shared, under a
    reduced optimal labeling. The core preserves the surplus of the source
    and has tree-depth at most that surplus."""
    labels = tuple(labels)
    check = verify_feasible(g, labels)
    if not check:
        raise ValueError(f"infeasible labeling, violation {check.violation}")
    if max(labels, default=0) > tree_depth(g).value:
        raise ValueError("labeling is not optimal: max label exceeds td")
    if not is_reduced(labels):
        raise ValueError("labeling is not reduced")
    counts = Counter(labels)
    core_vertices = tuple(v for v in range(g.n) if counts[labels[v]] > 1)
    return IrreducibleCore(
        core=g.induced_subgraph(core_vertices),
        core_vertices=core_vertices,
        restricted_labeling=tuple(labels[v] for v in core_vertices),
    )


def standard_labeling_andrasfai(k: int) -> tuple[int, ...]:
    """The closed-form optimal labeling of the k-th Andrasfai graph:
    r(0) = 1, r(x) = 2 for positive x divisible by 3, r(x) = (2x+4)/3 when
    x = 1 mod 3, r(x) = (2x+5)/3 when x = 2 mod 3. Max label is 2k."""
    if k < 1:
        raise ValueError("k must be positive")
    out = []
    for x in range(3 * k - 1):
        if x == 0:
            out.append(1)
        elif x % 3 == 0:
            out.append(2)
        elif x % 3 == 1:
            out.append((2 * x + 4) // 3)
        else:
            out.append((2 * x + 5) // 3)
    return tuple(out)


def t_uniqueness(g: Graph, v: int) -> int | None:
    """Least t such that some optimal labeling assigns t to v uniquely.

    Complete graphs short-circuit to 1 (optimal labelings are injective and
    some one starts at v). Otherwise the exhaustive search is capped at
    n <= 10 and td <= 6; beyond the cap a BudgetError is raised.
    """
    if not 0 <= v < g.n:
        raise ValueError(f"no vertex {v}")
    return _t_uniqueness(g, v, None)


def _t_uniqueness(g: Graph, v: int, value: int | None) -> int | None:
    """t_uniqueness where ``value`` is td(g) if the caller knows it, else None."""
    if g.is_complete():
        return 1
    value = tree_depth(g).value if value is None else value
    if g.n > T_UNIQUE_MAX_N or value > T_UNIQUE_MAX_TD:
        raise BudgetError(
            f"t_uniqueness capped at n <= {T_UNIQUE_MAX_N}, td <= {T_UNIQUE_MAX_TD}"
        )
    everything = range(1, value + 1)
    for t in range(1, value + 1):
        others = [c for c in everything if c != t]
        allowed: list[Sequence[int]] = [others] * g.n
        allowed[v] = [t]
        if next(iter(feasible_labelings(g, value, allowed)), None) is not None:
            return t
    return None
