"""Feasible labelings: the path condition, labeling transforms and
exhaustive labeling search.

A labeling assigns a positive integer to every vertex; it is feasible when
every path between two vertices with equal labels passes through a higher
label. Equivalently, for every label c, no component of the subgraph
induced by the labels <= c holds two vertices labeled c: a path between
two of them inside that subgraph meets no higher label, and a path that
leaves it does. "Optimal" here means feasible with maximum label at most
td(g): the largest allowed label is td(g) even if not every value in
1..td(g) is used.

_first_repeat checks that condition on label classes given as bitmasks,
in ascending label order; verify_feasible and feasible_labelings both call
it. Its ``level`` argument holds the vertices of the lower labels whose
classes a caller has already checked: they count towards every level
subgraph, but their classes are not checked again.

feasible_labelings labels the vertices in id order and keeps one bitmask
per label class. After each assignment it runs _first_repeat on the
labeled prefix, and prunes the prefix if a class repeats. The pruning is
exact: the prefix was feasible before its last vertex was labeled, so a
repeat involves that vertex, and labeling more vertices only grows the
level subgraphs, which never splits the component that holds the repeat.
For the same reason the check starts at the level of the label just
assigned: every level below it holds the same vertices as at the last
check, which passed, and goes in as ``level``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .graphs import Graph, mask_components
from .solver import tree_depth


@dataclass(frozen=True)
class FeasibilityCheck:
    feasible: bool
    violation: tuple[int, int, int] | None = None  # (label, u, v)

    def __bool__(self) -> bool:
        return self.feasible


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
    classes: dict[int, int] = {}
    for v, c in enumerate(labels):
        classes[c] = classes.get(c, 0) | 1 << v
    repeat = _first_repeat(g.adj, sorted(classes.items()))
    if repeat is None:
        return FeasibilityCheck(True)
    c, hits = repeat
    low = hits & -hits
    rest = hits ^ low
    return FeasibilityCheck(False, (c, low.bit_length() - 1, (rest & -rest).bit_length() - 1))


def _first_repeat(
    adj: Sequence[int], classes: Iterable[tuple[int, int]], level: int = 0
) -> tuple[int, int] | None:
    """The path condition on label classes, given as (label, mask) pairs in
    ascending label order: the first (label, hits) where one component of
    the vertices labeled at most label holds the two or more vertices
    ``hits`` of that label's class, components taken by smallest vertex;
    None if no class repeats. Vertices in no class count as unlabeled, but
    ``level`` holds those of lower labels whose classes were checked
    before."""
    for c, cls in classes:
        level |= cls
        if not cls & (cls - 1):
            continue  # a lone vertex labeled c cannot repeat
        for comp in mask_components(adj, level):
            hits = comp & cls
            if hits & (hits - 1):
                return c, hits
    return None


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


def feasible_labelings(g: Graph, max_label: int) -> Iterator[tuple[int, ...]]:
    """All feasible labelings with labels in 1..max_label, in lexicographic
    order of the label array. Backtracking with the pruning rule of the
    module docstring.
    """
    return _extensions(g.adj, max_label, (), [0] * (max_label + 1))


def _extensions(
    adj: Sequence[int], max_label: int, labels: tuple[int, ...], cls: list[int]
) -> Iterator[tuple[int, ...]]:
    """The feasible labelings that extend the feasible prefix ``labels``,
    in lexicographic order; ``cls[c]`` is the mask of the prefix's vertices
    labeled c."""
    v = len(labels)
    if v == len(adj):
        yield labels
        return
    for c in range(1, max_label + 1):
        cls[c] |= 1 << v
        if _first_repeat(adj, enumerate(cls[c:], c), sum(cls[:c])) is None:
            yield from _extensions(adj, max_label, labels + (c,), cls)
        cls[c] ^= 1 << v


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
