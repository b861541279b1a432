"""Replication ledger: the numbered end-to-end checks behind the package.

Each criterion recomputes a published fact from scratch through the public
API, appends one string per failure to the list it is handed, and returns a
stable one-line detail. run_criterion owns the verdict: the criterion passes
when the list stays empty, and a failing line ends with '; failed:' and the
first five failures. ``full`` runs the complete parameter ranges;
``quick`` caps each range one notch lower (the main-search criterion
instead screens a fixed small stream, because one order lower the hit set
would be empty by theorem).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterator

from .criticality import (
    critical_spanning_subgraph,
    criticality_report,
    is_minor_critical,
    is_one_unique,
)
from .families import (
    andrasfai,
    clique_prism,
    complete,
    cycle,
    cycle_complement,
    fk_free,
    g4k,
    h_graph,
    k_net,
)
from .graphs import Graph, canonical_form, to_graph6
from .labelings import (feasible_labelings, irreducible_core, is_reduced, reduce_labeling,
                        standard_labeling_andrasfai, verify_feasible)
from .search import SearchJob, enumerate_graphs, run_search
from .solver import surplus, tree_depth


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    title: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.cid}: {self.title} -- {self.detail}"


def _direct_min_t(g: Graph, value: int) -> tuple[int | None, ...]:
    """Each vertex's least t such that some labeling in 1..value, ``value``
    = td(g), gives it the label t and no other vertex that label, or None:
    one scan of those labelings, independent of the minor table's
    elimination kernel, with no cap."""
    best = [value + 1] * g.n
    for labels in feasible_labelings(g, value):
        for v, t in enumerate(labels):
            if t < best[v] and labels.count(t) == 1:
                best[v] = t
    return tuple(t if t <= value else None for t in best)


def _witness_sound(g: Graph) -> bool:
    w = tree_depth(g)
    if not verify_feasible(g, w.labeling):
        return False
    if g.n == 0:
        return w.value == 0 and w.labeling == () and w.elimination_forest == ()
    if max(w.labeling) != w.value:
        return False
    parent = w.elimination_forest
    top = [0] * g.n
    for v, p in enumerate(parent):
        if p != -1:
            top[p] = max(top[p], w.labeling[v])
    # each label is one above its children's highest, so labels rise along
    # parent pointers and the forest has no cycle: the walks below end
    if any(label != 1 + t for label, t in zip(w.labeling, top)):
        return False

    def below(u: int, v: int) -> bool:
        # v is an ancestor of u iff the walk up from u first reaches a label
        # of at least v's at v itself
        x = parent[u]
        while x != -1 and w.labeling[x] < w.labeling[v]:
            x = parent[x]
        return x == v

    return all(below(u, v) or below(v, u) for u, v in g.edges())


def _graphs_upto(n_max: int) -> Iterator[Graph]:
    for n in range(1, n_max + 1):
        yield from enumerate_graphs(n)


def _random_graph(rng: random.Random) -> Graph:
    n = rng.randint(1, 9)
    p = rng.choice((0.2, 0.35, 0.5, 0.65, 0.8))
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def _c1_andrasfai_depth(full: bool, bad: list[str]) -> str:
    k_max = 8 if full else 4
    for k in range(1, k_max + 1):
        g = andrasfai(k)
        if tree_depth(g).value != 2 * k:
            bad.append(f"td(And({k}))")
        if tree_depth(g.delete_vertex(0)).value != 2 * k - 1:
            bad.append(f"td(And({k})-v)")
        labels = standard_labeling_andrasfai(k)
        if not verify_feasible(g, labels) or max(labels) != 2 * k:
            bad.append(f"standard labeling of And({k})")
    return (f"td=2k and td-after-deletion=2k-1 for k=1..{k_max}; the standard labeling is feasible "
            "with max label 2k, so td<=2k with no solve")


def _c2_andrasfai_critical(full: bool, bad: list[str]) -> str:
    k_max = 8 if full else 4
    for k in range(1, k_max + 1):
        for tag, g in ((f"And({k})", andrasfai(k)), (f"And({k})-v", andrasfai(k).delete_vertex(0))):
            report = criticality_report(g)
            if not report.is_minor_critical:
                bad.append(f"{tag} not minor-critical")
            if not report.is_one_unique_graph:
                bad.append(f"{tag} not 1-unique")
    return f"minor-critical and 1-unique for And(k), And(k)-v, k=1..{k_max}"


def _c3_cycle_complements(full: bool, bad: list[str]) -> str:
    n_max = 16 if full else 12
    ks = (2, 3, 4) if full else (2, 3)
    for n in range(5, n_max + 1):
        g = cycle_complement(n)
        if tree_depth(g).value != n - 1:
            bad.append(f"td(co-C{n})")
        if not is_one_unique(g):
            bad.append(f"co-C{n} not 1-unique")
    for k in ks:
        n = 4 * k
        if tree_depth(g4k(k)).value != n - 1:
            bad.append(f"td(G{n})")
        if k == 2:
            if criticality_report(cycle_complement(8)).is_subgraph_critical:
                bad.append("co-C8 subgraph-critical")
        else:
            # same td after deleting one sparing-matching edge => not critical
            thinned = cycle_complement(n).delete_edge(1, 1 + 2 * k)
            if tree_depth(thinned).value != n - 1:
                bad.append(f"co-C{n} minus one antipodal edge dropped td")
    return f"td(co-Cn)=n-1 and 1-unique for n=5..{n_max}; sparser G_4k ties td for k in {ks}"


def _c4_nets_prisms(full: bool, bad: list[str]) -> str:
    k_max = 8 if full else 7
    a_max = 7 if full else 6
    for k in range(1, k_max + 1):
        if tree_depth(k_net(k)).value != k + 1:
            bad.append(f"td({k}-net)")
    for a in range(1, a_max + 1):
        if tree_depth(clique_prism(a)).value != (3 * a + 1) // 2:
            bad.append(f"td(K{a} prism)")
    return f"td(k-net)=k+1 for k=1..{k_max}; td(Ka box K2)=ceil(3a/2) for a=1..{a_max}"


def _c5_h_graphs(full: bool, bad: list[str]) -> str:
    ns = (4, 5, 6) if full else (4, 5)
    for n in ns:
        report = criticality_report(h_graph(n))
        if report.td != n + 1:
            bad.append(f"td(H{n})")
        if not report.is_minor_critical:
            bad.append(f"H{n} not minor-critical")
        ou = report.one_unique
        if ou[0] or not all(ou[1:]):
            bad.append(f"H{n} non-1-unique set is not exactly the hub")
        if report.is_one_unique_graph:
            bad.append(f"H{n} claimed 1-unique")
    return f"td(Hn)=n+1, minor-critical, hub is the only non-1-unique vertex, n in {ns}"


def _c6_forbidden_equivalence(full: bool, bad: list[str]) -> str:
    n_max = 7 if full else 6
    checked = 0
    for g in _graphs_upto(n_max):
        value = tree_depth(g).value
        for k in range(3):
            checked += 1
            if (value >= g.n - k) != fk_free(g, k):
                bad.append(f"{to_graph6(g)} k={k}")
    return f"td>=n-k iff F_k-free, k=0..2, all graphs n<={n_max} ({checked} checks)"


def _c7_min_t_vs_direct(full: bool, bad: list[str]) -> str:
    n_max = 6 if full else 5
    checked = 0
    for g in _graphs_upto(n_max):
        report = criticality_report(g)
        checked += g.n
        if report.min_t != _direct_min_t(g, report.td):
            bad.append(to_graph6(g))
    return f"report min_t equals direct labeling search on all graphs n<={n_max} ({checked} vertices)"


def _c8_critical_implies_one_unique(full: bool, bad: list[str]) -> str:
    n_max = 7 if full else 6
    total_hits = 0
    for n in range(2, n_max + 1):
        result = run_search(SearchJob(td_target=n - 1, n=n, critical=True))
        total_hits += len(result.hits)
        for g6, report in result.hits:
            if not report.is_one_unique_graph:
                bad.append(g6)
    return f"every (n-1)-critical hit is 1-unique (built-in n<={n_max}, {total_hits} hits)"


def _c9_main_search(full: bool, bad: list[str]) -> str:
    target_canon = canonical_form(h_graph(4))
    if full:
        n, lines, scope = 7, None, "built-in n=7"
    else:
        graphs = (h_graph(4), cycle_complement(7), complete(7), cycle(7), k_net(3), clique_prism(2))
        n, lines, scope = None, tuple(to_graph6(g) for g in graphs), "fixed 6-graph stream"
    job = SearchJob(td_target=5, n=n, graph6_lines=lines, critical=True, non_one_unique=True)
    result = run_search(job)
    connected = run_search(replace(job, connected_only=True))
    if not result.hits:
        bad.append("empty hit set")
    if target_canon not in {g6 for g6, _ in result.hits}:
        bad.append("subdivided-clique graph missing")
    for g6, report in result.hits:
        if sum(1 for flag in report.one_unique if not flag) != 1:
            bad.append(f"{g6} does not have exactly one non-1-unique vertex")
    if [g6 for g6, _ in connected.hits] != [g6 for g6, _ in result.hits]:
        bad.append("connected-only filter changed the hit set")
    return (
        f"critical non-1-unique search ({scope}): {len(result.hits)} hit(s), "
        "contains the subdivided clique, one non-1-unique vertex each, "
        "connected-only agrees"
    )


def _c10_property_suites(full: bool, bad: list[str]) -> str:
    witness_max = 6 if full else 5
    reduce_max = 6 if full else 4
    core_max = 6 if full else 5
    surplus_max = 6 if full else 5
    random_count = 500 if full else 100
    greedy_max = 7 if full else 6

    for g in _graphs_upto(witness_max):
        if not _witness_sound(g):
            bad.append(f"witness unsound on {to_graph6(g)}")
    family_corpus = [andrasfai(3), cycle_complement(9), k_net(5), clique_prism(4), h_graph(5)]
    for g in family_corpus:
        if not _witness_sound(g):
            bad.append(f"witness unsound on {to_graph6(g)}")

    checked_labelings = 0
    for g in _graphs_upto(reduce_max):
        for lab in feasible_labelings(g, g.n):
            checked_labelings += 1
            red = reduce_labeling(g, lab)
            if len(set(red)) != len(set(lab)):
                bad.append(f"reduce changed label count on {to_graph6(g)}")
                break
            if not is_reduced(red):
                bad.append(f"reduce output not reduced on {to_graph6(g)}")
                break
            if not verify_feasible(g, red):
                bad.append(f"reduce broke feasibility on {to_graph6(g)}")
                break

    for g in _graphs_upto(core_max):
        red = reduce_labeling(g, tree_depth(g).labeling)
        core = irreducible_core(g, red)
        if surplus(core.core) != surplus(g):
            bad.append(f"core surplus differs on {to_graph6(g)}")
        if tree_depth(core.core).value > surplus(core.core):
            bad.append(f"core td exceeds surplus on {to_graph6(g)}")
        if any(core.restricted_labeling.count(c) < 2 for c in core.restricted_labeling):
            bad.append(f"core kept a singleton label on {to_graph6(g)}")

    for g in _graphs_upto(surplus_max):
        s = surplus(g)
        for sub in range(1 << g.n):
            h = g.induced_subgraph([v for v in range(g.n) if (sub >> v) & 1])
            if surplus(h) > s:
                bad.append(f"surplus not hereditary on {to_graph6(g)}")
                break

    rng = random.Random(20240811)
    for _ in range(random_count):
        g = _random_graph(rng)
        value = tree_depth(g).value
        for u, v in g.edges():
            if tree_depth(g.delete_edge(u, v)).value > value:
                bad.append(f"edge deletion raised td on {to_graph6(g)}")
            if tree_depth(g.contract_edge(u, v)).value > value:
                bad.append(f"contraction raised td on {to_graph6(g)}")
        for v in range(g.n):
            drop = value - tree_depth(g.delete_vertex(v)).value
            if drop not in (0, 1):
                bad.append(f"vertex deletion delta {drop} on {to_graph6(g)}")

    greedy_graphs = 0
    for g in _graphs_upto(greedy_max):
        if not is_one_unique(g):
            continue
        greedy_graphs += 1
        h = critical_spanning_subgraph(g)
        if tree_depth(h).value != tree_depth(g).value:
            bad.append(f"greedy subgraph changed td on {to_graph6(g)}")
        elif not is_minor_critical(h):
            bad.append(f"greedy subgraph not critical on {to_graph6(g)}")

    return (
        f"witness soundness n<={witness_max}+families, reduce contracts on "
        f"{checked_labelings} labelings n<={reduce_max}, core identities n<={core_max}, "
        f"surplus heredity n<={surplus_max}, {random_count} random minor checks, "
        f"greedy spanning subgraph on {greedy_graphs} 1-unique graphs n<={greedy_max}"
    )


_CRITERIA: list[tuple[int, str, Callable[[bool, list[str]], str]]] = [
    (1, "Andrasfai depth formulas", _c1_andrasfai_depth),
    (2, "Andrasfai criticality and 1-uniqueness", _c2_andrasfai_critical),
    (3, "cycle complement depths and sparser ties", _c3_cycle_complements),
    (4, "net and clique-prism depth formulas", _c4_nets_prisms),
    (5, "subdivided-clique family", _c5_h_graphs),
    (6, "forbidden-list equivalence", _c6_forbidden_equivalence),
    (7, "star-clique and elimination min_t vs direct search", _c7_min_t_vs_direct),
    (8, "near-order critical graphs are 1-unique", _c8_critical_implies_one_unique),
    (9, "main critical non-1-unique search", _c9_main_search),
    (10, "property suites", _c10_property_suites),
]


def run_criterion(cid: int, level: str = "full") -> CriterionResult:
    if level not in ("quick", "full"):
        raise ValueError("level must be 'quick' or 'full'")
    for num, title, fn in _CRITERIA:
        if num == cid:
            start = time.perf_counter()
            bad: list[str] = []
            detail = fn(level == "full", bad)
            if bad:
                detail += f"; failed: {bad[:5]}"
            return CriterionResult(num, title, not bad, detail, time.perf_counter() - start)
    raise ValueError(f"no criterion {cid}")


def verify_paper(level: str = "quick") -> list[CriterionResult]:
    """Run all criteria at the given level; results in criterion order."""
    return [run_criterion(cid, level) for cid, _, _ in _CRITERIA]
