"""Output checks for every benchmark workload.

Each checker takes one output and returns the list of problems it found; an
empty list means the output is correct. They run after the timed phase, so
their cost is never measured. The expected values below come from closed
forms and published facts where those exist, and otherwise from the seed
code's own answers, recorded once.
"""

from __future__ import annotations

from functools import lru_cache

import tdlab

# -- solve-gnp -------------------------------------------------------------

# td of every random graph that solve-gnp generates for seed 1, by round
# (six rounds, nine graphs each: n = 15, 16, 17 by density 0.35, 0.5, 0.7).
EXPECTED_GNP_TD = {
    1: [
        [9, 10, 12, 9, 11, 13, 10, 12, 14],
        [8, 10, 12, 9, 10, 13, 10, 12, 14],
        [9, 11, 12, 9, 11, 13, 9, 12, 13],
        [9, 10, 12, 10, 11, 12, 10, 12, 14],
        [8, 10, 12, 9, 11, 13, 10, 12, 13],
        [8, 10, 12, 9, 11, 13, 10, 12, 13],
    ],
}


def check_gnp(g: tdlab.Graph, out, expected_td: int | None) -> list[str]:
    if out is None:
        return ["no output"]
    value, labeling, at_td, below = out
    problems = []
    try:
        check = tdlab.verify_feasible(g, labeling)
    except ValueError as exc:
        problems.append(f"witness rejected: {exc}")
    else:
        if not check:
            problems.append(f"witness infeasible, violation {check.violation}")
    if max(labeling, default=0) != value:
        problems.append(f"witness max label {max(labeling, default=0)} != td {value}")
    if not at_td:
        problems.append(f"decision says td > {value}")
    if below:
        problems.append(f"decision says td <= {value - 1}")
    if expected_td is not None and value != expected_td:
        problems.append(f"td {value} != stored {expected_td}")
    return problems


# -- report-family ---------------------------------------------------------

# Closed forms: 2k for And(k), n - 1 for co-Cn, n + 1 for H_n, k + 1 for the
# k-net, ceil(3a/2) for the Ka prism, 4k - 1 for G_4k.
FAMILY_TD = {
    "And(4)": 2 * 4,
    "H5": 5 + 1,
    "H6": 6 + 1,
    "co-C10": 10 - 1,
    "co-C12": 12 - 1,
    "6-net": 6 + 1,
    "K5-prism": -(-3 * 5 // 2),
    "G_12": 4 * 3 - 1,
}
MINOR_CRITICAL = ("And(4)", "H5", "H6")
HUB_GRAPHS = ("H5", "H6")  # in H_n the hub (vertex 0) is the only non-1-unique vertex

# Relabeling invariants of each unrelabeled member: (minor-critical,
# subgraph-critical, induced-subgraph-critical, 1-unique graph) and the
# sorted vertex-deletion deltas.
FAMILY_INVARIANTS = {
    "And(4)": ((True, True, True, True), [1] * 11),
    "H5": ((True, True, True, False), [1] * 9),
    "H6": ((True, True, True, False), [1] * 11),
    "co-C10": ((False, False, True, True), [1] * 10),
    "co-C12": ((False, False, True, True), [1] * 12),
    "6-net": ((True, True, True, True), [1] * 12),
    "K5-prism": ((True, True, True, True), [1] * 10),
    "G_12": ((True, True, True, True), [1] * 12),
}


def check_report(name: str, perm: list[int], g: tdlab.Graph, report) -> list[str]:
    if report is None:
        return ["no report"]
    problems = []
    td = report.td
    if td != FAMILY_TD[name]:
        problems.append(f"td {td} != closed form {FAMILY_TD[name]}")
    if report.surplus != g.n - td:
        problems.append("surplus != n - td")
    edges = g.edges()
    for label, table in (("edge deletion", report.edge_deletion_deltas),
                         ("contraction", report.contraction_deltas)):
        if [(u, v) for u, v, _ in table] != edges:
            problems.append(f"{label} table does not list the graph's edges")
        if any(d not in (0, 1) for _, _, d in table):
            problems.append(f"{label} delta outside 0..1")
    vdeltas = report.vertex_deletion_deltas
    if len(vdeltas) != g.n or any(d not in (0, 1) for d in vdeltas):
        problems.append("vertex deletion deltas malformed")
    sub = all(d >= 1 for _, _, d in report.edge_deletion_deltas)
    ind = all(d >= 1 for d in vdeltas)
    minor = sub and ind and all(d >= 1 for _, _, d in report.contraction_deltas)
    if (report.is_subgraph_critical, report.is_induced_subgraph_critical,
            report.is_minor_critical) != (sub, ind, minor):
        problems.append("criticality flags disagree with the delta tables")
    if report.is_one_unique_graph != all(report.one_unique):
        problems.append("is_one_unique_graph disagrees with one_unique")
    for v, t in enumerate(report.min_t):
        # None stands for a capped search and is not pinned.
        if t is not None and (t == 1) != report.one_unique[v]:
            problems.append(f"min_t[{v}] = {t} disagrees with one_unique")
    checks_expected = {"order": g.n <= 2 ** (td - 1), "maxdeg": g.max_degree() <= td - 1}
    if report.conjecture_checks != checks_expected:
        problems.append("conjecture_checks disagree with n, max degree and td")
    if name in MINOR_CRITICAL and not report.is_minor_critical:
        problems.append("member is minor-critical but the report says not")
    if name in HUB_GRAPHS:
        hub = perm[0]
        expected = tuple(v != hub for v in range(g.n))
        if report.one_unique != expected:
            problems.append("hub is not the only non-1-unique vertex")
    flags = (report.is_minor_critical, report.is_subgraph_critical,
             report.is_induced_subgraph_critical, report.is_one_unique_graph)
    if (flags, sorted(vdeltas)) != FAMILY_INVARIANTS[name]:
        problems.append("flags or vertex-deletion deltas changed under relabeling")
    return problems


# -- census-n7 -------------------------------------------------------------

CENSUS_SIZE = 1044  # isomorphism classes of graphs on 7 vertices (OEIS A000088)

# (critical, td): the paper's critical non-1-unique screen at td = 3..6, then
# the --non-1-unique screen alone at td = 3 and 6.
SCREENS = ((True, 3), (True, 4), (True, 5), (True, 6), (False, 3), (False, 6))

# Expected counters and hit count of each screen.
SCREEN_EXPECTED = {
    (True, 3): {"graphs_at_target_td": 129, "critical_count": 0, "counterexample_count": 0, "hits": 0},
    (True, 4): {"graphs_at_target_td": 466, "critical_count": 3, "counterexample_count": 0, "hits": 0},
    (True, 5): {"graphs_at_target_td": 386, "critical_count": 10, "counterexample_count": 2, "hits": 2},
    (True, 6): {"graphs_at_target_td": 47, "critical_count": 6, "counterexample_count": 0, "hits": 0},
    (False, 3): {"graphs_at_target_td": 129, "critical_count": 0, "counterexample_count": 0, "hits": 129},
    (False, 6): {"graphs_at_target_td": 47, "critical_count": 0, "counterexample_count": 0, "hits": 30},
}


@lru_cache(maxsize=None)
def h4_canonical() -> str:
    return tdlab.canonical_form(tdlab.h_graph(4))


def check_screen(critical: bool, td: int, result: dict | None) -> list[str]:
    if result is None:
        return ["no search result"]
    problems = []
    counters = result["counters"]
    hits = result["hits"]
    expected = dict(SCREEN_EXPECTED[(critical, td)], graphs_scanned=CENSUS_SIZE, skipped=0)
    seen = dict(counters, hits=len(hits))
    for key, want in expected.items():
        if seen.get(key) != want:
            problems.append(f"{key} = {seen.get(key)}, expected {want}")
    if result["provenance"].get("source") != "builtin:n=7":
        problems.append("source is not the built-in n = 7 census")
    for hit in hits:
        report = hit["report"]
        if report["td"] != td or all(report["one_unique"]):
            problems.append(f"hit {hit['graph6']} is not a non-1-unique graph of td {td}")
        if critical and not report["is_minor_critical"]:
            problems.append(f"hit {hit['graph6']} is not minor-critical")
    if (critical, td) == (True, 5):
        if h4_canonical() not in {hit["graph6"] for hit in hits}:
            problems.append("H4 is missing from the td = 5 hits")
        if any(hit["report"]["one_unique"].count(False) != 1 for hit in hits):
            problems.append("a td = 5 hit does not have exactly one non-1-unique vertex")
    return problems


def check_enumeration(graph6: list[str]) -> list[str]:
    if len(graph6) != CENSUS_SIZE or len(set(graph6)) != CENSUS_SIZE:
        return [f"enumeration gave {len(graph6)} graphs, {len(set(graph6))} distinct"]
    return []
