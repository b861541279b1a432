import collections
import gc
import math
import os
import random
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

from tdlab import (
    FORBIDDEN_LISTS,
    BudgetError,
    Graph,
    complete,
    contains_induced,
    criticality_report,
    cycle,
    cycle_complement,
    enumerate_graphs,
    fk_free,
    g4k,
    h_graph,
    parse_graph6,
    path,
    pattern,
    surplus,
    to_graph6,
    tree_depth,
    tree_depth_decision,
    verify_feasible,
)
import tdlab
from tdlab import criticality as criticality_module
from tdlab import solver as solver_module
from tdlab.criticality import _MinorTable
from tdlab.graphs import bits, mask_components
from tdlab.solver import MAX_VERTICES, _no_f1_through, _no_f2_through, _solver_for, _SubsetSolver

from oracles import (
    disjoint_union,
    ref_feasible,
    ref_tree_depth,
    ref_tree_depth_dp,
    ref_tree_depth_scan,
    ref_witness_dp,
    star_clique_transform,
)

from test_graphs import random_graph


def test_closed_form_values():
    assert tree_depth(Graph.from_edges(0, [])).value == 0
    assert tree_depth(Graph.from_edges(1, [])).value == 1
    for n in range(1, 12):
        assert tree_depth(complete(n)).value == n
        assert tree_depth(path(n)).value == math.floor(math.log2(n)) + 1
    for n in range(3, 12):
        assert tree_depth(cycle(n)).value == math.floor(math.log2(n - 1)) + 2
    assert tree_depth(cycle_complement(4)).value == 2
    for n in range(5, 13):
        assert tree_depth(cycle_complement(n)).value == n - 1


def test_disconnected_is_componentwise_max():
    g = disjoint_union(path(4), complete(3))
    assert tree_depth(g).value == 3
    assert tree_depth(pattern("4K1")).value == 1


def test_brute_force_agreement_all_small_graphs():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            assert tree_depth(g).value == ref_tree_depth(g.n, g.edges())


def test_reference_oracles_agree_with_each_other():
    for n in range(1, 5):
        for g in enumerate_graphs(n):
            assert ref_tree_depth(g.n, g.edges()) == ref_tree_depth_scan(g.n, g.edges())


def test_witness_exact_values():
    w = tree_depth(path(4))
    assert w.value == 3
    assert w.labeling == (3, 1, 2, 1)
    assert w.elimination_forest == (-1, 2, 0, 2)
    w = tree_depth(cycle(5))
    assert w.value == 4
    assert w.labeling == (4, 3, 1, 2, 1)
    assert w.elimination_forest == (-1, 0, 3, 1, 3)
    w = tree_depth(pattern("2K2+K1"))
    assert w.labeling == (2, 1, 2, 1, 1)
    assert w.elimination_forest == (-1, 0, -1, 2, -1)


def forest_depths(parents):
    depths = [None] * len(parents)

    def depth(v):
        if depths[v] is None:
            depths[v] = 1 if parents[v] == -1 else depth(parents[v]) + 1
        return depths[v]

    return [depth(v) for v in range(len(parents))]


def is_forest_ancestor(parents, a, b):
    while b != -1:
        if b == a:
            return True
        b = parents[b]
    return False


def check_witness(g, w):
    assert len(w.labeling) == g.n and len(w.elimination_forest) == g.n
    assert verify_feasible(g, w.labeling).feasible
    assert ref_feasible(g.n, g.edges(), w.labeling)
    assert max(w.labeling, default=0) == w.value
    if g.n:
        assert max(forest_depths(w.elimination_forest)) <= w.value
    for u, v in g.edges():
        assert is_forest_ancestor(w.elimination_forest, u, v) or is_forest_ancestor(
            w.elimination_forest, v, u
        )
    # label is one more than the deepest child label
    kids = {v: [] for v in range(g.n)}
    for v, p in enumerate(w.elimination_forest):
        if p != -1:
            kids[p].append(v)
    for v in range(g.n):
        assert w.labeling[v] == 1 + max((w.labeling[c] for c in kids[v]), default=0)


def test_witness_soundness_sweep():
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            check_witness(g, tree_depth(g))
    rng = random.Random(7)
    for _ in range(80):
        g = random_graph(rng, n=rng.randrange(1, 10))
        check_witness(g, tree_depth(g))


def test_witness_is_deterministic():
    rng = random.Random(13)
    for _ in range(25):
        g = random_graph(rng)
        assert tree_depth(g) == tree_depth(g)


def test_decision_matches_value():
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            td = tree_depth(g).value
            for k in range(0, n + 2):
                assert tree_depth_decision(g, k) == (td <= k)


def _solved(memo):
    """The (mask, depth) pairs of a dense memo's solved entries: depth 0
    marks a subset the solver has not solved."""
    return [(mask, depth) for mask, depth in enumerate(memo) if depth]


def test_memo_and_witness_match_shortcut_free_recursion():
    rng = random.Random(29)
    for n in range(8, 12):
        for p in (0.3, 0.5, 0.7):
            for _ in range(2):
                g = random_graph(rng, n, p)
                td = ref_tree_depth_dp(g.n, g.edges())
                solver = _SubsetSolver(g.adj)
                assert solver.td(g.full_mask()) == td(frozenset(range(n)))
                for mask, depth in _solved(solver.memo):
                    assert depth == td(frozenset(bits(mask))), (g.edges(), mask)
                w = tree_depth(g)
                assert w.value == td(frozenset(range(n)))
                assert (w.labeling, w.elimination_forest) == ref_witness_dp(g.n, g.edges())


def test_surplus_one_check_matches_the_forbidden_list():
    # when g - x has no induced 3K1 or 2K2 (F_1), the one-pass check through
    # x must say whether g has one
    checked = 0
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            free = fk_free(g, 1)
            for x in range(n):
                if fk_free(g.delete_vertex(x), 1):
                    checked += 1
                    assert _no_f1_through(g.adj, g.full_mask(), 1 << x) == free, (to_graph6(g), x)
    assert checked > 1000


def test_surplus_two_check_matches_the_forbidden_list():
    # when g - x has no induced 4K1, 2K2+K1, P3+K2 or 2K3 (F_2), the check
    # through x must say whether g has one. Each pattern is the only member
    # of F_2 in some checked g, so a check that misses one pattern fails
    checked, alone = 0, set()
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            held = [name for name in FORBIDDEN_LISTS[2] if contains_induced(g, pattern(name))]
            for x in range(n):
                if fk_free(g.delete_vertex(x), 2):
                    checked += 1
                    assert _no_f2_through(g.adj, g.full_mask(), 1 << x) == (not held), (to_graph6(g), x)
                    if len(held) == 1:
                        alone.update(held)
    assert checked > 5000 and alone == set(FORBIDDEN_LISTS[2])


def _settle_cases(g, td):
    """(S, x, d) for every connected subset S of g and every vertex x that is
    not universal in S, with d = td(S - x) from the reference ``td``."""
    for mask in range(1, 1 << g.n):
        if len(mask_components(g.adj, mask)) > 1:
            continue
        for x in bits(mask):
            if g.adj[x] & mask != mask ^ 1 << x:
                yield mask, x, td(frozenset(bits(mask ^ 1 << x)))


def test_settle_matches_the_shortcut_free_recursion():
    # every connected subset S of every graph with n <= 7, every vertex x of
    # S that is not universal in S, d = td(S - x) and k = |S| - 1 - d. Where
    # the scan settles (k <= 2 or k <= d), _settle must give td(S); at every
    # k >= 1 the certificate search through x must find a C iff td(S) = d,
    # and at k = 1 and 2 agree with the pattern tests. Both outcomes, d and
    # d + 1, must occur at k = 1, 2 and 3; at k = 0, S - x is complete and x
    # is not universal, so td(S) = d every time
    settled = {k: set() for k in range(4)}
    pattern_free = {1: _no_f1_through, 2: _no_f2_through}
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            td = ref_tree_depth_dp(n, g.edges())
            solver = _SubsetSolver(g.adj)
            for mask, x, d in _settle_cases(g, td):
                k = mask.bit_count() - 1 - d
                exact = td(frozenset(bits(mask)))
                where = (to_graph6(g), mask, x)
                if k <= 2 or k <= d:
                    got = solver._settle(mask, 1 << x, d)
                    assert got == exact, where
                    settled[k].add(got - d)
                if k:
                    found = bool(solver._certificate(mask, 1 << x, k + 1))
                    assert found == (exact == d), where
                if k in pattern_free:
                    assert found != pattern_free[k](g.adj, mask, 1 << x), where
    assert settled == {0: {0}, 1: {0, 1}, 2: {0, 1}, 3: {0, 1}}


def test_certificate_search_matches_the_shortcut_free_recursion_past_seven_vertices():
    # seeded G(n, m) with n = 8..10, where F_3 gains 2K4 and F_4, F_5 gain
    # members with components of five and six vertices: for every connected
    # S, non-universal x and k = 3..5, the certificate search finds a C iff
    # td(S) = d, and _settle gives td(S) where the scan settles. Both outcomes
    # must occur at each k. In 2K4 joined to a ninth vertex, S - x has k = 3
    # for x in a K4, and only that whole K4 certifies
    rng = random.Random(2612)
    graphs = [Graph.from_edges(9, [(u, v) for u in range(9) for v in range(u + 1, 9) if v == 8 or u // 4 == v // 4])]
    for n in (8, 9, 10):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        graphs += [Graph.from_edges(n, rng.sample(pairs, round(p * len(pairs)))) for p in (0.2, 0.3, 0.5) for _ in range(3)]
    outcomes = {3: set(), 4: set(), 5: set()}
    for g in graphs:
        td = ref_tree_depth_dp(g.n, g.edges())
        solver = _SubsetSolver(g.adj)
        for mask, x, d in _settle_cases(g, td):
            k = mask.bit_count() - 1 - d
            if k not in outcomes:
                continue
            exact = td(frozenset(bits(mask)))
            where = (to_graph6(g), mask, x)
            found = solver._certificate(mask, 1 << x, k + 1)
            assert bool(found) == (exact == d), where
            if k <= d:
                assert solver._settle(mask, 1 << x, d) == exact, where
            outcomes[k].add(exact - d)
    assert outcomes == {3: {0, 1}, 4: {0, 1}, 5: {0, 1}}


def _recorded_settles(monkeypatch):
    """Count every _settle call by (k, outcome): k = |S| - 1 - d for the
    child depth d it gets, outcome = td(S) - d, 0 or 1."""
    counts = collections.Counter()
    settle = _SubsetSolver._settle

    def recording(solver, mask, bit, depth):
        got = settle(solver, mask, bit, depth)
        counts[mask.bit_count() - 1 - depth, got - depth] += 1
        return got

    monkeypatch.setattr(_SubsetSolver, "_settle", recording)
    return counts


def test_memos_are_exact_where_the_surplus_two_bound_fires(monkeypatch):
    # dense G(n, m) graphs hold many subsets of surplus two, where the
    # surplus-two test settles the scan. After each solve, _settle is also
    # asked at every other non-universal x of each solved connected subset,
    # since the scan settles at one child only. Then every memo entry
    # against the shortcut-free recursion. The floor counts the _settle
    # calls, per (k, outcome)
    settles = _recorded_settles(monkeypatch)
    rng = random.Random(2411)
    for n in range(11, 15):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for p in (0.5, 0.7, 0.8):
            for _ in range(2):
                g = Graph.from_edges(n, rng.sample(pairs, round(p * len(pairs))))
                td = ref_tree_depth_dp(n, g.edges())
                solver = _SubsetSolver(g.adj)
                solver.td(g.full_mask())
                for mask, depth in _solved(solver.memo):
                    if len(mask_components(g.adj, mask)) == 1:
                        for x in bits(mask):
                            if g.adj[x] & mask != mask ^ 1 << x:
                                assert solver._settle(mask, 1 << x, solver.td(mask ^ 1 << x)) == depth
                for mask, depth in _solved(solver.memo):
                    assert depth == td(frozenset(bits(mask))), (to_graph6(g), mask)
    assert min(settles[k, outcome] for k in (1, 2) for outcome in (0, 1)) >= 200, settles
    assert any(settles[k, 0] >= 50 and settles[k, 1] >= 50 for k in range(3, 14)), settles


def _read_in(solver, to):
    """The edges of a solver's graph, less its dropped vertices, after
    renaming each vertex w to to[w]; sorted, so equal graphs give equal keys."""
    keep = ((1 << len(to)) - 1) & ~getattr(solver, "dropped", 0)
    pairs = ((to[a], to[b]) for a in bits(keep) for b in bits(solver.adj[a] & keep) if a < b)
    return tuple(sorted((min(pair), max(pair)) for pair in pairs)), to


def test_memos_are_exact_where_the_surplus_one_bound_fires(monkeypatch):
    # co-C10, co-C12, co-C14 and G_12 have td n - 1, so the surplus-one
    # test settles most scans of their minors. Every memo entry of a report's parent
    # solver and of each minor solver it builds, for each graph as built and
    # under two seeded relabelings, against the shortcut-free recursion. A
    # solver is read back in the built numbering, turned by the rotation
    # symmetry of g that gives the least edge list, so isomorphic minors
    # share one reference. The floor counts the _settle calls behind those
    # entries: the scans here settle at k <= 1, with both outcomes at k = 1
    made = []

    class Recording(solver_module._MinorSolver):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(criticality_module, "_MinorSolver", Recording)
    settles = _recorded_settles(monkeypatch)
    refs: dict = {}
    rng = random.Random(73)
    for g in (cycle_complement(10), cycle_complement(12), cycle_complement(14), g4k(3)):
        n = g.n
        turns = [r for r in ([(v + k) % n for v in range(n)] for k in range(n)) if g.relabeled(r) == g]
        for perm in [list(range(n))] + [rng.sample(range(n), n) for _ in range(2)]:
            back = [0] * n
            for v, w in enumerate(perm):
                back[w] = v
            criticality_report(g.relabeled(perm))
            assert made
            for solver in [made[0].parent] + made:
                edges, to = min(_read_in(solver, [turn[v] for v in back]) for turn in turns)
                if edges not in refs:
                    refs[edges] = ref_tree_depth_dp(n, list(edges))
                for mask, depth in _solved(solver.memo):
                    assert depth == refs[edges](frozenset(to[w] for w in bits(mask))), (to_graph6(g), perm, mask)
            made.clear()
    assert settles[1, 0] >= 100 and settles[1, 1] >= 1000, settles


def test_decision_brackets_value_at_larger_n():
    rng = random.Random(31)
    for n in range(12, 15):
        for p in (0.3, 0.5, 0.7):
            g = random_graph(rng, n, p)
            value = tree_depth(g).value
            assert tree_depth_decision(g, value)
            assert not tree_depth_decision(g, value - 1)


def _decision_graphs():
    # n = 11..17, large enough that a cold decision solves many subsets
    rng = random.Random(37)
    return [random_graph(rng, n, p) for n in range(11, 18) for p in (0.3, 0.5, 0.7)]


def test_decision_matches_value_past_the_greedy_threshold():
    # every k from the top down, on a solver evicted after tree_depth(g):
    # the first decision solves g cold and the later ones read its memo
    for g in _decision_graphs():
        td = tree_depth(g).value
        _solver_for.cache_clear()
        for k in range(g.n + 1, -1, -1):
            assert tree_depth_decision(g, k) == (td <= k), (g.edges(), k)


def test_memo_after_greedy_then_exact_matches_shortcut_free_recursion():
    rng = random.Random(41)
    for n in (11, 12):
        for p in (0.3, 0.5, 0.7):
            for _ in range(2):
                g = random_graph(rng, n, p)
                td = ref_tree_depth_dp(g.n, g.edges())
                solver = _SubsetSolver(g.adj)
                assert solver.td(g.full_mask()) == td(frozenset(range(n)))
                for mask, depth in _solved(solver.memo):
                    assert depth == td(frozenset(bits(mask))), (g.edges(), mask)


def test_tree_depth_frees_its_solver_without_gc():
    # only the kept solver of the last graph outlives a call, and a solver
    # and its memo go as soon as another graph is asked, not at a GC pass
    gc.collect()
    gc.disable()
    try:
        for n in range(3, 8):
            tree_depth(cycle(n))
        left = [o for o in gc.get_objects() if isinstance(o, _SubsetSolver)]
        kept = [o.adj for o in left]
        last = weakref.ref(left[0])
        del left
        tree_depth(path(4))
        gone = last() is None
    finally:
        gc.enable()
    assert kept == [cycle(7).adj]
    assert gone


def _kept_for(g):
    """The kept solver if it is g's, else None (the lookup then replaces it)."""
    misses = _solver_for.cache_info().misses
    solver = _solver_for(g.adj)
    return solver if _solver_for.cache_info().misses == misses else None


def test_shared_solver_answers_equal_cold_answers():
    # consecutive calls on equal graphs share the kept solver; each answer
    # must equal the same call's answer on an evicted solver, and every
    # entry of the kept memo must stay exact
    def cold(call, *args):
        _solver_for.cache_clear()
        return call(*args)

    def witness(g):
        w = tree_depth(g)
        return w.value, w.labeling, w.elimination_forest

    def report(g):
        return criticality_report(g).to_dict()

    orders = (
        lambda g, td: [(witness, g), (tree_depth_decision, g, td), (tree_depth_decision, g, td - 1)],
        lambda g, td: [(tree_depth_decision, g, td - 1), (tree_depth_decision, g, td), (witness, g)],
        lambda g, td: [(report, g), (witness, g), (tree_depth_decision, g, td),
                       (tree_depth_decision, g, td - 1), (surplus, g)],
    )
    rng = random.Random(83)
    for n in range(8, 13):
        for p in (0.35, 0.5, 0.7):
            g = random_graph(rng, n, p)
            td = cold(tree_depth, g).value
            cold_report = cold(report, g)
            exact = ref_tree_depth_dp(n, g.edges())
            for order in orders:
                calls = order(g, td)
                expected = [cold(call, *args) for call, *args in calls]
                _solver_for.cache_clear()
                assert [call(*args) for call, *args in calls] == expected, (g.edges(), expected)
                kept = _kept_for(g)
                assert kept is not None
                for mask, depth in _solved(kept.memo):
                    assert depth == exact(frozenset(bits(mask))), (g.edges(), mask)
            # an equal but distinct graph shares the solver
            twin = Graph(g.n, list(g.adj))
            assert twin is not g and tree_depth_decision(twin, td)
            assert _kept_for(g) is kept
            # a minor table takes it, with or without the value td(g)
            assert _MinorTable(g).solver is kept
            table = _MinorTable(g, td)
            assert table.solver is kept and table.report().to_dict() == cold_report
            # a graph one edge apart gets its own
            apart = g.delete_edge(*g.edges()[0])
            assert tree_depth(apart).value == cold(tree_depth, apart).value
            assert _kept_for(apart) is not kept and _kept_for(apart) is not None


def test_budget_cap():
    # the cap fires before a solver over it allocates its 2^26-byte memo
    big = path(MAX_VERTICES + 1)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            tree_depth(big)
        with pytest.raises(BudgetError):
            tree_depth_decision(big, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert tree_depth(path(MAX_VERTICES)).value == 5


# One exact solve of a seeded G(20, m) at p = .5 in a fresh interpreter,
# which prints td and its own peak RSS in kB. The td is pinned from the dict
# memo that the dense one replaced. On a 2-core Xeon VM with Python 3.11 the
# dict memo peaked at 57 MB, the dense one at 18 MB.
_SOLVE_G20 = """
import random
from tdlab import Graph, tree_depth, verify_feasible
n = 20
pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
g = Graph.from_edges(n, random.Random(1).sample(pairs, round(0.5 * len(pairs))))
w = tree_depth(g)
assert verify_feasible(g, w.labeling)
with open("/proc/self/status") as status:
    peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(w.value, peak)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="VmHWM is read from Linux's /proc")
def test_dense_memo_bounds_a_solve_in_a_fresh_interpreter():
    # the child reads its own VmHWM: ru_maxrss of a child keeps the peak of
    # the process that forked it
    src = str(Path(tdlab.__file__).parents[1])
    run = subprocess.run([sys.executable, "-c", _SOLVE_G20], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    value, peak_kb = map(int, run.stdout.split())
    assert value == 14
    assert peak_kb < 32 * 1024


def test_verify_feasible():
    assert verify_feasible(path(3), (1, 2, 1)).feasible
    assert bool(verify_feasible(path(3), (1, 2, 1)))
    assert verify_feasible(path(3), (1, 2, 1)).violation is None
    bad = verify_feasible(path(3), (1, 1, 2))
    assert not bad.feasible and not bool(bad)
    assert bad.violation == (1, 0, 1)
    # lowest level first, then smallest vertex pair
    assert verify_feasible(cycle(4), (1, 2, 1, 2)).violation == (2, 1, 3)
    assert verify_feasible(complete(3), (2, 2, 3)).violation == (2, 0, 1)
    with pytest.raises(ValueError):
        verify_feasible(path(3), (1, 2))
    with pytest.raises(ValueError):
        verify_feasible(path(3), (1, 0, 1))


def test_surplus_values():
    assert surplus(complete(6)) == 0
    assert surplus(cycle_complement(9)) == 1
    for name in ("4K1", "2K2+K1", "P3+K2", "2K3"):
        assert surplus(pattern(name)) == 3
    assert surplus(pattern("2K1")) == 1
    assert surplus(pattern("3K1")) == 2
    assert surplus(pattern("2K2")) == 2


def test_surplus_pattern_minimality():
    # dropping any vertex from a surplus-3 pattern loses a unit of surplus
    for name in ("4K1", "2K2+K1", "P3+K2", "2K3"):
        g = pattern(name)
        for v in range(g.n):
            assert surplus(g.delete_vertex(v)) == 2


def _table_rows(table):
    return (
        list(table.edge_deletions()),
        list(table.contractions()),
        list(table.vertex_deletions()),
        list(table.one_unique()),
    )


def test_minor_table_matches_exact_minor_solves():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            value = tree_depth(g).value
            table = _MinorTable(g)
            assert table.value == value
            expected = (
                [(u, v, value - tree_depth(g.delete_edge(u, v)).value) for u, v in g.edges()],
                [(u, v, value - tree_depth(g.contract_edge(u, v)).value) for u, v in g.edges()],
                [value - tree_depth(g.delete_vertex(v)).value for v in range(n)],
                [tree_depth(star_clique_transform(g, v)).value < value for v in range(n)],
            )
            assert _table_rows(table) == expected
            # a table on a fresh parent solver (as critical_spanning_subgraph builds it)
            assert _table_rows(_MinorTable(g, value)) == expected
            edge_rows, contraction_rows, vertex_rows, _ = expected
            drops = [d for *_, d in edge_rows + contraction_rows] + vertex_rows
            assert set(drops) <= {0, 1}


def test_minor_table_leaves_parent_memo_exact():
    rng = random.Random(61)
    graphs = [cycle(6), h_graph(3), pattern("2K2")]
    graphs += [random_graph(rng, n=rng.randrange(3, 7)) for _ in range(12)]
    for g in graphs:
        value = tree_depth(g).value
        solved = _MinorTable(g)
        assert solved.solver.memo[g.full_mask()] == value
        for table in (solved, _MinorTable(g, value)):
            _table_rows(table)
            for mask, depth in _solved(table.solver.memo):
                sub = g.induced_subgraph(bits(mask))
                assert depth == ref_tree_depth(sub.n, sub.edges())


def test_minor_solver_memos_are_exact(monkeypatch):
    made = []

    class Recording(solver_module._MinorSolver):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(criticality_module, "_MinorSolver", Recording)

    def check(h, dropped=None):
        # h is the minor built with Graph ops; vertices above the dropped
        # one are shifted down by one there
        memo, td = made.pop(0).memo, ref_tree_depth_dp(h.n, h.edges())
        for mask, depth in _solved(memo):
            assert dropped is None or not mask >> dropped & 1
            vs = frozenset(x - (dropped is not None and x > dropped) for x in bits(mask))
            assert depth == td(vs), (h.edges(), mask)
        return len(_solved(memo))

    rng = random.Random(67)
    graphs = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    graphs += [cycle(7), cycle_complement(7)] + [random_graph(rng, n=8) for _ in range(8)]
    entries = 0
    for g in graphs:
        value = tree_depth(g).value
        for table in (_MinorTable(g), _MinorTable(g, value)):
            for u, v, _ in table.edge_deletions():
                entries += check(g.delete_edge(u, v))
            # the star-clique solvers run first, in vertex order, and their
            # flags settle every contraction at a 1-unique vertex
            flags = table.one_unique()
            for v in range(g.n):
                entries += check(star_clique_transform(g, v), v)
            for u, v, _ in table.contractions():
                if not flags[u] and not flags[v]:
                    entries += check(g.contract_edge(u, v), v)
                assert not made
    assert not made and entries > 10000


def test_elimination_solver_memos_are_exact(monkeypatch):
    # every memo entry of the elimination solvers that min_t builds, against
    # the eliminated graph built by star-clique transforms. The floor
    # td_g(S + D) - max(1, td_g(D)) needs td_g(D) there: with 1 in its place
    # the memo goes wrong for eleven (graph, D) pairs with n <= 7, two of
    # them on F@hXw, which is 1-unique, so there the kernel runs on every D;
    # and min_t meets such a D on the n = 8 graphs GUkL@_ and GOS_do
    made = []

    class Recording(solver_module._MinorSolver):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    def check(g):
        checked = 0
        for solver in made:
            dropped = sorted(bits(solver.dropped))
            h = g
            for x in reversed(dropped):  # vertices above x shift down by one
                h = star_clique_transform(h, x)
            td = ref_tree_depth_dp(h.n, h.edges())
            for mask, depth in _solved(solver.memo):
                assert not mask & solver.dropped
                vs = frozenset(x - sum(d < x for d in dropped) for x in bits(mask))
                assert depth == td(vs), (to_graph6(g), dropped, mask)
            checked += len(_solved(solver.memo))
        made.clear()
        return checked

    monkeypatch.setattr(criticality_module, "_MinorSolver", Recording)
    rng = random.Random(71)
    graphs = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    graphs += [parse_graph6(line) for line in ("GUkL@_", "GOS_do")]
    graphs += [random_graph(rng, n=rng.randrange(7, 9)) for _ in range(6)]
    entries = 0
    for g in graphs:
        table = _MinorTable(g)
        for v in range(g.n):
            table.min_t(v)
        entries += check(g)
    g = parse_graph6("F@hXw")
    table = _MinorTable(g)
    for dropped in range(1, 1 << g.n):
        table._eliminated(dropped)
    entries += check(g)
    assert entries > 5000
