import math
import random

import pytest

from tdlab import (
    BudgetError,
    Graph,
    complete,
    cycle,
    cycle_complement,
    disjoint_union,
    enumerate_graphs,
    h_graph,
    path,
    pattern,
    surplus,
    tree_depth,
    tree_depth_decision,
    verify_feasible,
)
from tdlab.graphs import bits
from tdlab.solver import MAX_VERTICES, _MinorTable, _SubsetSolver

from oracles import (
    ref_feasible,
    ref_tree_depth,
    ref_tree_depth_dp,
    ref_tree_depth_scan,
    ref_witness_dp,
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


def test_memo_and_witness_match_shortcut_free_recursion():
    rng = random.Random(29)
    for n in range(8, 12):
        for p in (0.3, 0.5, 0.7):
            for _ in range(2):
                g = random_graph(rng, n, p)
                td = ref_tree_depth_dp(g.n, g.edges())
                solver = _SubsetSolver(g)
                assert solver.td(g.full_mask()) == td(frozenset(range(n)))
                for mask, depth in solver.memo.items():
                    assert depth == td(frozenset(bits(mask))), (g.edges(), mask)
                w = tree_depth(g)
                assert w.value == td(frozenset(range(n)))
                assert (w.labeling, w.elimination_forest) == ref_witness_dp(g.n, g.edges())


def test_decision_brackets_value_at_larger_n():
    rng = random.Random(31)
    for n in range(12, 15):
        for p in (0.3, 0.5, 0.7):
            g = random_graph(rng, n, p)
            value = tree_depth(g).value
            assert tree_depth_decision(g, value)
            assert not tree_depth_decision(g, value - 1)


def test_budget_cap():
    big = path(MAX_VERTICES + 1)
    with pytest.raises(BudgetError):
        tree_depth(big)
    with pytest.raises(BudgetError):
        tree_depth_decision(big, 4)
    with pytest.raises(BudgetError):
        tree_depth(path(6), max_vertices=5)
    assert tree_depth(path(MAX_VERTICES)).value == 5


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
            )
            assert _table_rows(table) == expected
            # a table on a fresh parent solver (as the search screen builds it)
            assert _table_rows(_MinorTable(g, value)) == expected
            edge_rows, contraction_rows, vertex_rows = expected
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
            for mask, depth in table.solver.memo.items():
                sub = g.induced_subgraph(bits(mask))
                assert depth == ref_tree_depth(sub.n, sub.edges())
