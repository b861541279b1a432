import itertools
import random

import pytest

from tdlab import (
    Graph,
    andrasfai,
    complete,
    criticality_report,
    cycle,
    cycle_complement,
    enumerate_graphs,
    feasible_labelings,
    format_labeling,
    h_graph,
    irreducible_core,
    is_reduced,
    parse_labeling,
    path,
    reduce_labeling,
    standard_labeling_andrasfai,
    surplus,
    tree_depth,
    verify_feasible,
)

from oracles import ref_feasible


def test_parse_and_format():
    assert parse_labeling("1,2,1") == (1, 2, 1)
    assert parse_labeling(" 3,1,2 \n") == (3, 1, 2)
    assert parse_labeling("") == ()
    assert format_labeling((1, 2, 1)) == "1,2,1"
    assert parse_labeling(format_labeling((4, 4, 1))) == (4, 4, 1)
    with pytest.raises(ValueError):
        parse_labeling("1,x,2")


def test_feasible_labelings_match_product_scan():
    g = cycle(5)
    got = list(feasible_labelings(g, 4))
    ref = [
        labels
        for labels in itertools.product(range(1, 5), repeat=5)
        if ref_feasible(5, g.edges(), labels)
    ]
    assert got == ref  # same set and same lexicographic order
    assert len(got) == len(set(got))


def test_feasible_labelings_random_graphs():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randrange(1, 6)
        p = rng.choice((0.3, 0.6))
        g = Graph.from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        )
        top = rng.randrange(1, 4)
        got = list(feasible_labelings(g, top))
        ref = [
            labels
            for labels in itertools.product(range(1, top + 1), repeat=n)
            if ref_feasible(n, g.edges(), labels)
        ]
        assert got == ref


def test_feasible_labelings_edges_cases():
    # the empty prefix is the one labeling of the empty graph at any cap,
    # and a cap below the depth leaves nothing
    for top in (-1, 0, 1, 3):
        assert list(feasible_labelings(Graph(0, []), top)) == [()]
    for top in (-1, 0, 1):
        assert list(feasible_labelings(path(2), top)) == []
    assert list(feasible_labelings(path(2), 2)) == [(1, 2), (2, 1)]


def test_iter_optimal_uses_td_budget():
    g = complete(3)
    assert list(feasible_labelings(g, tree_depth(g).value)) == [lab for lab in itertools.permutations((1, 2, 3))]


def test_is_reduced():
    assert is_reduced((1, 1, 2, 3))
    assert is_reduced((1, 2, 3))
    assert is_reduced((2, 2, 2))
    assert is_reduced(())
    assert not is_reduced((1, 3, 3))  # repeated 3 above singleton 1
    assert not is_reduced((1, 2, 2, 3))


def test_reduce_labeling_examples():
    assert reduce_labeling(path(3), (1, 3, 1)) == (1, 2, 1)
    assert reduce_labeling(path(3), (2, 3, 1)) == (2, 3, 1)
    assert reduce_labeling(cycle(4), (1, 3, 1, 4)) == (1, 2, 1, 3)
    with pytest.raises(ValueError):
        reduce_labeling(path(2), (1, 1))


def test_reduce_labeling_properties():
    rng = random.Random(43)
    for _ in range(200):
        n = rng.randrange(1, 6)
        g = Graph.from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        )
        labels = None
        for cand in itertools.product(range(1, n + 2), repeat=n):
            if rng.random() < 0.1 and ref_feasible(n, g.edges(), cand):
                labels = cand
                break
        if labels is None:
            continue
        red = reduce_labeling(g, labels)
        assert is_reduced(red)
        assert verify_feasible(g, red).feasible
        assert len(set(red)) == len(set(labels))
        assert max(red) <= max(labels)


def test_irreducible_core_examples():
    # star K_{1,2}: the two leaves share label 1, the core is 2K1
    star = path(3)
    core = irreducible_core(star, (1, 2, 1))
    assert core.core_vertices == (0, 2)
    assert core.core.n == 2 and core.core.edge_count() == 0
    assert core.restricted_labeling == (1, 1)

    g = cycle_complement(9)
    lab = next(feasible_labelings(g, tree_depth(g).value))
    assert lab == (1, 1, 2, 3, 4, 5, 6, 7, 8)
    c = irreducible_core(g, lab)
    assert c.core_vertices == (0, 1)
    assert c.core.edge_count() == 0
    assert surplus(c.core) == surplus(g) == 1

    # injective labeling -> empty core
    empty = irreducible_core(complete(3), (1, 2, 3))
    assert empty.core.n == 0 and empty.core_vertices == ()


def test_irreducible_core_validates():
    with pytest.raises(ValueError):
        irreducible_core(path(2), (1, 1))  # infeasible
    with pytest.raises(ValueError):
        irreducible_core(path(3), (1, 3, 1))  # feasible but not reduced
    with pytest.raises(ValueError):
        irreducible_core(path(2), (1, 3))  # max label above td


def test_core_surplus_properties_sweep():
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            s = surplus(g)
            for lab in feasible_labelings(g, tree_depth(g).value):
                red = reduce_labeling(g, lab)
                if max(red, default=0) > tree_depth(g).value:
                    continue
                c = irreducible_core(g, red)
                assert surplus(c.core) == s
                assert tree_depth(c.core).value <= s


def test_standard_andrasfai_labeling():
    assert standard_labeling_andrasfai(1) == (1, 2)
    assert standard_labeling_andrasfai(5) == (1, 2, 3, 2, 4, 5, 2, 6, 7, 2, 8, 9, 2, 10)
    for k in range(1, 6):
        lab = standard_labeling_andrasfai(k)
        g = andrasfai(k)
        assert len(lab) == g.n == 3 * k - 1
        assert max(lab) == 2 * k == tree_depth(g).value
        assert verify_feasible(g, lab).feasible
    with pytest.raises(ValueError):
        standard_labeling_andrasfai(0)


def test_t_uniqueness_values():
    assert criticality_report(complete(3)).min_t == (1, 1, 1)
    # a 1-unique vertex is not capped by size
    assert criticality_report(complete(12)).min_t[5] == 1
    assert criticality_report(Graph.from_edges(2, [])).min_t == (None, None)
    assert criticality_report(cycle(5)).min_t == (1,) * 5
    # hub of the subdivided clique is 2-unique but not 1-unique
    assert criticality_report(h_graph(4)).min_t == (2,) + (1,) * 6


def test_t_uniqueness_matches_star_clique_test():
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            report = criticality_report(g)
            assert [t == 1 for t in report.min_t] == list(report.one_unique)


def test_t_uniqueness_caps():
    # past criticality.T_UNIQUE_MAX_N a vertex that is not 1-unique reads None
    assert criticality_report(path(11)).min_t[0] is None
    assert criticality_report(h_graph(6)).min_t[0] is None  # the hub, n = 11
    assert criticality_report(cycle_complement(9)).min_t[0] == 1  # td 8 is no cap
