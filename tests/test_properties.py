"""Seeded randomized invariants that cut across modules."""

import gc
import random

from tdlab import (
    Graph,
    canonical_form,
    contains_induced,
    criticality_report,
    cycle,
    feasible_labelings,
    fk_free,
    parse_graph6,
    surplus,
    to_graph6,
    tree_depth,
    tree_depth_decision,
)

from oracles import star_clique_transform
from test_graphs import random_graph


def test_deletion_changes_td_by_at_most_one():
    rng = random.Random(101)
    for _ in range(60):
        g = random_graph(rng, n=rng.randrange(2, 8))
        t = tree_depth(g).value
        for u, v in g.edges():
            assert t - 1 <= tree_depth(g.delete_edge(u, v)).value <= t
        for v in range(g.n):
            assert t - 1 <= tree_depth(g.delete_vertex(v)).value <= t


def test_contraction_changes_td_by_at_most_two():
    rng = random.Random(103)
    for _ in range(60):
        g = random_graph(rng, n=rng.randrange(2, 8))
        t = tree_depth(g).value
        for u, v in g.edges():
            assert t - 2 <= tree_depth(g.contract_edge(u, v)).value <= t


def test_induced_subgraph_monotone():
    rng = random.Random(107)
    for _ in range(60):
        g = random_graph(rng, n=rng.randrange(1, 9))
        t = tree_depth(g).value
        keep = sorted(rng.sample(range(g.n), rng.randrange(0, g.n + 1)))
        assert tree_depth(g.induced_subgraph(keep)).value <= t


def test_decision_is_monotone_in_k():
    rng = random.Random(109)
    for _ in range(40):
        g = random_graph(rng, n=rng.randrange(1, 13))
        t = tree_depth(g).value
        assert not tree_depth_decision(g, t - 1)
        assert tree_depth_decision(g, t)
        assert tree_depth_decision(g, t + 1)


def test_surplus_range_and_completeness():
    rng = random.Random(113)
    for _ in range(60):
        g = random_graph(rng)
        s = surplus(g)
        assert 0 <= s <= max(g.n - 1, 0)
        assert (s == 0) == (g.edge_count() == g.n * (g.n - 1) // 2)


def test_forbidden_freeness_is_nested():
    rng = random.Random(127)
    for _ in range(80):
        g = random_graph(rng, n=rng.randrange(1, 10))
        td = tree_depth(g).value
        frees = [fk_free(g, k) for k in range(3)]
        for k in range(3):
            assert frees[k] == (td >= g.n - k)
        # freeness only grows as the allowance loosens
        for a, b in ((0, 1), (1, 2)):
            assert not frees[a] or frees[b]


def test_canonical_form_idempotent_and_stable():
    rng = random.Random(131)
    for _ in range(80):
        g = random_graph(rng)
        c = canonical_form(g)
        assert canonical_form(parse_graph6(c)) == c
        assert parse_graph6(to_graph6(g)) == g


def test_one_uniqueness_equals_t_uniqueness_one():
    rng = random.Random(137)
    for _ in range(25):
        g = random_graph(rng, n=rng.randrange(2, 8))
        r = criticality_report(g)
        assert [t == 1 for t in r.min_t] == list(r.one_unique)


def test_report_flags_match_delta_tables():
    rng = random.Random(139)
    for _ in range(25):
        g = random_graph(rng, n=rng.randrange(2, 7))
        if not g.edge_count():
            continue
        r = criticality_report(g)
        assert r.is_subgraph_critical == all(d > 0 for _, _, d in r.edge_deletion_deltas)
        assert r.is_induced_subgraph_critical == all(d > 0 for d in r.vertex_deletion_deltas)
        assert r.is_minor_critical == (
            r.is_subgraph_critical
            and r.is_induced_subgraph_critical
            and all(d > 0 for _, _, d in r.contraction_deltas)
        )
        assert r.is_one_unique_graph == all(r.one_unique)


def test_one_unique_check_equals_transform_depth_drop():
    # the minor table's star-clique stage against a full solve of the transform
    rng = random.Random(149)
    for _ in range(40):
        g = random_graph(rng, n=rng.randrange(1, 8))
        t = tree_depth(g).value
        flags = criticality_report(g).one_unique
        for v in range(g.n):
            dropped = tree_depth(star_clique_transform(g, v)).value < t
            assert flags[v] == dropped


def test_backtracking_searches_leave_no_reference_cycles():
    # each search frees its state when it returns or is dropped, without
    # waiting for the cyclic collector
    rng = random.Random(230)
    g8, g6 = random_graph(rng, n=8, p=0.5), random_graph(rng, n=6, p=0.5)
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            contains_induced(g8, cycle(4))
        left = [gc.collect()]
        for _ in range(20):
            list(feasible_labelings(g6, g6.n))
        left.append(gc.collect())
        for _ in range(20):
            next(feasible_labelings(g6, g6.n))
        left.append(gc.collect())
        for _ in range(20):
            canonical_form(g8)
        left.append(gc.collect())
    finally:
        gc.enable()
    assert left == [0, 0, 0, 0]
