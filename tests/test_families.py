import itertools

import pytest

from tdlab import (
    FAMILIES,
    FORBIDDEN_LISTS,
    Graph,
    andrasfai,
    canonical_form,
    cartesian_product,
    clique_prism,
    complete,
    contains_induced,
    criticality_report,
    cycle,
    cycle_complement,
    enumerate_graphs,
    fk_free,
    g4k,
    h_graph,
    k_net,
    path,
    pattern,
    to_graph6,
    tree_depth,
)

from oracles import ref_isomorphic, ref_tree_depth_dp, ref_vertex_connectivity


def isomorphic(g, h):
    return ref_isomorphic(g.n, g.edges(), h.n, h.edges())


def test_pattern_table():
    assert pattern("2K1").n == 2 and pattern("2K1").edge_count() == 0
    assert pattern("4K1").n == 4 and pattern("4K1").edge_count() == 0
    assert pattern("2K2").edges() == [(0, 1), (2, 3)]
    assert pattern("2K2+K1").n == 5 and pattern("2K2+K1").edges() == [(0, 1), (2, 3)]
    assert pattern("P3+K2").edges() == [(0, 1), (1, 2), (3, 4)]
    assert pattern("2K3").n == 6 and pattern("2K3").edge_count() == 6
    assert FORBIDDEN_LISTS == {
        0: ("2K1",),
        1: ("3K1", "2K2"),
        2: ("4K1", "2K2+K1", "P3+K2", "2K3"),
    }
    with pytest.raises(ValueError):
        pattern("K5")


def test_basic_families():
    assert complete(0).n == 0
    assert complete(4).edge_count() == 6
    assert path(1).n == 1 and path(4).edges() == [(0, 1), (1, 2), (2, 3)]
    assert cycle(3) == complete(3)
    assert cycle(5).edge_count() == 5
    assert cycle_complement(5) == cycle(5).complement()
    assert isomorphic(cycle_complement(5), cycle(5))
    for bad in (path, cycle, cycle_complement):
        with pytest.raises(ValueError):
            bad(0)
    with pytest.raises(ValueError):
        cycle(2)


def test_g4k_structure():
    g = g4k(2)
    assert g.n == 8
    assert g.edge_count() == 18  # co-C8 has 20, two spokes removed
    assert tree_depth(g).value == 7
    assert tree_depth(g4k(3)).value == 11
    # the same graph arises from co-C8 by deleting a rotated pair of spokes
    alt = cycle_complement(8).delete_edge(2, 6).delete_edge(0, 4)
    assert alt != g  # different labeled graphs
    assert canonical_form(alt) == canonical_form(g)
    with pytest.raises(ValueError):
        g4k(1)


def _girth_at_least_5(g):
    """No triangle and no 4-cycle: no two vertices share two neighbours,
    and no two adjacent ones share one."""
    for u, v in itertools.combinations(range(g.n), 2):
        common = g.adj[u] & g.adj[v]
        if common.bit_count() > 1 or common and g.has_edge(u, v):
            return False
    return True


def test_g4k_is_subgraph_critical_only_for_k_2_and_3():
    # td(g4k(k)) = n - 1, so g - uv keeps it iff g - uv has no induced 3K1
    # or 2K2 (criterion 6), i.e. iff the complement plus uv has girth >= 5
    for k, spare in ((2, 0), (3, 0), (4, 32), (5, 80)):
        g = g4k(k)
        report = criticality_report(g)
        kept = {(u, v) for u, v, d in report.edge_deletion_deltas if not d}
        chords = {e for e in g.edges() if _girth_at_least_5(g.delete_edge(*e).complement())}
        assert kept == chords and len(kept) == spare
        assert report.is_subgraph_critical == (k <= 3)


def test_k_net_structure():
    g = k_net(3)
    assert g.n == 6
    assert sorted(g.degree(v) for v in range(6)) == [1, 1, 1, 3, 3, 3]
    assert tree_depth(g).value == 4
    assert k_net(1) == path(2)
    for k in range(1, 7):
        assert tree_depth(k_net(k)).value == k + 1
    with pytest.raises(ValueError):
        k_net(0)


def test_clique_prism_structure():
    assert clique_prism(1) == complete(2)
    assert isomorphic(clique_prism(3), cycle_complement(6))
    assert clique_prism(4) == cartesian_product(complete(4), complete(2))
    for a in range(1, 7):
        g = clique_prism(a)
        assert g.n == 2 * a
        assert tree_depth(g).value == (3 * a + 1) // 2
    with pytest.raises(ValueError):
        clique_prism(0)


def test_h_graph_structure():
    h = h_graph(4)
    assert h.n == 7
    assert [h.degree(v) for v in range(7)] == [3, 2, 2, 2, 3, 3, 3]
    assert isomorphic(h_graph(3), cycle(5))
    for n in range(3, 7):
        assert tree_depth(h_graph(n)).value == n + 1
    # removing the hub leaves a clique with pendants
    assert canonical_form(h_graph(4).delete_vertex(0)) == canonical_form(k_net(3))
    assert canonical_form(h_graph(5).delete_vertex(0)) == canonical_form(k_net(4))
    with pytest.raises(ValueError):
        h_graph(2)


def test_andrasfai_structure():
    assert isomorphic(andrasfai(1), complete(2))
    assert isomorphic(andrasfai(2), cycle(5))
    for k in range(1, 6):
        g = andrasfai(k)
        assert g.n == 3 * k - 1
        assert all(g.degree(v) == k for v in range(g.n))
        assert not contains_induced(g, complete(3))
        assert ref_vertex_connectivity(g.n, g.edges()) == k
    for k in range(1, 6):
        assert tree_depth(andrasfai(k)).value == 2 * k
    # each graph extends the previous one on the shared vertex prefix
    for j in (2, 3):
        assert andrasfai(j + 1).induced_subgraph(list(range(3 * j - 1))) == andrasfai(j)
    with pytest.raises(ValueError):
        andrasfai(0)


def test_generate_dispatch():
    assert FAMILIES["complete"](4) == complete(4)
    assert FAMILIES["andrasfai"](3) == andrasfai(3)
    assert pattern("2K2") == Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(KeyError):
        FAMILIES["petersen"]
    with pytest.raises(ValueError):
        pattern("K9")


def test_forbidden_list_equivalence_small():
    # the solver's surplus-one and surplus-two stops rest on F_1 and F_2, so
    # tree_depth alone would check the lists against themselves; the
    # shortcut-free recursion checks them independently
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            td = tree_depth(g).value
            assert td == ref_tree_depth_dp(n, g.edges())(frozenset(range(n))), to_graph6(g)
            for k in range(3):
                assert fk_free(g, k) == (td >= g.n - k), (to_graph6(g), k)
    with pytest.raises(ValueError):
        fk_free(complete(2), 3)


def test_family_members_pass_their_own_screen():
    # the sparse 4k graphs and cycle complements sit exactly one below n
    for k in (2, 3):
        g = g4k(k)
        assert fk_free(g, 1) and not fk_free(g, 0)
    for n in range(5, 10):
        g = cycle_complement(n)
        assert fk_free(g, 1) and not fk_free(g, 0)
