import pytest

from tdlab import (
    FORBIDDEN_LISTS,
    FamilySpec,
    Graph,
    andrasfai,
    canonical_form,
    cartesian_product,
    clique_prism,
    complete,
    contains_induced,
    cycle,
    cycle_complement,
    enumerate_graphs,
    fk_free,
    g4k,
    generate,
    h_graph,
    k_net,
    path,
    pattern,
    tree_depth,
    vertex_connectivity,
)

from oracles import ref_isomorphic


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
        assert vertex_connectivity(g) == k
    for k in range(1, 6):
        assert tree_depth(andrasfai(k)).value == 2 * k
    # each graph extends the previous one on the shared vertex prefix
    for j in (2, 3):
        assert andrasfai(j + 1).induced_subgraph(list(range(3 * j - 1))) == andrasfai(j)
    with pytest.raises(ValueError):
        andrasfai(0)


def test_generate_dispatch():
    assert generate(FamilySpec("complete", 4)) == complete(4)
    assert generate(FamilySpec("andrasfai", 3)) == andrasfai(3)
    assert generate(FamilySpec("pattern", pattern_id="2K2")) == pattern("2K2")
    with pytest.raises(ValueError):
        generate(FamilySpec("petersen", 1))
    with pytest.raises(ValueError):
        generate(FamilySpec("pattern"))


def test_forbidden_list_equivalence_small():
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            td = tree_depth(g).value
            for k in range(3):
                assert fk_free(g, k) == (td >= g.n - k)
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
