import itertools
import random

import pytest

from tdlab import (
    Graph,
    Graph6Error,
    canonical_form,
    cartesian_product,
    contains_induced,
    cycle,
    cycle_complement,
    complete,
    disjoint_union,
    parse_edge_list,
    parse_graph6,
    path,
    pattern,
    to_edge_list,
    to_graph6,
    vertex_connectivity,
)

from oracles import ref_decode_graph6, ref_isomorphic


def random_graph(rng, n=None, p=None):
    if n is None:
        n = rng.randrange(1, 9)
    if p is None:
        p = rng.choice((0.2, 0.4, 0.6, 0.8))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def isomorphic(g, h):
    return ref_isomorphic(g.n, g.edges(), h.n, h.edges())


def test_graph_construction_validates():
    Graph.from_edges(0, [])
    with pytest.raises(ValueError):
        Graph.from_edges(-1, [])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(1, 1)])


def test_basic_accessors():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 1)])
    assert g.edge_count() == 3
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    assert list(g.neighbors(1)) == [0, 2]
    assert g.degree(0) == 1 and g.degree(1) == 2
    assert g.max_degree() == 2
    assert not g.is_complete()
    assert complete(4).is_complete()


def test_components_and_connectivity_flags():
    g = disjoint_union(path(3), complete(2))
    masks = g.component_masks()
    assert len(masks) == 2
    assert masks[0] == 0b00111 and masks[1] == 0b11000
    assert not g.is_connected()
    assert path(3).is_connected()
    assert Graph.from_edges(0, []).is_connected()
    assert not Graph.from_edges(2, []).is_connected()


def test_delete_edge():
    g = cycle(4).delete_edge(0, 3)
    assert isomorphic(g, path(4))
    with pytest.raises(ValueError):
        path(3).delete_edge(0, 2)


def test_delete_vertex_renumbers_downward():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    h = g.delete_vertex(1)
    # old 2,3 become 1,2; the only surviving edge is old (2,3)
    assert h.n == 3
    assert h.edges() == [(1, 2)]


def test_contract_edge_merges_into_smaller_endpoint():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    h = g.contract_edge(1, 2)
    assert h.n == 3
    assert isomorphic(h, path(3))
    # contracting a triangle edge keeps a single edge, no multi-edges
    t = complete(3).contract_edge(0, 1)
    assert t.n == 2 and t.edges() == [(0, 1)]
    with pytest.raises(ValueError):
        path(3).contract_edge(0, 2)


def test_induced_subgraph():
    g = cycle(5)
    h = g.induced_subgraph([0, 1, 3])
    assert h.n == 3
    assert h.edges() == [(0, 1)]
    assert g.induced_subgraph([]).n == 0


def test_complement_involution():
    rng = random.Random(5)
    for _ in range(30):
        g = random_graph(rng)
        assert g.complement().complement() == g
    assert complete(4).complement().edge_count() == 0


def test_star_clique_transform():
    # neighbors become a clique and the center goes away: C5 at any vertex -> C4
    g = cycle(5).star_clique_transform(0)
    assert g.n == 4
    assert isomorphic(g, cycle(4))
    assert complete(4).star_clique_transform(2) == complete(3)
    # isolated center just disappears
    assert disjoint_union(complete(1), path(2)).star_clique_transform(0) == path(2)


def test_disjoint_union_and_product():
    g = disjoint_union(cycle(3), path(2))
    assert g.n == 5 and g.edge_count() == 4
    p = cartesian_product(complete(3), complete(2))
    assert p.n == 6
    assert all(p.degree(v) == 3 for v in range(6))
    # K3 x K2 is the triangular prism, i.e. the complement of C6
    assert isomorphic(p, cycle_complement(6))


def test_relabeled():
    # perm[v] is the new name of old vertex v
    g = path(3).relabeled([2, 0, 1])
    assert g.edges() == [(0, 1), (0, 2)]
    with pytest.raises(ValueError):
        path(3).relabeled([0, 0, 1])


# graph6 codec


def test_graph6_known_values():
    assert to_graph6(Graph.from_edges(0, [])) == "?"
    assert to_graph6(Graph.from_edges(1, [])) == "@"
    assert to_graph6(complete(2)) == "A_"
    n, edges = ref_decode_graph6("D?{")
    assert n == 5
    assert edges == {(0, 4), (1, 4), (2, 4), (3, 4)}
    g = parse_graph6("D?{")
    assert g.n == 5 and set(g.edges()) == edges


def test_graph6_round_trip_against_reference_decoder():
    rng = random.Random(11)
    for _ in range(200):
        g = random_graph(rng, n=rng.randrange(0, 13))
        line = to_graph6(g)
        back = parse_graph6(line)
        assert back == g
        n, edges = ref_decode_graph6(line)
        assert n == g.n and edges == set(g.edges())


def test_graph6_errors_with_offsets():
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error) as e:
        parse_graph6("~??")  # multi-byte order form is out of scope
    assert e.value.offset == 0
    with pytest.raises(Graph6Error) as e:
        parse_graph6(chr(30) + "??")
    assert e.value.offset == 0
    with pytest.raises(Graph6Error) as e:
        parse_graph6("D?")  # n=5 needs two body bytes
    assert e.value.offset == 2
    with pytest.raises(Graph6Error) as e:
        parse_graph6("A_X")  # trailing byte
    assert e.value.offset == 2
    with pytest.raises(Graph6Error) as e:
        parse_graph6("A" + chr(200))
    assert e.value.offset == 1
    with pytest.raises(Graph6Error) as e:
        parse_graph6("Aw")  # nonzero padding bits for n=2
    assert e.value.offset == 1
    assert "offset" in str(e.value)


# edge list format


def test_edge_list_round_trip():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    text = to_edge_list(g)
    assert text.splitlines()[0] == "4 2"
    assert parse_edge_list(text) == g
    assert parse_edge_list("3 0\n") == Graph.from_edges(3, [])
    with pytest.raises(ValueError):
        parse_edge_list("3 2\n0 1\n")  # edge count mismatch
    with pytest.raises(ValueError):
        parse_edge_list("")


# canonical form


def test_canonical_form_is_isomorphism_invariant():
    rng = random.Random(23)
    for _ in range(150):
        g = random_graph(rng, n=rng.randrange(1, 9))
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = g.relabeled(perm)
        assert canonical_form(g) == canonical_form(h)
        assert parse_graph6(canonical_form(g)) is not None


def test_canonical_form_separates_non_isomorphic():
    for n in range(1, 6):
        seen = {}
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = Graph.from_edges(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
            key = canonical_form(g)
            if key in seen:
                assert ref_isomorphic(n, g.edges(), n, seen[key])
            else:
                seen[key] = g.edges()


def test_canonical_form_cap():
    canonical_form(complete(10))
    with pytest.raises(ValueError):
        canonical_form(complete(11))
    assert canonical_form(Graph.from_edges(0, [])) == "?"


# connectivity


def test_vertex_connectivity_values():
    assert vertex_connectivity(complete(5)) == 4
    assert vertex_connectivity(cycle(6)) == 2
    assert vertex_connectivity(path(4)) == 1
    assert vertex_connectivity(disjoint_union(complete(2), complete(2))) == 0
    assert vertex_connectivity(Graph.from_edges(1, [])) == 0
    # petersen-free stand-in: prism K3 x K2 is 3-connected
    assert vertex_connectivity(cartesian_product(complete(3), complete(2))) == 3


# induced subgraph containment


def test_contains_induced_examples():
    assert contains_induced(path(4), pattern("2K1"))
    assert contains_induced(cycle(6), pattern("2K2"))
    assert contains_induced(path(5), pattern("2K2"))
    assert not contains_induced(complete(5), pattern("2K1"))
    assert not contains_induced(cycle_complement(7), pattern("3K1"))
    # an induced 2K2 in the complement would be an induced C4 in the cycle
    assert not contains_induced(cycle_complement(8), pattern("2K2"))
    assert contains_induced(cycle(8), pattern("2K2"))


def test_contains_induced_brute_agreement():
    rng = random.Random(31)
    pats = [pattern(nm) for nm in ("2K1", "3K1", "2K2", "P3+K2")]
    for _ in range(60):
        g = random_graph(rng, n=rng.randrange(1, 8))
        for p in pats:
            ref = any(
                isomorphic(g.induced_subgraph(list(sub)), p)
                for sub in itertools.combinations(range(g.n), p.n)
            )
            assert contains_induced(g, p) == ref
