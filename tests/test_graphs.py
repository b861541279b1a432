import itertools
import random
import time

import pytest

from tdlab import (
    Graph,
    Graph6Error,
    andrasfai,
    canonical_form,
    cartesian_product,
    clique_prism,
    contains_induced,
    cycle,
    cycle_complement,
    complete,
    enumerate_graphs,
    g4k,
    h_graph,
    k_net,
    parse_edge_list,
    parse_graph6,
    path,
    pattern,
    to_edge_list,
    to_graph6,
)
from tdlab.graphs import (
    GRAPH6_MAX_N,
    _refine,
    _target_cell,
    automorphisms,
    bits,
    mask_component,
    mask_components,
    orbits,
)

from oracles import (
    cell_colours,
    disjoint_union,
    ref_components,
    ref_decode_graph6,
    ref_isomorphic,
    ref_refine,
    ref_vertex_connectivity,
    regular_corpus,
    star_clique_transform,
)


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
    for rows in ([0b100, 0], [-1, 0], [0b10, 0], [0b1, 0b10]):
        with pytest.raises(ValueError):
            Graph(2, rows)  # a vertex >= n, a negative row, asymmetry, self-loops
    assert Graph(2, [0b10, 0b01]).edges() == [(0, 1)]


def test_graph_construction_is_linear_in_n():
    # each row is checked against n by a shift, not by an n-bit mask built
    # per row, which made an edge-list header like "1000000 0" take a minute
    start = time.process_time()
    g = Graph(400_000, [0] * 400_000)
    assert time.process_time() - start < 2.0
    assert g.n == 400_000 and g.edge_count() == 0


def test_basic_accessors():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 1)])
    assert g.edge_count() == 3
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    assert g.degree(0) == 1 and g.degree(1) == 2
    assert g.max_degree() == 2


def test_components_and_connectivity_flags():
    g = disjoint_union(path(3), complete(2))
    # components as masks, in ascending order of smallest vertex
    assert mask_components(g.adj, g.full_mask()) == [0b00111, 0b11000]
    assert not g.is_connected()
    assert path(3).is_connected()
    assert Graph.from_edges(0, []).is_connected()
    assert not Graph.from_edges(2, []).is_connected()


def test_mask_component_is_the_first_dfs_component():
    # the component of a mask's lowest vertex, on seeded masks of seeded
    # graphs, against the first component of the oracle's DFS
    rng = random.Random(3016)
    for _ in range(300):
        g = random_graph(rng, n=rng.randrange(1, 13))
        for _ in range(8):
            mask = rng.getrandbits(g.n)
            want = ref_components(g.n, g.edges(), bits(mask))
            got = mask_component(g.adj, mask)
            assert set(bits(got)) == (want[0] if want else set()), (g.edges(), mask)
    assert mask_component(path(3).adj, 0) == 0


def test_delete_edge():
    g = cycle(4).delete_edge(0, 3)
    assert isomorphic(g, path(4))
    with pytest.raises(ValueError):
        path(3).delete_edge(0, 2)


def _renumbered(edges, drop, merge_into=None):
    """The edge list once vertex drop is deleted, or first merged into
    merge_into, with the vertices above drop shifted down by one; written
    from the definition, as a reference for the Graph methods."""
    out = set()
    for a, b in edges:
        if merge_into is not None:
            a, b = (merge_into if a == drop else a), (merge_into if b == drop else b)
        if a != b and drop not in (a, b):
            a, b = a - (a > drop), b - (b > drop)
            out.add((min(a, b), max(a, b)))
    return sorted(out)


def test_delete_vertex_renumbers_downward():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    h = g.delete_vertex(1)
    # old 2,3 become 1,2; the only surviving edge is old (2,3)
    assert h.n == 3
    assert h.edges() == [(1, 2)]
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            for v in range(n):
                h = g.delete_vertex(v)
                assert h.n == n - 1 and h.edges() == _renumbered(g.edges(), v)
    for v in (-1, 3):
        with pytest.raises(ValueError):
            path(3).delete_vertex(v)


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
    for n in range(2, 7):
        for g in enumerate_graphs(n):
            for u, v in g.edges():
                expected = _renumbered(g.edges(), v, u)
                for a, b in ((u, v), (v, u)):
                    h = g.contract_edge(a, b)
                    assert h.n == n - 1 and h.edges() == expected


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
    g = star_clique_transform(cycle(5), 0)
    assert g.n == 4
    assert isomorphic(g, cycle(4))
    assert star_clique_transform(complete(4), 2) == complete(3)
    # isolated center just disappears
    assert star_clique_transform(disjoint_union(complete(1), path(2)), 0) == path(2)


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


def test_edge_list_order_is_capped_before_allocation():
    assert parse_edge_list(f"{GRAPH6_MAX_N} 0\n") == Graph.from_edges(GRAPH6_MAX_N, [])
    for header in (f"{GRAPH6_MAX_N + 1} 0\n", "1000000000 0\n"):
        with pytest.raises(ValueError, match="n <= 62"):
            parse_edge_list(header)


@pytest.mark.parametrize("text, message", [
    ("3 3\n0 x\n0 5\n", "expected 3 edge lines, got 2"),
    ("3 2\n0 5\n0 1 2\n", "line 3: expected 'u v'"),
    ("3 2\n0 5\nx 1\n", "invalid literal"),
    ("3 3\n0 1\n1 1\n0 5\n", "self-loop at vertex 1"),
    ("3 3\n0 1\n0 1\n2 3\n", r"edge \(2, 3\) out of range"),
])
def test_edge_list_reports_its_first_fault(text, message):
    # a wrong line count comes before a malformed line, which comes before
    # a bad pair, whatever their order in the input
    with pytest.raises(ValueError, match=message):
        parse_edge_list(text)


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


def test_canonical_form_is_invariant_where_refinement_stalls():
    # no cell of a regular graph splits before individualization, so a
    # search that skips a vertex of a target cell without a true
    # automorphism to prune it yields relabeling-dependent strings here
    rng = random.Random(29)
    for g in regular_corpus():
        key = canonical_form(g)
        for _ in range(4):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(g.relabeled(perm)) == key


def _assert_refine_matches_the_reference(g):
    """_refine against ref_refine from the unit partition, and at every
    level of the greedy path after individualizing each vertex of the
    target cell."""
    nbrs = [[u for u in range(g.n) if g.has_edge(u, v)] for v in range(g.n)]
    cells = _refine(g.adj)
    colors = cell_colours(cells, g.n)
    assert colors == ref_refine(nbrs, [0] * g.n), to_graph6(g)
    while target := _target_cell(cells):
        for w in bits(target):
            refined = cell_colours(_refine(g.adj, cells, w), g.n)
            assert refined == ref_refine(nbrs, colors, w), (to_graph6(g), colors, w)
        cells = _refine(g.adj, cells, (target & -target).bit_length() - 1)
        colors = cell_colours(cells, g.n)


def _refine_inputs(rng):
    """The family graphs under seeded relabelings."""
    families = ([cycle_complement(n) for n in range(8, 17)] + [g4k(k) for k in range(2, 5)]
                + [andrasfai(k) for k in range(3, 7)] + [h_graph(n) for n in range(5, 9)]
                + [k_net(k) for k in range(5, 8)] + [clique_prism(a) for a in range(4, 7)])
    return [g.relabeled(rng.sample(range(g.n), g.n)) for g in families]


def test_refine_matches_the_sorted_signature_reference():
    # seeded G(n, p) with n <= 12, the regular corpus, where the first
    # round splits nothing, and the family graphs under seeded relabelings
    rng = random.Random(2801)
    graphs = [random_graph(rng, n=rng.randint(0, 12)) for _ in range(600)] + regular_corpus()
    graphs += _refine_inputs(rng)
    for g in graphs:
        _assert_refine_matches_the_reference(g)


def test_refine_leaves_its_input_cells_unchanged():
    # automorphisms keeps each level's cells on its path and refines them
    # again for every vertex of the target cell; a _refine that changed
    # them would corrupt the later descents and only lose automorphisms
    graphs = regular_corpus() + _refine_inputs(random.Random(2901))
    for g in graphs:
        cells = _refine(g.adj)
        while target := _target_cell(cells):
            before = list(cells)
            for w in bits(target):
                assert _refine(g.adj, cells, w) is not cells
                assert cells == before, (to_graph6(g), w)
            cells = _refine(g.adj, cells, (target & -target).bit_length() - 1)


def _true_orbits(g):
    """The vertex and edge orbits of Aut(g), from every automorphism that
    networkx's matcher lists on the sparser of g and its complement: a set
    per vertex, and a set per edge (u, v) with u < v."""
    from networkx import Graph as NxGraph
    from networkx.algorithms.isomorphism import GraphMatcher

    sparse = g if 4 * g.edge_count() <= g.n * (g.n - 1) else g.complement()
    h = NxGraph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(sparse.edges())
    vertex = [set() for _ in range(g.n)]
    edge = {e: set() for e in g.edges()}
    for m in GraphMatcher(h, h).isomorphisms_iter():
        for v in range(g.n):
            vertex[v].add(m[v])
        for u, v in edge:
            edge[u, v].add((min(m[u], m[v]), max(m[u], m[v])))
    return vertex, edge


def test_automorphisms_are_checked_and_their_orbits_refine_the_true_orbits():
    # every graph with n <= 7 from the networkx atlas, an independent list
    from networkx.generators.atlas import graph_atlas_g

    for a in graph_atlas_g():
        g = Graph.from_edges(a.number_of_nodes(), a.edges())
        assert all(g.relabeled(sigma) == g for sigma in automorphisms(g))
        vertex, edge = _true_orbits(g)
        vertex_reps, edge_reps = orbits(g)
        edges = g.edges()
        assert all(vertex_reps[v] in vertex[v] for v in range(g.n))
        assert all(edges[edge_reps[i]] in edge[e] for i, e in enumerate(edges))


def test_orbits_equal_the_true_orbits_on_the_family_graphs():
    # co-C8..co-C16 and G_8, G_12, G_16, as built and relabeled
    rng = random.Random(2711)
    for g in [cycle_complement(n) for n in range(8, 17)] + [g4k(k) for k in range(2, 5)]:
        for h in (g, g.relabeled(rng.sample(range(g.n), g.n))):
            vertex, edge = _true_orbits(h)
            vertex_reps, edge_reps = orbits(h)
            edges = h.edges()
            assert [min(orbit) for orbit in vertex] == vertex_reps
            assert [edges.index(min(edge[e])) for e in edges] == edge_reps


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
    cases = [
        (complete(5), 4),
        (cycle(6), 2),
        (path(4), 1),
        (disjoint_union(complete(2), complete(2)), 0),
        (Graph.from_edges(1, []), 0),
        # petersen-free stand-in: prism K3 x K2 is 3-connected
        (cartesian_product(complete(3), complete(2)), 3),
    ]
    for g, k in cases:
        assert ref_vertex_connectivity(g.n, g.edges()) == k


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
    # the empty pattern embeds everywhere; a larger pattern nowhere
    empty = Graph(0, [])
    assert contains_induced(empty, empty)
    assert contains_induced(path(3), empty)
    assert not contains_induced(empty, pattern("2K1"))
    assert not contains_induced(path(3), pattern("2K2"))
    assert not contains_induced(complete(5), complete(6))


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
