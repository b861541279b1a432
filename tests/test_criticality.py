import gc
import json
import random
import weakref
from dataclasses import fields

import pytest

from tdlab import (
    CriticalityReport,
    Graph,
    andrasfai,
    clique_prism,
    complete,
    criticality_report,
    critical_spanning_subgraph,
    cycle,
    cycle_complement,
    enumerate_graphs,
    g4k,
    h_graph,
    is_minor_critical,
    is_one_unique,
    k_net,
    path,
    pattern,
    to_graph6,
    tree_depth,
    tree_depth_decision,
)
from tdlab import criticality as criticality_module
from tdlab.criticality import _MinorTable
from tdlab.graphs import bits
from tdlab.solver import _SubsetSolver, _solver_for
from tdlab.verify import _direct_min_t

from oracles import disjoint_union, ref_tree_depth_dp, regular_corpus
from test_graphs import random_graph


def json_shape(value):
    """What json.loads gives back for value: tuples, at any depth, as lists."""
    if isinstance(value, dict):
        return {key: json_shape(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_shape(item) for item in value]
    return value


def test_one_unique_examples():
    assert criticality_report(complete(1)).one_unique == (True,)
    assert criticality_report(cycle(5)).one_unique == (True,) * 5
    h = h_graph(4)
    assert criticality_report(h).one_unique == (False, True, True, True, True, True, True)
    assert not is_one_unique(h)
    assert is_one_unique(complete(4))
    assert is_one_unique(cycle_complement(7))


def test_one_unique_empty_and_disconnected():
    assert is_one_unique(Graph.from_edges(0, []))  # vacuous
    assert not is_one_unique(Graph.from_edges(2, []))
    assert not is_one_unique(disjoint_union(complete(2), complete(2)))
    # in a disconnected graph no vertex is 1-unique at all
    g = pattern("2K2")
    assert criticality_report(g).one_unique == (False,) * 4


def unreduced_rows(table):
    """The minor table's answers asked at every edge and vertex through its
    primitives, with no orbits and no settle by a vertex whose deletion
    keeps the depth: the (u, v, delta) entries of the edge deletions and of
    the contractions, the vertex deletion deltas and the 1-unique flags.
    The reference that the table's stages are checked against."""
    g, full = table.g, table.full
    edges = g.edges()
    return (
        tuple((u, v, int(table.edge_drops(u, v))) for u, v in edges),
        tuple((u, v, int(table.contraction_drops(u, v))) for u, v in edges),
        tuple(int(table.solver.td(full ^ 1 << v) < table.value) for v in range(g.n)),
        tuple(table._unique_at(v) for v in range(g.n)),
    )


def stage_rows(table):
    """The same four rows read from the table's stages."""
    return (table.edge_deltas, table.contraction_deltas, tuple(int(not k) for k in table.keeps),
            table.one_unique)


def test_critical_examples():
    assert is_minor_critical(complete(1))
    assert is_minor_critical(complete(5))
    assert is_minor_critical(path(4))
    assert is_minor_critical(cycle(5))
    assert is_minor_critical(cycle_complement(6))
    assert is_minor_critical(h_graph(4))
    assert not is_minor_critical(path(5))
    assert not is_minor_critical(cycle(6))
    # the 2k-th cycle complement keeps its depth after the right deletion
    assert not criticality_report(cycle_complement(8)).is_subgraph_critical
    assert not is_minor_critical(pattern("2K2"))
    with pytest.raises(ValueError):
        is_minor_critical(Graph.from_edges(0, []))
    with pytest.raises(ValueError):
        criticality_report(Graph.from_edges(0, []))


def test_critical_flavors_from_definitions():
    rng = random.Random(47)
    for _ in range(40):
        g = random_graph(rng, n=rng.randrange(2, 7))
        if not g.edge_count():
            continue
        t = tree_depth(g).value
        edges_drop = all(
            tree_depth_decision(g.delete_edge(u, v), t - 1) for u, v in g.edges()
        )
        verts_drop = all(
            tree_depth_decision(g.delete_vertex(v), t - 1) for v in range(g.n)
        )
        contr_drop = all(
            tree_depth_decision(g.contract_edge(u, v), t - 1) for u, v in g.edges()
        )
        r = criticality_report(g)
        assert r.is_subgraph_critical == edges_drop
        assert r.is_induced_subgraph_critical == verts_drop
        assert r.is_minor_critical == (edges_drop and verts_drop and contr_drop)
        assert is_minor_critical(g) == r.is_minor_critical


def test_settled_contractions_match_exact_solves_n7():
    # n <= 6 is covered by test_minor_table_matches_exact_minor_solves; these
    # are the n = 7 graphs whose edge and vertex stages all drop the depth,
    # so a minor-criticality check reaches their contraction stage
    checked = 0
    for g in enumerate_graphs(7):
        table = _MinorTable(g)
        value = table.value
        vertices_drop = all(table.solver.td(table.full ^ 1 << v) < value for v in range(g.n))
        if not (vertices_drop and all(table.edge_drops(u, v) for u, v in g.edges())):
            continue
        checked += 1
        exact = tuple((u, v, value - tree_depth(g.contract_edge(u, v)).value) for u, v in g.edges())
        assert tuple((u, v, int(table.contraction_drops(u, v))) for u, v in g.edges()) == exact
        assert table.contraction_deltas == exact
    assert checked == 24


def test_contraction_stage_solves_only_unsettled_edges(monkeypatch):
    made = []

    class Recording(criticality_module._MinorSolver):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(criticality_module, "_MinorSolver", Recording)
    for g in (complete(5), cycle(5)):
        table = _MinorTable(g)
        assert table.one_unique == (True,) * 5
        assert len(made) == 1  # one star-clique solve per vertex orbit
        made.clear()
        assert table.contraction_deltas == tuple((u, v, 1) for u, v in g.edges())
        assert all(table.contraction_drops(u, v) for u, v in g.edges())
        assert table.one_unique == (True,) * 5
        assert not made
    # an edge between two vertices that are not 1-unique is solved: by the
    # primitive at every such edge, by the stage once per edge orbit that no
    # vertex keeping td settles (in P5, the ends keep it; 12 and 23 are
    # one orbit)
    g = path(5)
    table = _MinorTable(g)
    flags = table.one_unique
    made.clear()
    for u, v in g.edges():
        table.contraction_drops(u, v)
    assert len(made) == sum(1 for u, v in g.edges() if not flags[u] and not flags[v]) > 0
    made.clear()
    assert table.contraction_deltas == tuple((u, v, 0) for u, v in g.edges())
    assert len(made) == 1


def test_report_after_a_true_minor_critical_solves_no_minor_again(monkeypatch):
    # the search's screen asks minor_critical() and then report() of a hit;
    # on the ten minor-critical graphs with n = 7 and td = 5, the report
    # builds minor solvers only for min_t's eliminations, and equals the
    # report of a fresh table
    made, eliminated = [], []

    class Recording(criticality_module._MinorSolver):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    def recording_eliminated(self, s):
        eliminated.append(s)
        return plain_eliminated(self, s)

    plain_eliminated = _MinorTable._eliminated
    monkeypatch.setattr(criticality_module, "_MinorSolver", Recording)
    monkeypatch.setattr(_MinorTable, "_eliminated", recording_eliminated)
    tables = [t for t in map(_MinorTable, enumerate_graphs(7)) if t.value == 5 and t.minor_critical()]
    assert len(tables) == 10
    for table in tables:
        made.clear()
        eliminated.clear()
        report = table.report()
        assert len(made) == len(eliminated), to_graph6(table.g)
        assert report == criticality_report(table.g)


def test_report_min_t_matches_t_uniqueness():
    # against the labeling search, which shares no code with the minor
    # table's elimination kernel; the random graphs fill the old search cap
    # (n <= 10, td <= 6) past n = 7
    graphs = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    assert len(graphs) == 208
    rng = random.Random(211)
    while len(graphs) < 208 + 16:
        g = random_graph(rng, n=rng.randrange(8, 11))
        if tree_depth(g).value <= 6:
            graphs.append(g)
    for g in graphs:
        r = criticality_report(g)
        assert r.min_t == _direct_min_t(g, r.td)


def test_orbit_reduced_report_matches_the_per_question_table():
    # the report asks each question once per orbit of automorphisms(g); the
    # table's primitives ask it at every edge and vertex. On co-C8..co-C16 and
    # G_8, G_12, G_16 under seeded relabelings, random graphs with
    # n = 8..11, and three regular graphs of each shape in the corpus, where
    # refinement splits no cell
    rng = random.Random(2712)
    graphs = []
    for g in [cycle_complement(n) for n in range(8, 17)] + [g4k(k) for k in range(2, 5)]:
        graphs += [g.relabeled(rng.sample(range(g.n), g.n)) for _ in range(2)]
    graphs += [random_graph(rng, n=n) for n in range(8, 12) for _ in range(5)]
    for g in graphs + regular_corpus()[::5]:
        r = criticality_report(g)
        table = _MinorTable(g)
        assert (r.edge_deletion_deltas, r.contraction_deltas, r.vertex_deletion_deltas,
                r.one_unique, r.min_t) == (
            *unreduced_rows(table), tuple(map(table.min_t, range(g.n)))), to_graph6(g)


REPORT_FAMILY = (andrasfai(4), h_graph(5), h_graph(6), cycle_complement(10), cycle_complement(12),
                 k_net(6), clique_prism(5), g4k(3))


def keeps_a_vertex(g):
    """Does deleting some vertex of g keep its depth?"""
    value = tree_depth(g).value
    return any(tree_depth(g.delete_vertex(v)).value == value for v in range(g.n))


def graphs_that_keep_a_vertex(seed, per_n=3, sizes=range(6, 12)):
    """Seeded random graphs, per_n at each n in sizes, each with a vertex
    whose deletion keeps the depth."""
    rng = random.Random(seed)
    graphs = []
    for n in sizes:
        made = 0
        while made < per_n:
            g = random_graph(rng, n=n)
            if keeps_a_vertex(g):
                graphs.append(g)
                made += 1
    return graphs


def test_report_matches_a_fresh_per_question_table():
    # the report takes td(g) from its vertex deletions and settles the
    # flag, min_t and edges of a vertex whose deletion keeps td; a table on
    # a fresh solver asks every question through its primitives, with td(g)
    # from the solver's top-level search. td is also checked against the plain
    # recursion
    rng = random.Random(3207)
    graphs = [g.relabeled(rng.sample(range(g.n), g.n)) for g in REPORT_FAMILY for _ in range(2)]
    graphs += graphs_that_keep_a_vertex(3208)
    graphs += [disjoint_union(complete(3), complete(3)), disjoint_union(complete(1), cycle(5)),
               disjoint_union(path(3), complete(4)), complete(1)]
    for g in graphs:
        r = criticality_report(g)
        _solver_for.cache_clear()  # else the table reads the report's memo entry for td(g)
        table = _MinorTable(g)
        assert (r.td, r.edge_deletion_deltas, r.contraction_deltas, r.vertex_deletion_deltas,
                r.one_unique, r.min_t) == (
            table.value, *unreduced_rows(table), tuple(map(table.min_t, range(g.n)))), to_graph6(g)
        assert r.td == ref_tree_depth_dp(g.n, g.edges())(frozenset(range(g.n))), to_graph6(g)


def test_report_runs_no_top_level_certificate_search(monkeypatch):
    # td(g) of a connected graph is 1 + its least td(g - v), which the
    # report solves anyway, so the parent solver never settles the full set
    full_searches = []

    def recording_certificate(self, mask, bit, need):
        full_searches.append((self, mask))
        return plain_certificate(self, mask, bit, need)

    plain_certificate = _SubsetSolver._certificate
    monkeypatch.setattr(_SubsetSolver, "_certificate", recording_certificate)
    rng = random.Random(3209)
    for h in (k_net(6), h_graph(6), andrasfai(4), h_graph(5)):
        for _ in range(12):
            g = h.relabeled(rng.sample(range(h.n), h.n))
            full_searches.clear()
            criticality_report(g)
            parent = _solver_for(g.adj)
            assert (parent, g.full_mask()) not in full_searches, to_graph6(g)


def minor_operations_at(g, v):
    """The (adjacency rows, dropped mask) of each _MinorSolver that the
    minor table builds for v's 1-uniqueness flag, for deleting an edge at v
    and for contracting one, in g's numbering."""
    adj = g.adj
    rows = list(adj)
    for w in bits(adj[v]):
        rows[w] |= adj[v] ^ 1 << w
    ops = {(tuple(rows), 1 << v)}
    for a, b in g.edges():
        if v not in (a, b):
            continue
        rows = list(adj)
        rows[a] ^= 1 << b
        rows[b] ^= 1 << a
        ops.add((tuple(rows), 0))
        rows = list(adj)
        rows[a] = (adj[a] | adj[b]) & ~(1 << a | 1 << b)
        for w in bits(rows[a]):
            rows[w] |= 1 << a
        ops.add((tuple(rows), 1 << b))
    return ops


def test_a_vertex_whose_deletion_keeps_td_settles_its_flag_min_t_and_edges(monkeypatch):
    # g - v is a spanning subgraph of the star-clique transform at v and of
    # g/uv, and an induced subgraph of g - uv: none of them is shallower; and
    # a label of v's own would label g - v with td(g) - 1 labels
    made, scanned = [], []

    class Recording(criticality_module._MinorSolver):
        def __init__(self, parent, adj, dropped=0):
            super().__init__(parent, adj, dropped)
            made.append((tuple(adj), dropped))

    def recording_min_t(self, v):
        scanned.append(v)
        return plain_min_t(self, v)

    plain_min_t = _MinorTable.min_t
    monkeypatch.setattr(criticality_module, "_MinorSolver", Recording)
    monkeypatch.setattr(_MinorTable, "min_t", recording_min_t)
    pendant = Graph.from_edges(10, h_graph(5).edges() + [(8, 9)])  # H5 and a leaf at a clique vertex
    for g in [pendant] + graphs_that_keep_a_vertex(3210, per_n=2):
        made.clear()
        scanned.clear()
        r = criticality_report(g)
        kept = [v for v, d in enumerate(r.vertex_deletion_deltas) if not d]
        assert kept, to_graph6(g)
        for v in kept:
            assert not r.one_unique[v] and r.min_t[v] is None
            assert v not in scanned
            assert not minor_operations_at(g, v) & set(made), to_graph6(g)


def test_the_flag_stage_solves_no_vertex_whose_deletion_keeps_td(monkeypatch):
    # the screen of the n = 7 census at td 3 reads the flags of all 129
    # graphs of that depth; 679 of their 903 vertices keep td when deleted,
    # and their flags are False with no star-clique solve
    dropped = []

    class Recording(criticality_module._MinorSolver):
        def __init__(self, parent, adj, drop=0):
            super().__init__(parent, adj, drop)
            dropped.append(drop)

    graphs = [g for g in enumerate_graphs(7) if tree_depth(g).value == 3]
    kept = [[v for v in range(g.n) if tree_depth(g.delete_vertex(v)).value == 3] for g in graphs]
    assert len(graphs) == 129 and sum(map(len, kept)) == 679
    monkeypatch.setattr(criticality_module, "_MinorSolver", Recording)
    for g, vs in zip(graphs, kept):
        dropped.clear()
        flags = _MinorTable(g).one_unique
        assert not any(flags[v] for v in vs)
        assert not {1 << v for v in vs} & set(dropped), to_graph6(g)


def test_minor_critical_stops_at_a_vertex_that_keeps_td_with_no_minor_solve(monkeypatch):
    # the vertex deletions come first and are solved on the parent solver
    made = []

    class Recording(criticality_module._MinorSolver):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(criticality_module, "_MinorSolver", Recording)
    pendant = Graph.from_edges(10, h_graph(5).edges() + [(8, 9)])
    for g in [pendant, path(5), path(6)] + graphs_that_keep_a_vertex(3301, per_n=2):
        assert not is_minor_critical(g)
        assert not made, to_graph6(g)


def test_reports_share_their_edge_entries():
    # one (u, v, delta) tuple per value, whichever report holds it
    entry = criticality_report(cycle(6)).edge_deletion_deltas[0]
    assert entry == (0, 1, 1) and entry is criticality_report(complete(4)).contraction_deltas[0]


def test_report_complete_graph():
    r = criticality_report(complete(3))
    assert r.td == 3 and r.surplus == 0
    assert r.edge_deletion_deltas == ((0, 1, 1), (0, 2, 1), (1, 2, 1))
    assert r.contraction_deltas == ((0, 1, 1), (0, 2, 1), (1, 2, 1))
    assert r.vertex_deletion_deltas == (1, 1, 1)
    assert r.one_unique == (True, True, True)
    assert r.min_t == (1, 1, 1)
    assert r.is_minor_critical and r.is_subgraph_critical
    assert r.is_induced_subgraph_critical and r.is_one_unique_graph
    assert r.conjecture_checks == {"order": True, "maxdeg": True}


def test_report_subdivided_clique():
    r = criticality_report(h_graph(4))
    assert r.td == 5 and r.surplus == 2
    assert r.is_minor_critical and not r.is_one_unique_graph
    assert r.min_t == (2, 1, 1, 1, 1, 1, 1)
    assert r.one_unique == (False,) + (True,) * 6
    assert r.conjecture_checks == {"order": True, "maxdeg": True}


def test_hub_min_t_is_two_after_one_elimination(monkeypatch):
    # the hub of H4 and of H5 is the one vertex that is not 1-unique; the
    # largest independent L passes, so under every relabeling min_t reads 2
    # after one elimination solve past the flags. One H5 relabeling is
    # checked against the labeling search at every vertex
    eliminated = []

    def recording_eliminated(self, s):
        eliminated.append(s)
        return plain_eliminated(self, s)

    plain_eliminated = _MinorTable._eliminated
    monkeypatch.setattr(_MinorTable, "_eliminated", recording_eliminated)
    rng = random.Random(3105)
    for k in (4, 5):
        h = h_graph(k)
        for _ in range(12):
            g = h.relabeled(rng.sample(range(h.n), h.n))
            table = _MinorTable(g)
            flags = table.one_unique
            assert flags.count(False) == 1
            hub = flags.index(False)
            eliminated.clear()
            assert table.min_t(hub) == 2
            assert len(eliminated) == 1, to_graph6(g)
    assert tuple(map(table.min_t, range(g.n))) == _direct_min_t(g, table.value)


def test_report_min_t_outside_cap_is_none():
    r = criticality_report(cycle_complement(9))  # td 8, within the n cap
    assert r.td == 8
    assert r.min_t == (1,) * 9
    # dropping any vertex costs depth, but one edge deletion is free
    assert r.is_induced_subgraph_critical and not r.is_subgraph_critical
    # past n = 10 only the hub, which is not 1-unique, is left unscanned
    assert criticality_report(h_graph(6)).min_t == (None,) + (1,) * 10
    # 1-unique vertices read 1 at any size
    assert criticality_report(complete(12)).min_t == (1,) * 12


def test_report_round_trip():
    for g in (complete(3), h_graph(4), path(5), pattern("2K2"), h_graph(6)):
        data = criticality_report(g).to_dict()
        assert list(data) == [f.name for f in fields(CriticalityReport)]
        assert json.loads(json.dumps(data)) == json_shape(data)


def test_report_deltas_are_td_drops():
    g = cycle(6)
    r = criticality_report(g)
    for u, v, delta in r.edge_deletion_deltas:
        assert delta == r.td - tree_depth(g.delete_edge(u, v)).value
    for v, delta in zip(range(g.n), r.vertex_deletion_deltas):
        assert delta == r.td - tree_depth(g.delete_vertex(v)).value
    for u, v, delta in r.contraction_deltas:
        assert delta == r.td - tree_depth(g.contract_edge(u, v)).value


def test_critical_spanning_subgraph():
    s = critical_spanning_subgraph(cycle_complement(7))
    assert s.n == 7
    assert tree_depth(s).value == 6
    assert criticality_report(s).is_subgraph_critical
    assert set(s.edges()) <= set(cycle_complement(7).edges())
    assert critical_spanning_subgraph(complete(4)) == complete(4)
    rng = random.Random(53)
    for _ in range(15):
        g = random_graph(rng, n=rng.randrange(2, 7))
        s = critical_spanning_subgraph(g)
        assert s.n == g.n
        assert tree_depth(s).value == tree_depth(g).value
        assert criticality_report(s).is_subgraph_critical
        assert set(s.edges()) <= set(g.edges())


def test_spanning_subgraph_frees_the_graphs_solver_at_its_first_deletion(monkeypatch):
    # every table of the pass takes the kept solver, so g's solver and memo
    # go once the table of the first deletion is made, not at the end
    g = Graph.from_edges(5, [(0, 1), (2, 3), (2, 4), (3, 4)])  # deleting 01 keeps td 3
    solvers, alive = [], []

    class Watched(_MinorTable):
        def __init__(self, h, value=None):
            super().__init__(h, value)
            solvers.append(weakref.ref(self.solver))

        def edge_drops(self, u, v):
            alive.append([ref() is not None for ref in solvers])
            return super().edge_drops(u, v)

    monkeypatch.setattr(criticality_module, "_MinorTable", Watched)
    _solver_for.cache_clear()
    gc.collect()
    gc.disable()
    try:
        s = critical_spanning_subgraph(g)
    finally:
        gc.enable()
    assert s.edges() == [(2, 3), (2, 4), (3, 4)]
    assert alive == [[True], [False, True], [False, True], [False, True]]


def restart_spanning_subgraph(g):
    """The restart loop that critical_spanning_subgraph replaced: delete the
    first edge whose removal keeps the depth, then scan again from the start."""
    value = None
    while True:
        table = _MinorTable(g, value)
        value = table.value
        spare = next(((u, v) for u, v in g.edges() if not table.edge_drops(u, v)), None)
        if spare is None:
            return g
        g = g.delete_edge(*spare)


def test_spanning_subgraph_pass_matches_the_restart_loop():
    graphs = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    graphs += [cycle_complement(n) for n in range(8, 13)]
    for g in graphs:
        assert critical_spanning_subgraph(g) == restart_spanning_subgraph(g)
