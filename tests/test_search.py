import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import tdlab
from tdlab import (
    MAX_VERTICES,
    BudgetError,
    CriticalityReport,
    Graph,
    SearchCounters,
    SearchJob,
    SearchResult,
    canonical_form,
    cycle,
    enumerate_graphs,
    h_graph,
    parse_graph6,
    path,
    run_search,
    to_graph6,
    tree_depth,
)
from tdlab import search as search_module
from tdlab.search import ENUM_MAX_N, _enumerated_graph6

from oracles import ref_isomorphism_classes
from test_criticality import json_shape


CENSUS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def test_census_counts():
    for n, expect in CENSUS.items():
        assert sum(1 for _ in enumerate_graphs(n)) == expect
    for n in range(1, 6):
        assert CENSUS[n] == ref_isomorphism_classes(n)


def test_enumeration_is_canonical_and_sorted():
    for n in range(1, 7):
        lines = [to_graph6(g) for g in enumerate_graphs(n)]
        assert lines == sorted(lines)
        assert len(lines) == len(set(lines))
        for g6 in lines:
            g = parse_graph6(g6)
            assert g.n == n
            assert canonical_form(g) == g6


def test_enumeration_matches_networkx_atlas():
    # an independent class list: the atlas holds every graph on up to 7 nodes
    from networkx.generators.atlas import graph_atlas_g

    classes: dict[int, set[str]] = {n: set() for n in range(1, ENUM_MAX_N + 1)}
    for h in graph_atlas_g():
        n = h.number_of_nodes()
        if n:
            classes[n].add(canonical_form(Graph.from_edges(n, h.edges())))
    for n, expect in classes.items():
        assert set(_enumerated_graph6(n)) == expect


def test_import_loads_no_numpy():
    env = {**os.environ, "PYTHONPATH": str(Path(tdlab.__file__).resolve().parents[1])}
    code = "import sys, tdlab; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_package_runs_as_a_module():
    env = {**os.environ, "PYTHONPATH": str(Path(tdlab.__file__).resolve().parents[1])}
    argv = [sys.executable, "-m", "tdlab", "family", "cycle", "5"]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == "Dhc\n"


def test_enumeration_range():
    with pytest.raises(ValueError):
        list(enumerate_graphs(0))
    with pytest.raises(ValueError):
        list(enumerate_graphs(8))


def test_read_graph6_lines(monkeypatch):
    parsed = []

    def recording_parse(text):
        parsed.append(parse_graph6(text))
        return parsed[-1]

    monkeypatch.setattr(search_module, "parse_graph6", recording_parse)
    lines = (">>graph6<<", "", "A_", "  D?{  ", ">>comment", "?")
    res = run_search(SearchJob(td_target=1, graph6_lines=lines))
    assert [g.n for g in parsed] == [2, 5, 0]
    assert res.counters.graphs_scanned == 3


def test_flagship_counterexample_search():
    res = run_search(SearchJob(td_target=5, n=7, critical=True, non_one_unique=True))
    assert [g6 for g6, _ in res.hits] == ["FF`HW", "FQhXw"]
    assert res.hits[0][0] == canonical_form(h_graph(4))
    for g6, report in res.hits:
        assert report.is_minor_critical
        assert not report.is_one_unique_graph
        assert report.one_unique.count(False) == 1
    assert res.counters == SearchCounters(
        graphs_scanned=1044,
        graphs_at_target_td=386,
        critical_count=10,
        counterexample_count=2,
        skipped=0,
    )
    assert res.provenance == {"source": "builtin:n=7", "config_hash": "df2bb1ae65257782"}


def test_no_counterexamples_below_seven_vertices():
    for n in range(1, 7):
        for target in range(1, n + 1):
            res = run_search(
                SearchJob(td_target=target, n=n, critical=True, non_one_unique=True)
            )
            assert res.hits == ()
            assert res.counters.counterexample_count == 0


def test_stream_sources_match_builtin(tmp_path):
    lines = [to_graph6(g) for g in enumerate_graphs(5)]
    stream = tmp_path / "all5.g6"
    stream.write_text(">>header<<\n" + "\n".join(lines) + "\n")
    base = run_search(SearchJob(td_target=4, n=5, critical=True))
    from_file = run_search(SearchJob(td_target=4, graph6_path=str(stream), critical=True))
    pooled = run_search(SearchJob(td_target=4, graph6_path=str(stream), critical=True, threads=2))
    from_lines = run_search(SearchJob(td_target=4, graph6_lines=tuple(lines), critical=True))
    assert from_file.hits == base.hits == from_lines.hits == pooled.hits
    assert from_file.counters == base.counters == from_lines.counters == pooled.counters
    assert pooled.provenance == from_file.provenance
    assert from_file.provenance["source"].startswith("file:")
    assert from_lines.provenance["source"] == "lines:34"


def test_connected_only_filter():
    every = run_search(SearchJob(td_target=2, n=4))
    conn = run_search(SearchJob(td_target=2, n=4, connected_only=True))
    # td 2 on 4 vertices: P3+K1, 2K2, K2+2K1 are disconnected, P4/star/etc stay
    assert len(every.hits) > len(conn.hits)
    for g6, _ in conn.hits:
        assert parse_graph6(g6).is_connected()
    got = {g6 for g6, _ in every.hits} - {g6 for g6, _ in conn.hits}
    assert all(not parse_graph6(g6).is_connected() for g6 in got)


def test_threads_give_identical_results():
    one = run_search(SearchJob(td_target=4, n=6, critical=True, threads=1))
    two = run_search(SearchJob(td_target=4, n=6, critical=True, threads=2))
    assert one == two


def test_threads_must_be_positive(monkeypatch):
    def no_pool(*args):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(search_module, "Pool", no_pool)
    for threads in (0, -1):
        with pytest.raises(ValueError):
            run_search(SearchJob(td_target=3, n=5, threads=threads))


def test_stream_is_screened_as_it_is_read(monkeypatch):
    read = 0
    lines_read = search_module.graph6_lines
    screen = search_module._screen_one

    def counted(lines):
        nonlocal read
        for text in lines_read(lines):
            read += 1
            yield text

    screened = []

    def spy(*args):
        screened.append(read)
        return screen(*args)

    monkeypatch.setattr(search_module, "graph6_lines", counted)
    monkeypatch.setattr(search_module, "_screen_one", spy)
    lines = tuple(to_graph6(g) for g in enumerate_graphs(5))
    res = run_search(SearchJob(td_target=4, graph6_lines=lines))
    assert res.counters.graphs_scanned == len(screened) == len(lines)
    # the k-th screen starts when at most k + 1 lines have been read
    assert all(seen <= k + 1 for k, seen in enumerate(screened, 1))


def _serial_pool(monkeypatch, cores):
    """Pool sizes asked for, with Pool replaced by an in-process fake on a
    host of ``cores`` cores; no worker process is started."""
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, args, chunksize):
            return map(fn, args)

    monkeypatch.setattr(search_module, "Pool", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    return sizes


def test_pool_never_outnumbers_lines(monkeypatch):
    sizes = _serial_pool(monkeypatch, 8)
    lines = (to_graph6(cycle(5)), to_graph6(path(5)))
    res = run_search(SearchJob(td_target=4, graph6_lines=lines, threads=8))
    assert sizes == [2]
    assert res == run_search(SearchJob(td_target=4, graph6_lines=lines))


def test_pool_never_outnumbers_cores(monkeypatch):
    lines = tuple(to_graph6(g) for g in enumerate_graphs(5))
    serial = run_search(SearchJob(td_target=4, graph6_lines=lines))
    for cores, expect in ((3, [3]), (1, []), (None, [])):
        sizes = _serial_pool(monkeypatch, cores)
        res = run_search(SearchJob(td_target=4, graph6_lines=lines, threads=5000))
        assert sizes == expect
        assert res == serial


def test_hits_are_deduplicated_across_isomorphs():
    c5 = cycle(5)
    twisted = c5.relabeled([3, 1, 4, 2, 0])
    lines = (to_graph6(c5), to_graph6(twisted), to_graph6(path(5)))
    res = run_search(SearchJob(td_target=4, graph6_lines=lines))
    assert len(res.hits) == 1
    assert res.hits[0][0] == canonical_form(c5)
    assert res.counters.graphs_scanned == 3
    assert res.counters.graphs_at_target_td == 2


def test_skip_semantics():
    big = to_graph6(path(MAX_VERTICES + 1))
    with pytest.raises(BudgetError):
        run_search(SearchJob(td_target=3, graph6_lines=(big,)))
    res = run_search(SearchJob(td_target=3, graph6_lines=(big,), allow_skips=True))
    assert res.counters.skipped == 1
    assert res.counters.graphs_scanned == 1
    assert res.hits == ()


def test_empty_graph_line_is_below_every_target():
    res = run_search(SearchJob(td_target=1, graph6_lines=("?", "A_"), critical=True))
    assert res.counters.graphs_scanned == 2
    assert res.counters.graphs_at_target_td == 0
    assert res.hits == ()


def test_job_validation():
    with pytest.raises(ValueError):
        run_search(SearchJob(td_target=3))
    with pytest.raises(ValueError):
        run_search(SearchJob(td_target=3, n=5, graph6_lines=("A_",)))
    with pytest.raises(ValueError):
        run_search(SearchJob(td_target=0, n=5))
    with pytest.raises(ValueError):
        run_search(SearchJob(td_target=3, n=9))


def test_result_json_round_trip():
    res = run_search(SearchJob(td_target=4, n=5, critical=True))
    data = res.to_dict()
    assert list(data) == [f.name for f in fields(SearchResult)]
    assert list(data["counters"]) == [f.name for f in fields(SearchCounters)]
    assert res.hits
    for hit in data["hits"]:
        assert list(hit["report"]) == [f.name for f in fields(CriticalityReport)]
    assert json.loads(res.to_json()) == json_shape(data)


def test_provenance_is_deterministic():
    a = run_search(SearchJob(td_target=4, n=5))
    b = run_search(SearchJob(td_target=4, n=5))
    assert a.provenance == b.provenance
    c = run_search(SearchJob(td_target=3, n=5))
    assert c.provenance["config_hash"] != a.provenance["config_hash"]


def test_hits_report_matches_reported_td():
    res = run_search(SearchJob(td_target=4, n=5))
    assert res.hits
    for g6, report in res.hits:
        assert report.td == 4
        assert tree_depth(parse_graph6(g6)).value == 4
