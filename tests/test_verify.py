import itertools
import json

import pytest

from tdlab import (
    canonical_form,
    complete,
    cycle_complement,
    enumerate_graphs,
    g4k,
    path,
    run_criterion,
    to_graph6,
    tree_depth,
    verify_paper,
)
from tdlab.cli import main
from tdlab.verify import _direct_min_t

from oracles import ref_feasible


def test_run_criterion_validates_inputs():
    with pytest.raises(ValueError):
        run_criterion(0)
    with pytest.raises(ValueError):
        run_criterion(11)
    with pytest.raises(ValueError):
        run_criterion(1, level="medium")


def test_direct_min_t_matches_product_scan():
    # criterion 7's reference against every labeling in 1..td, each
    # checked by the per-pair path definition
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            td = tree_depth(g).value
            best = [None] * n
            for labels in itertools.product(range(1, td + 1), repeat=n):
                if not ref_feasible(n, g.edges(), labels):
                    continue
                for v, t in enumerate(labels):
                    if labels.count(t) == 1 and (best[v] is None or t < best[v]):
                        best[v] = t
            assert _direct_min_t(g, td) == tuple(best), to_graph6(g)


def test_result_line_format():
    r = run_criterion(8, "quick")
    assert r.cid == 8 and r.passed
    assert r.line().startswith("[PASS] criterion 8: ")
    assert " -- " in r.line()
    assert r.seconds >= 0


def test_n8_stream_screen_runs_through_search_input(tmp_path, capsys):
    # criterion 8's claim on an n = 8 stream: every 7-critical hit is
    # 1-unique, i.e. the screen counts no counterexample
    stream = tmp_path / "eight.g6"
    graphs = [g4k(2), cycle_complement(8), complete(8), path(8)]
    stream.write_text("\n".join(to_graph6(g) for g in graphs) + "\n")
    assert main(["search", "--td", "7", "--critical", "--input", str(stream)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["counters"] == {
        "graphs_scanned": 4,
        "graphs_at_target_td": 2,
        "critical_count": 1,
        "counterexample_count": 0,
        "skipped": 0,
    }
    [hit] = result["hits"]
    assert hit["graph6"] == "Grqix{" == canonical_form(g4k(2))
    assert hit["report"]["is_one_unique_graph"]


def test_verify_paper_quick_passes():
    results = verify_paper("quick")
    assert [r.cid for r in results] == list(range(1, 11))
    assert all(r.passed for r in results)
