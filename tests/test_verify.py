import itertools
import json

import pytest

from tdlab import (
    TreeDepthWitness,
    canonical_form,
    complete,
    cycle,
    cycle_complement,
    enumerate_graphs,
    g4k,
    path,
    run_criterion,
    to_graph6,
    tree_depth,
    verify_feasible,
    verify_paper,
)
from tdlab import verify
from tdlab.cli import main
from tdlab.verify import _direct_min_t, _witness_sound

from oracles import ref_feasible


def test_run_criterion_validates_inputs():
    with pytest.raises(ValueError):
        run_criterion(0)
    with pytest.raises(ValueError):
        run_criterion(11)
    with pytest.raises(ValueError):
        run_criterion(1, level="medium")


def test_run_criterion_owns_the_verdict(monkeypatch):
    def seven_failures(full, bad):
        bad.extend(f"f{i}" for i in range(7))
        return "seven checks"

    def none(full, bad):
        return "no checks"

    monkeypatch.setattr(verify, "_CRITERIA", [(1, "failing", seven_failures), (2, "passing", none)])
    failed = run_criterion(1, "quick")
    assert not failed.passed
    assert failed.line().endswith("-- seven checks; failed: ['f0', 'f1', 'f2', 'f3', 'f4']")
    passed = run_criterion(2, "quick")
    assert passed.passed and passed.detail == "no checks"
    assert passed.line() == "[PASS] criterion 2: passing -- no checks"


# P3 (labels 1, 2, 1) and C4 (labels 1, 2, 1, 3) with their true forests,
# then bad forests under the same feasible labeling
P3_TRUE = (path(3), TreeDepthWitness(2, (1, 2, 1), (1, -1, 1)))
C4_TRUE = (cycle(4), TreeDepthWitness(3, (1, 2, 1, 3), (1, 3, 1, -1)))
BAD_FORESTS = [
    (cycle(4), TreeDepthWitness(3, (1, 2, 1, 3), (1, 3, 1, 1))),  # parent cycle 1 -> 3 -> 1
    (cycle(4), TreeDepthWitness(3, (1, 2, 1, 3), (1, 2, 3, -1))),  # a chain: 2 is labeled below its child 1
    (path(3), TreeDepthWitness(2, (1, 2, 1), (1, -1, -1))),  # edge 1-2 joins two roots
]


@pytest.mark.parametrize("g, witness", [P3_TRUE, C4_TRUE] + BAD_FORESTS,
                         ids=["P3", "C4", "cycle", "label-rule", "non-ancestors"])
def test_witness_sound_checks_the_forest(monkeypatch, g, witness):
    assert _witness_sound(g)  # the solver's own witness
    assert verify_feasible(g, witness.labeling)
    monkeypatch.setattr(verify, "tree_depth", lambda _: witness)
    assert _witness_sound(g) == (witness in (P3_TRUE[1], C4_TRUE[1]))


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
