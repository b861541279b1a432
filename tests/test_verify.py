import pytest

from tdlab import (
    SearchResult,
    canonical_form,
    complete,
    cycle_complement,
    g4k,
    path,
    run_criterion,
    to_graph6,
    verify_paper,
)
from tdlab.cli import main


def test_run_criterion_validates_inputs():
    with pytest.raises(ValueError):
        run_criterion(0)
    with pytest.raises(ValueError):
        run_criterion(11)
    with pytest.raises(ValueError):
        run_criterion(1, level="medium")


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
    result = SearchResult.from_json(capsys.readouterr().out)
    assert result.counters.to_dict() == {
        "graphs_scanned": 4,
        "graphs_at_target_td": 2,
        "critical_count": 1,
        "counterexample_count": 0,
        "skipped": 0,
    }
    [(g6, report)] = result.hits
    assert g6 == "Grqix{" == canonical_form(g4k(2))
    assert report.is_one_unique_graph


def test_verify_paper_quick_passes():
    results = verify_paper("quick")
    assert [r.cid for r in results] == list(range(1, 11))
    assert all(r.passed for r in results)
