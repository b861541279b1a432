import io
import json

import pytest

from tdlab import (
    FAMILIES,
    MAX_VERTICES,
    canonical_form,
    complete,
    cycle,
    h_graph,
    parse_graph6,
    path,
    to_edge_list,
    to_graph6,
)
from tdlab.cli import main
from tdlab.graphs import GRAPH6_MAX_N

OVER_CAP = to_graph6(path(MAX_VERTICES + 1)) + "\n"


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_td_from_stdin_graph6(capsys, monkeypatch):
    code, out, _ = run(capsys, ["td"], stdin="D?{\n", monkeypatch=monkeypatch)
    assert code == 0
    assert out.splitlines() == ["2", "1,1,1,1,2"]
    # a graph6 header line is skipped, not read as an edge list
    code, out, _ = run(capsys, ["td"], stdin=">>graph6<<\nDhc\n", monkeypatch=monkeypatch)
    assert code == 0 and out.splitlines()[0] == "4"


def test_td_json(capsys, monkeypatch):
    code, out, _ = run(capsys, ["td", "--json"], stdin="D?{\n", monkeypatch=monkeypatch)
    assert code == 0
    data = json.loads(out)
    assert data == {
        "td": 2,
        "labeling": [1, 1, 1, 1, 2],
        "elimination_forest": [4, 4, 4, 4, -1],
    }


def test_td_from_edge_list_file(capsys, tmp_path):
    f = tmp_path / "g.edges"
    f.write_text(to_edge_list(cycle(5)))
    code, out, _ = run(capsys, ["td", "--input", str(f)])
    assert code == 0
    assert out.splitlines()[0] == "4"
    # detection is total, so there is no format override
    with pytest.raises(SystemExit) as exc:
        main(["td", "--input", str(f), "--format", "edges"])
    assert exc.value.code == 2


def test_single_graph_commands_refuse_a_stream(capsys, monkeypatch):
    for argv in (["td"], ["report"], ["check-labeling", "1,1,1,1,2"]):
        code, out, err = run(capsys, argv, stdin="Dhc\nD~{\n", monkeypatch=monkeypatch)
        assert code == 1 and out == ""
        assert "error:" in err and "search --input" in err
    # header, comment and blank lines around one graph leave one graph
    code, out, _ = run(capsys, ["td"], stdin=">>graph6<<\nDhc\n>>end\n\n", monkeypatch=monkeypatch)
    assert code == 0 and out.splitlines()[0] == "4"


class EndlessStdin:
    """A stdin that yields one graph6 line forever and cannot be read whole."""

    def read(self, *args):
        raise AssertionError("the whole input was read")

    def __iter__(self):
        while True:
            yield "Dhc\n"


def test_single_graph_commands_refuse_an_endless_stream(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", EndlessStdin())
    for argv in (["td"], ["report"], ["check-labeling", "1,1,1,1,2"]):
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert err.startswith("error: input holds more than one graph6 line")


def test_edge_list_keeps_its_header_line(capsys, monkeypatch):
    # a '>>' line before an edge list is its header, as in parse_edge_list
    code, out, _ = run(capsys, ["td"], stdin="\n4 1\n\n0 1\n", monkeypatch=monkeypatch)
    assert code == 0 and out.splitlines()[0] == "2"
    code, out, err = run(capsys, ["td"], stdin=">>x\n4 1\n0 1\n", monkeypatch=monkeypatch)
    assert code == 1 and out == "" and err == "error: edge-list header must be 'n m'\n"


def test_td_budget_exceeded(capsys, monkeypatch):
    code, _, err = run(capsys, ["td"], stdin=OVER_CAP, monkeypatch=monkeypatch)
    assert code == 1
    assert "error:" in err


def test_td_edge_list_over_order_cap(capsys, monkeypatch):
    # the header is refused before a row is allocated, so a huge order
    # gives the usual error line, not an uncaught MemoryError
    code, out, err = run(capsys, ["td"], stdin="1000000000 0\n", monkeypatch=monkeypatch)
    assert code == 1 and out == "" and err.startswith("error:")


def test_td_bad_graph6(capsys, tmp_path):
    f = tmp_path / "bad.g6"
    f.write_text("D?\n")
    code, _, err = run(capsys, ["td", "--input", str(f)])
    assert code == 1
    assert "offset" in err


def test_check_labeling_feasible(capsys, monkeypatch):
    code, out, _ = run(
        capsys, ["check-labeling", "1,1,1,1,2"], stdin="D?{\n", monkeypatch=monkeypatch
    )
    assert code == 0
    assert out.strip() == "feasible"


def test_check_labeling_infeasible(capsys, monkeypatch):
    code, out, _ = run(
        capsys, ["check-labeling", "1,1,1,1,1"], stdin="D?{\n", monkeypatch=monkeypatch
    )
    assert code == 1
    assert "infeasible" in out
    code, out, _ = run(
        capsys,
        ["check-labeling", "--json", "1,1,1,1,1"],
        stdin="D?{\n",
        monkeypatch=monkeypatch,
    )
    assert code == 1
    assert json.loads(out) == {"feasible": False, "violation": [1, 0, 1]}


def test_check_labeling_wrong_length(capsys, monkeypatch):
    code, _, err = run(
        capsys, ["check-labeling", "1,2"], stdin="D?{\n", monkeypatch=monkeypatch
    )
    assert code == 2
    assert "usage error" in err


def test_budget_is_not_an_option(capsys, monkeypatch):
    for argv in (["td"], ["report"], ["search", "--td", "2", "--n", "3"], ["check-labeling", "1,2,1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv[:1] + ["--budget", "3"] + argv[1:])
        assert exc.value.code == 2
    code, _, err = run(capsys, ["report"], stdin=OVER_CAP, monkeypatch=monkeypatch)
    assert code == 1 and "error:" in err


def test_report_human(capsys, monkeypatch):
    code, out, _ = run(capsys, ["report"], stdin="Dhc\n", monkeypatch=monkeypatch)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "td: 4"
    assert "minor-critical: True" in lines
    assert "1-unique: True" in lines
    assert any(line.startswith("min_t: 1,1,1,1,1") for line in lines)


def test_report_json(capsys, monkeypatch):
    code, out, _ = run(capsys, ["report", "--json"], stdin="Dhc\n", monkeypatch=monkeypatch)
    assert code == 0
    data = json.loads(out)
    assert data["td"] == 4 and data["is_minor_critical"]


def test_family_outputs(capsys):
    code, out, _ = run(capsys, ["family", "cycle", "5"])
    assert code == 0 and out.strip() == "Dhc"
    code, out, _ = run(capsys, ["family", "andrasfai", "3"])
    assert code == 0 and out.strip() == "GhdHKc"
    code, out, _ = run(capsys, ["family", "pattern", "2K2"])
    assert code == 0 and out.strip() == "C`"
    code, out, _ = run(capsys, ["family", "h_graph", "4", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 7 and parse_graph6(data["graph6"]) == h_graph(4)


def test_family_errors(capsys):
    code, _, err = run(capsys, ["family", "cycle"])
    assert code == 2 and "usage error" in err
    code, _, err = run(capsys, ["family", "cycle", "two"])
    assert code == 2
    code, _, err = run(capsys, ["family", "pattern"])
    assert code == 2
    code, _, err = run(capsys, ["family", "pattern", "K9"])
    assert code == 1  # unknown id is a domain error, not a usage error
    code, _, err = run(capsys, ["family", "cycle", "2"])
    assert code == 1
    with pytest.raises(SystemExit):
        main(["family", "petersen", "1"])  # argparse rejects unknown names


def test_family_parameter_past_graph6_order_fails_before_building(capsys, monkeypatch):
    # every member has at least its parameter's number of vertices, so a
    # parameter above GRAPH6_MAX_N is refused without calling the builder
    def boom(k):
        raise AssertionError(f"builder called with {k}")

    monkeypatch.setitem(FAMILIES, "path", boom)
    code, out, err = run(capsys, ["family", "path", "100000000"])
    assert code == 1 and out == "" and err.startswith("error:")
    code, out, _ = run(capsys, ["family", "complete", str(GRAPH6_MAX_N)])
    assert code == 0 and out.strip() == to_graph6(complete(GRAPH6_MAX_N))


def test_search_stdout(capsys):
    code, out, _ = run(
        capsys, ["search", "--td", "5", "--n", "7", "--critical", "--non-1-unique"]
    )
    assert code == 0
    res = json.loads(out)
    assert [hit["graph6"] for hit in res["hits"]] == ["FF`HW", "FQhXw"]
    assert res["hits"][0]["graph6"] == canonical_form(h_graph(4))


def test_search_output_file(capsys, tmp_path):
    dest = tmp_path / "out.json"
    code, out, _ = run(
        capsys, ["search", "--td", "4", "--n", "5", "--critical", "--output", str(dest)]
    )
    assert code == 0 and out == ""
    res = json.loads(dest.read_text())
    assert res["counters"]["graphs_scanned"] == 34
    assert all(hit["report"]["is_minor_critical"] for hit in res["hits"])


def test_search_source_validation(capsys, tmp_path):
    code, _, err = run(capsys, ["search", "--td", "4"])
    assert code == 2 and "usage error" in err
    stream = tmp_path / "s.g6"
    stream.write_text("Dhc\n")
    code, _, err = run(capsys, ["search", "--td", "4", "--n", "5", "--input", str(stream)])
    assert code == 2
    code, _, err = run(capsys, ["search", "--td", "4", "--input", str(tmp_path / "no.g6")])
    assert code == 1  # missing file is a domain error


def test_search_with_stream_and_skips(capsys, tmp_path):
    stream = tmp_path / "s.g6"
    stream.write_text(">>header\nDhc\nD?{\n")
    code, out, _ = run(capsys, ["search", "--td", "4", "--input", str(stream)])
    assert code == 0
    res = json.loads(out)
    assert res["counters"]["graphs_scanned"] == 2
    assert len(res["hits"]) == 1
    # the graph6 header may share its line with the first graph (C5 here)
    stream.write_text(">>graph6<<Dhc\nD~{\n")
    code, out, _ = run(capsys, ["search", "--td", "4", "--input", str(stream)])
    assert code == 0
    res = json.loads(out)
    assert res["counters"]["graphs_scanned"] == 2
    assert [hit["graph6"] for hit in res["hits"]] == [canonical_form(cycle(5))]
    stream.write_text(">>header\nDhc\n" + OVER_CAP + "D?{\n")
    code, _, err = run(capsys, ["search", "--td", "4", "--input", str(stream)])
    assert code == 1 and "error:" in err
    code, out, _ = run(capsys, ["search", "--td", "4", "--input", str(stream), "--allow-skips"])
    assert code == 0
    res = json.loads(out)
    assert res["counters"]["skipped"] == 1
    assert res["counters"]["graphs_scanned"] == 3
    assert len(res["hits"]) == 1


def test_verify_paper_quick(capsys):
    code, out, _ = run(capsys, ["verify-paper", "--level", "quick"])
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("[")]
    assert len(lines) == 10
    assert all(ln.startswith("[PASS]") for ln in lines)


def test_verify_paper_json(capsys):
    code, out, _ = run(capsys, ["verify-paper", "--level", "quick", "--json"])
    assert code == 0
    data = json.loads(out)
    assert [d["criterion"] for d in data] == list(range(1, 11))
    assert all(d["passed"] for d in data)
