"""Self-test of the benchmark's output checks: each checker passes a genuine
result and counts a tampered one as failed.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import tdlab  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def gnp_case():
    g = workloads.SolveGnp().make_inputs(1)[0][0]
    return g, workloads.SolveGnp._solve(g), checks.EXPECTED_GNP_TD[1][0][0]


@pytest.fixture(scope="module")
def report_case():
    wl = workloads.ReportFamily()
    name, perm, g = wl.make_inputs(1)[0][1]
    assert name == "H5"
    return name, perm, g, tdlab.criticality_report(g)


@pytest.fixture(scope="module")
def td5_screen():
    job = tdlab.SearchJob(td_target=5, n=7, critical=True, non_one_unique=True)
    return json.loads(tdlab.run_search(job).to_json())


def test_gnp_genuine_result_passes(gnp_case):
    g, out, expected = gnp_case
    assert checks.check_gnp(g, out, expected) == []


def test_gnp_wrong_td_fails(gnp_case):
    g, (value, labeling, at_td, below), expected = gnp_case
    problems = checks.check_gnp(g, (value + 1, labeling, at_td, below), expected)
    assert any("stored" in p for p in problems)


def test_gnp_infeasible_witness_fails(gnp_case):
    g, (value, _, at_td, below), expected = gnp_case
    problems = checks.check_gnp(g, (value, (value,) * g.n, at_td, below), expected)
    assert any("infeasible" in p for p in problems)


def test_report_genuine_result_passes(report_case):
    name, perm, g, report = report_case
    assert checks.check_report(name, perm, g, report) == []


def test_report_wrong_td_fails(report_case):
    name, perm, g, report = report_case
    tampered = dataclasses.replace(report, td=report.td - 1, surplus=report.surplus + 1)
    assert checks.check_report(name, perm, g, tampered)


def test_report_hub_marked_one_unique_fails(report_case):
    name, perm, g, report = report_case
    tampered = dataclasses.replace(report, one_unique=(True,) * g.n, is_one_unique_graph=True)
    assert checks.check_report(name, perm, g, tampered)


def test_census_genuine_screen_passes(td5_screen):
    assert checks.check_screen(True, 5, td5_screen) == []


def test_census_without_h4_hit_fails(td5_screen):
    tampered = dict(td5_screen)
    tampered["hits"] = [h for h in td5_screen["hits"] if h["graph6"] != checks.h4_canonical()]
    assert len(tampered["hits"]) == len(td5_screen["hits"]) - 1
    problems = checks.check_screen(True, 5, tampered)
    assert any("H4" in p for p in problems)
