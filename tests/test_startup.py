"""What ``import tdlab`` loads, and the package's export list.

The import checks run in a fresh interpreter, since this one has already
loaded every module that the other tests use."""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import tdlab

# every name that tdlab exported before labelings and verify became lazy, by home module
EXPORTS = {
    "criticality": ("CriticalityReport", "critical_spanning_subgraph", "criticality_report",
                    "is_minor_critical", "is_one_unique"),
    "errors": ("BudgetError", "Graph6Error"),
    "families": ("FAMILIES", "FORBIDDEN_LISTS", "PATTERNS", "andrasfai", "clique_prism", "complete",
                 "cycle", "cycle_complement", "fk_free", "g4k", "h_graph", "k_net", "path", "pattern"),
    "graphs": ("Graph", "canonical_form", "cartesian_product", "contains_induced", "parse_edge_list",
               "parse_graph6", "to_edge_list", "to_graph6"),
    "labelings": ("FeasibilityCheck", "IrreducibleCore", "feasible_labelings", "format_labeling",
                  "irreducible_core", "is_reduced", "parse_labeling", "reduce_labeling",
                  "standard_labeling_andrasfai", "verify_feasible"),
    "search": ("SearchCounters", "SearchJob", "SearchResult", "enumerate_graphs", "run_search"),
    "solver": ("MAX_VERTICES", "TreeDepthWitness", "surplus", "tree_depth", "tree_depth_decision"),
    "verify": ("CriterionResult", "run_criterion", "verify_paper"),
}
DEFERRED = ("multiprocessing", "tdlab.labelings", "tdlab.verify")


def _modules_after(code: str) -> set[str]:
    """The module names loaded once ``code`` has run in a fresh interpreter
    that imports this checkout's tdlab."""
    src = str(Path(tdlab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_loads_only_what_every_workload_runs():
    loaded = _modules_after("import tdlab, tdlab.cli")
    assert loaded.isdisjoint(DEFERRED)
    assert {f"tdlab.{m}" for m in ("graphs", "solver", "criticality", "search", "families")} <= loaded


def test_serial_search_loads_no_pool():
    loaded = _modules_after(
        "from tdlab import SearchJob, run_search\n"
        "run_search(SearchJob(td_target=3, n=5, critical=True, non_one_unique=True, threads=1))"
    )
    assert loaded.isdisjoint(DEFERRED)


def test_lazy_names_load_their_module_on_first_access():
    loaded = _modules_after("import tdlab\nassert tdlab.verify_feasible.__module__ == 'tdlab.labelings'")
    assert "tdlab.labelings" in loaded and "tdlab.verify" not in loaded
    loaded = _modules_after("import tdlab\nassert tdlab.verify.__name__ == 'tdlab.verify'")
    assert "tdlab.verify" in loaded


def test_every_export_resolves_to_its_modules_object():
    names = {name for group in EXPORTS.values() for name in group}
    assert sorted(tdlab.__all__) == sorted(names)
    assert names <= set(dir(tdlab))
    for home, group in EXPORTS.items():
        module = import_module(f"tdlab.{home}")
        for name in group:
            assert getattr(tdlab, name) is getattr(module, name), name
    star: dict[str, object] = {}
    exec("from tdlab import *", star)
    assert names <= set(star)
    from tdlab import verify_feasible, verify_paper

    assert verify_feasible is import_module("tdlab.labelings").verify_feasible
    assert verify_paper is import_module("tdlab.verify").verify_paper


def test_unknown_names_still_raise():
    with pytest.raises(AttributeError, match="no_such_name"):
        tdlab.no_such_name
