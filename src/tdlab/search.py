"""Exhaustive small-graph enumeration and the screening pipeline that hunts
for minor-critical graphs, optionally restricted to those with a
non-1-unique vertex.

Built-in enumeration covers n <= 7 by vertex augmentation: every class on
n - 1 vertices gets a new vertex with every possible neighbour set, the
candidates where the new vertex has maximum degree are kept, and their
canonical forms are deduplicated in a set. Every graph on n vertices arises
this way (delete a vertex of maximum degree). Larger orders are consumed
from graph6 line streams.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from multiprocessing import Pool
from typing import Any, Iterable, Iterator

from .criticality import CriticalityReport, _minor_critical, _one_unique, criticality_report
from .errors import BudgetError
from .graphs import Graph, canonical_form, parse_graph6
from .solver import MAX_VERTICES, _MinorTable, tree_depth_decision

ENUM_MAX_N = 7


@lru_cache(maxsize=None)
def _enumerated_graph6(n: int) -> tuple[str, ...]:
    """Canonical graph6 strings of all isomorphism classes on n vertices."""
    if not 1 <= n <= ENUM_MAX_N:
        raise ValueError(f"built-in enumeration covers 1 <= n <= {ENUM_MAX_N}")
    if n == 1:
        return ("@",)
    new = 1 << (n - 1)
    classes = set()
    for line in _enumerated_graph6(n - 1):
        adj = parse_graph6(line).adj
        for nbrs in range(new):
            rows = [row | new if nbrs >> u & 1 else row for u, row in enumerate(adj)]
            if nbrs.bit_count() >= max(row.bit_count() for row in rows):
                classes.add(canonical_form(Graph(n, rows + [nbrs])))
    return tuple(sorted(classes))


def enumerate_graphs(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class on n vertices, in canonical
    graph6 order, each already canonically labeled."""
    for line in _enumerated_graph6(n):
        yield parse_graph6(line)


def _graph6_lines(lines: Iterable[str]) -> Iterator[str]:
    """Stripped lines of a graph6 stream, without blank and '>>' comment lines."""
    for line in lines:
        text = line.strip()
        if text and not text.startswith(">>"):
            yield text


def read_graph6_lines(lines: Iterable[str]) -> Iterator[Graph]:
    """Parse a graph6 stream, skipping blank lines and '>>' comment lines."""
    for text in _graph6_lines(lines):
        yield parse_graph6(text)


@dataclass(frozen=True)
class SearchJob:
    """One screening run. Exactly one source: built-in order ``n`` or a
    graph6 stream (``graph6_path`` or ``graph6_lines``). ``budget`` is the
    per-graph vertex cap; oversized graphs are recorded as skips and fail
    the run unless ``allow_skips`` is set."""

    td_target: int
    n: int | None = None
    graph6_path: str | None = None
    graph6_lines: tuple[str, ...] | None = None
    critical: bool = False
    non_one_unique: bool = False
    connected_only: bool = False
    budget: int = MAX_VERTICES
    allow_skips: bool = False
    threads: int = 1


@dataclass(frozen=True)
class SearchCounters:
    graphs_scanned: int
    graphs_at_target_td: int
    critical_count: int
    counterexample_count: int
    skipped: int

    def to_dict(self) -> dict[str, int]:
        return {
            "graphs_scanned": self.graphs_scanned,
            "graphs_at_target_td": self.graphs_at_target_td,
            "critical_count": self.critical_count,
            "counterexample_count": self.counterexample_count,
            "skipped": self.skipped,
        }


@dataclass(frozen=True)
class SearchResult:
    """Hits are (canonical graph6, report) pairs sorted by canonical form,
    deduplicated on canonical form.

    Counter semantics: critical_count / counterexample_count tally graphs
    whose minor-criticality was established during the run; with the
    critical filter off that is only the graphs that became hits.
    """

    hits: tuple[tuple[str, CriticalityReport], ...]
    counters: SearchCounters
    provenance: dict[str, str]

    def to_dict(self) -> dict[str, Any]:
        return {
            "hits": [
                {"graph6": g6, "report": report.to_dict()} for g6, report in self.hits
            ],
            "counters": self.counters.to_dict(),
            "provenance": dict(self.provenance),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "SearchResult":
        return SearchResult(
            hits=tuple(
                (h["graph6"], CriticalityReport.from_dict(h["report"]))
                for h in data["hits"]
            ),
            counters=SearchCounters(**data["counters"]),
            provenance=dict(data["provenance"]),
        )

    @staticmethod
    def from_json(text: str) -> "SearchResult":
        return SearchResult.from_dict(json.loads(text))


_CROSS_VALIDATE_MAX_N = 7


def _screen_one(args: tuple[str, int, bool, bool, bool, int, bool]) -> dict[str, Any]:
    """Screen one graph6 line; returns a plain dict so it pickles cheaply.
    A line flagged canonical (the built-in census) is its own canonical form.

    Stage order: budget, connectivity filter, td == target (decision with
    cutoff), the minor table's edge, vertex and contraction stages (skipping
    edges at 1-unique vertices, cross-validated against the full scan on
    small graphs), then 1-uniqueness annotation and the full report for hits.
    """
    g6, target, critical, non_one_unique, connected_only, budget, canonical = args
    g = parse_graph6(g6)
    out: dict[str, Any] = {"skipped": False, "at_td": False, "critical": None}
    if g.n > budget:
        out["skipped"] = True
        return out
    if connected_only and not g.is_connected():
        return out
    if not tree_depth_decision(g, target) or tree_depth_decision(g, target - 1):
        return out
    out["at_td"] = True
    ou = None
    if critical:
        table = _MinorTable(g, target)
        minor_critical, ou = _minor_critical(table, shortcut=True)
        # ou is set once the contraction stage has run
        if ou is not None and g.n <= _CROSS_VALIDATE_MAX_N:
            if all(d for _, _, d in table.contractions()) != minor_critical:
                raise RuntimeError(f"contraction shortcut disagrees with full check on {g6}")
        if not minor_critical:
            return out
        out["critical"] = True
        out["counterexample"] = not all(ou)
    if non_one_unique:
        if ou is None:
            ou = _one_unique(g, target)
        if all(ou):
            return out
    report = criticality_report(g)
    out["hit"] = True
    out["canon"] = canonical_form(g) if g.n <= 10 and not canonical else g6
    out["report"] = report.to_dict()
    if out["critical"] is None:
        out["critical"] = report.is_minor_critical
        out["counterexample"] = report.is_minor_critical and not report.is_one_unique_graph
    return out


def _job_lines(job: SearchJob) -> tuple[list[str], str]:
    sources = [job.n is not None, job.graph6_path is not None, job.graph6_lines is not None]
    if sum(sources) != 1:
        raise ValueError("job needs exactly one source: n, graph6_path, or graph6_lines")
    if job.n is not None:
        return list(_enumerated_graph6(job.n)), f"builtin:n={job.n}"
    if job.graph6_path is None:
        return list(_graph6_lines(job.graph6_lines)), f"lines:{len(job.graph6_lines)}"
    with open(job.graph6_path, "r", encoding="ascii") as fh:
        return list(_graph6_lines(fh)), f"file:{job.graph6_path}"


def _config_hash(job: SearchJob, descriptor: str) -> str:
    payload = json.dumps(
        {
            "td_target": job.td_target,
            "critical": job.critical,
            "non_one_unique": job.non_one_unique,
            "connected_only": job.connected_only,
            "budget": job.budget,
            "allow_skips": job.allow_skips,
            "source": descriptor,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]


def run_search(job: SearchJob) -> SearchResult:
    if job.td_target < 1:
        raise ValueError("td_target must be positive")
    if job.budget > MAX_VERTICES:
        raise ValueError(f"budget cannot exceed the solver cap {MAX_VERTICES}")
    lines, descriptor = _job_lines(job)
    args = [
        (
            g6,
            job.td_target,
            job.critical,
            job.non_one_unique,
            job.connected_only,
            job.budget,
            job.n is not None,
        )
        for g6 in lines
    ]
    if job.threads > 1 and len(args) > 1:
        with Pool(job.threads) as pool:
            screened = pool.map(_screen_one, args, chunksize=max(1, len(args) // (8 * job.threads)))
    else:
        screened = [_screen_one(a) for a in args]
    scanned = len(screened)
    at_td = sum(1 for s in screened if s["at_td"])
    critical_count = sum(1 for s in screened if s.get("critical"))
    counterexamples = sum(1 for s in screened if s.get("counterexample"))
    skipped = sum(1 for s in screened if s["skipped"])
    if skipped and not job.allow_skips:
        raise BudgetError(
            f"{skipped} graph(s) exceeded the per-graph budget {job.budget}; "
            "set allow_skips to accept a partial scan"
        )
    by_canon: dict[str, CriticalityReport] = {}
    for s in screened:
        if s.get("hit") and s["canon"] not in by_canon:
            by_canon[s["canon"]] = CriticalityReport.from_dict(s["report"])
    hits = tuple(sorted(by_canon.items()))
    counters = SearchCounters(
        graphs_scanned=scanned,
        graphs_at_target_td=at_td,
        critical_count=critical_count,
        counterexample_count=counterexamples,
        skipped=skipped,
    )
    provenance = {"source": descriptor, "config_hash": _config_hash(job, descriptor)}
    return SearchResult(hits=hits, counters=counters, provenance=provenance)
