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

import json
import os
from collections import Counter
from dataclasses import asdict, dataclass, fields, replace
from functools import lru_cache, partial
from itertools import chain, islice
from multiprocessing import Pool
from typing import Any, Iterator

from .criticality import CriticalityReport, _MinorTable
from .errors import BudgetError
from .graphs import CANONICAL_MAX_N, Graph, canonical_form, graph6_lines, parse_graph6
from .solver import MAX_VERTICES

ENUM_MAX_N = 7
# Lines per pool task: enough that the parent's share of pickling and
# result handling stays small on long streams (64 was slower there), few
# enough that two workers split the n = 7 census (1,044 lines) evenly.
_LINES_PER_TASK = 512
# What _screen_one returns for one line: the SearchCounters fields it adds
# one to, and the (key, report) pair of a hit or None.
_Screened = tuple[list[str], tuple[str, CriticalityReport] | None]


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


@dataclass(frozen=True)
class SearchJob:
    """One screening run. Exactly one source: built-in order ``n`` or a
    graph6 stream (``graph6_path`` or ``graph6_lines``), read one line at a
    time; a '>>graph6<<' header is cut from the front of its line, and
    blank lines and other '>>' lines are skipped. A graph over the solver's
    vertex cap, MAX_VERTICES, is recorded as a skip and fails the run
    unless ``allow_skips`` is set.
    ``threads`` > 1 screens in a pool of that many worker processes, but
    no more than one per core or one per line. Every worker task carries
    the job itself, without ``graph6_lines``."""

    td_target: int
    n: int | None = None
    graph6_path: str | None = None
    graph6_lines: tuple[str, ...] | None = None
    critical: bool = False
    non_one_unique: bool = False
    connected_only: bool = False
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
        return asdict(self)


@dataclass(frozen=True)
class SearchResult:
    """Hits are (graph6, report) pairs sorted by graph6 and deduplicated on
    it. A graph with n <= 10 is keyed by its canonical form; a larger one
    keeps its input encoding, so isomorphic copies of it stay separate.

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


def _screen_one(job: SearchJob, g6: str) -> _Screened:
    """Screen one graph6 line; the result pickles. A line of the built-in
    census (``job.n`` set) is its own canonical form.

    Stage order: vertex cap, connectivity filter, td == target (the exact solve
    of the minor table's parent), then the table's vertex, edge and
    contraction questions in minor_critical(), whose contractions read the
    table's 1-unique flags; the 1-uniqueness filter reads the same flags,
    settled by the vertices whose deletion keeps td; for hits, the full
    report from the same table, which solves no minor again after a True
    from minor_critical().
    """
    g = parse_graph6(g6)
    counts = ["graphs_scanned"]
    if g.n > MAX_VERTICES:
        return counts + ["skipped"], None
    # an empty graph (td 0) is below every target, and has no table
    if g.n == 0 or job.connected_only and not g.is_connected():
        return counts, None
    table = _MinorTable(g)
    if table.value != job.td_target:
        return counts, None
    counts.append("graphs_at_target_td")
    if job.critical and not table.minor_critical():
        return counts, None
    if job.non_one_unique and all(table.one_unique):
        # dropped by the 1-uniqueness filter: under job.critical, a critical
        # graph that is 1-unique
        if job.critical:
            counts.append("critical_count")
        return counts, None
    report = table.report()
    if report.is_minor_critical:
        counts.append("critical_count")
        if not report.is_one_unique_graph:
            counts.append("counterexample_count")
    key = canonical_form(g) if g.n <= CANONICAL_MAX_N and job.n is None else g6
    return counts, (key, report)


def _file_lines(path: str) -> Iterator[str]:
    with open(path, "r", encoding="ascii") as fh:
        yield from graph6_lines(fh)


def _job_lines(job: SearchJob) -> tuple[Iterator[str], str]:
    """The job's graph6 lines, read lazily, and its source descriptor."""
    sources = [job.n is not None, job.graph6_path is not None, job.graph6_lines is not None]
    if sum(sources) != 1:
        raise ValueError("job needs exactly one source: n, graph6_path, or graph6_lines")
    if job.n is not None:
        return iter(_enumerated_graph6(job.n)), f"builtin:n={job.n}"
    if job.graph6_path is None:
        return graph6_lines(job.graph6_lines), f"lines:{len(job.graph6_lines)}"
    return _file_lines(job.graph6_path), f"file:{job.graph6_path}"


def _config_hash(job: SearchJob, descriptor: str) -> str:
    import hashlib  # here: it loads OpenSSL, about 3.5 MB of RSS that only a search needs

    payload = json.dumps(
        {
            "td_target": job.td_target,
            "critical": job.critical,
            "non_one_unique": job.non_one_unique,
            "connected_only": job.connected_only,
            "budget": MAX_VERTICES,  # the vertex cap in force; this key keeps hashes stable
            "allow_skips": job.allow_skips,
            "source": descriptor,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]


def _screened(job: SearchJob, lines: Iterator[str]) -> Iterator[_Screened]:
    """_screen_one over the lines, in order. With threads > 1 a pool of at
    most one worker per core and per line screens _LINES_PER_TASK lines per
    task; its task pipe holds back the reading of the lines."""
    # the job goes to every task: without its lines, a task stays small
    screen = partial(_screen_one, replace(job, graph6_lines=None))
    head = list(islice(lines, min(job.threads, os.cpu_count() or 1)))
    if len(head) < 2:
        yield from map(screen, chain(head, lines))
        return
    with Pool(len(head)) as pool:
        yield from pool.imap(screen, chain(head, lines), chunksize=_LINES_PER_TASK)


def run_search(job: SearchJob) -> SearchResult:
    """Screen the job's source in one pass. Each screen result is folded
    into the counters and, for a hit, kept as the report of its key unless
    the key is already held, so memory holds the counters and one report
    per distinct hit. Skips raise BudgetError after the whole pass unless
    ``allow_skips`` is set."""
    if job.td_target < 1:
        raise ValueError("td_target must be positive")
    if job.threads < 1:
        raise ValueError("threads must be positive")
    lines, descriptor = _job_lines(job)
    counts: Counter[str] = Counter()
    by_canon: dict[str, CriticalityReport] = {}
    for flags, hit in _screened(job, lines):
        counts.update(flags)
        if hit is not None:
            by_canon.setdefault(*hit)
    if counts["skipped"] and not job.allow_skips:
        raise BudgetError(
            f"{counts['skipped']} graph(s) exceeded the solver cap {MAX_VERTICES}; "
            "set allow_skips to accept a partial scan"
        )
    counters = SearchCounters(**{f.name: counts[f.name] for f in fields(SearchCounters)})
    provenance = {"source": descriptor, "config_hash": _config_hash(job, descriptor)}
    hits = tuple(sorted(by_canon.items()))
    return SearchResult(hits=hits, counters=counters, provenance=provenance)
