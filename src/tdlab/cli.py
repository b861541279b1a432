"""Command-line front end.

Subcommands: td, check-labeling, report, family, search, verify-paper.
Graph input is detected from its first graph6 line, read as search reads a
stream: blank and '>>' lines are skipped, and a '>>graph6<<' header is cut
from the front of its line. If every byte of that line falls in 63..126,
the input is graph6 and must hold no further line; anything else is the
edge-list format ("n m" header, which always holds a space, then one "u v"
line per edge). td, check-labeling and report read one graph, one line at
a time: graph6 input stops at its second graph6 line, and an edge list is
folded into adjacency rows as it is read. A stream of graphs is screened
with search --input. Exit codes:
0 success, 1 domain failure (infeasible labeling, a graph over the
solver's vertex cap, failed criteria), 2 usage. The cap,
solver.MAX_VERTICES, is fixed: no option lowers it.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from itertools import chain

from .criticality import criticality_report
from .errors import BudgetError, Graph6Error
from .families import FAMILIES, PATTERNS, pattern
from .graphs import GRAPH6_MAX_N, Graph, graph6_lines, parse_edge_lines, parse_graph6, to_graph6
from .search import ENUM_MAX_N, SearchJob, run_search
from .solver import MAX_VERTICES, tree_depth


class UsageError(Exception):
    pass


def _read_graph(path: str | None) -> Graph:
    source = nullcontext(sys.stdin) if path is None or path == "-" else open(path, "r", encoding="ascii")
    with source as fh:
        lines = iter(fh)
        # the edge list's header is the first non-blank line, a '>>' line included
        header = next((line for line in lines if line.strip()), "")
        stream = graph6_lines(chain([header], lines))
        first = next(stream, "")
        if first and all(63 <= ord(c) <= 126 for c in first):
            if next(stream, None) is not None:
                raise ValueError("input holds more than one graph6 line; screen a stream with search --input")
            return parse_graph6(first)
        return parse_edge_lines(chain([header], lines))


def _cmd_td(args: argparse.Namespace) -> int:
    from .labelings import format_labeling  # labelings and verify load with the commands that use them

    g = _read_graph(args.input)
    witness = tree_depth(g)
    if args.json:
        print(json.dumps({
            "td": witness.value,
            "labeling": list(witness.labeling),
            "elimination_forest": list(witness.elimination_forest),
        }))
    else:
        print(witness.value)
        print(format_labeling(witness.labeling))
    return 0


def _cmd_check_labeling(args: argparse.Namespace) -> int:
    from .labelings import parse_labeling, verify_feasible

    g = _read_graph(args.input)
    labels = parse_labeling(args.labeling)
    if len(labels) != g.n:
        raise UsageError(f"labeling has {len(labels)} entries for a graph on {g.n} vertices")
    check = verify_feasible(g, labels)
    if args.json:
        print(json.dumps({
            "feasible": check.feasible,
            "violation": list(check.violation) if check.violation else None,
        }))
    elif check.feasible:
        print("feasible")
    else:
        c, u, v = check.violation
        print(f"infeasible: label {c} repeats on vertices {u} and {v} without a higher label between them")
    return 0 if check.feasible else 1


def _cmd_report(args: argparse.Namespace) -> int:
    g = _read_graph(args.input)
    report = criticality_report(g)
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True))
        return 0
    print(f"td: {report.td}")
    print(f"surplus: {report.surplus}")
    print(f"minor-critical: {report.is_minor_critical}")
    print(f"subgraph-critical: {report.is_subgraph_critical}")
    print(f"induced-subgraph-critical: {report.is_induced_subgraph_critical}")
    print(f"1-unique: {report.is_one_unique_graph}")
    print(f"one_unique: {','.join(str(int(b)) for b in report.one_unique)}")
    print(f"min_t: {','.join('-' if t is None else str(t) for t in report.min_t)}")
    checks = report.conjecture_checks
    print(f"order bound (n <= 2^(td-1)): {checks['order']}")
    print(f"degree bound (maxdeg <= td-1): {checks['maxdeg']}")
    return 0


def _cmd_family(args: argparse.Namespace) -> int:
    if args.name == "pattern":
        if args.param is None:
            raise UsageError(f"pattern family needs an id from {sorted(PATTERNS)}")
        g = pattern(args.param)
    else:
        if args.param is None:
            raise UsageError(f"family {args.name} needs an integer parameter")
        try:
            param = int(args.param)
        except ValueError:
            raise UsageError(f"family {args.name} needs an integer parameter") from None
        # every member has at least param vertices, so this refuses before building
        if param > GRAPH6_MAX_N:
            raise ValueError(f"family {args.name} {param} has over {GRAPH6_MAX_N} vertices, graph6's limit")
        g = FAMILIES[args.name](param)
    if args.json:
        print(json.dumps({"graph6": to_graph6(g), "n": g.n, "edges": g.edge_count()}))
    else:
        print(to_graph6(g))
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    if (args.n is None) == (args.input is None):
        raise UsageError("search needs exactly one source: --n or --input")
    job = SearchJob(
        td_target=args.td,
        n=args.n,
        graph6_path=args.input,
        critical=args.critical,
        non_one_unique=args.non_1_unique,
        connected_only=args.connected_only,
        allow_skips=args.allow_skips,
        threads=args.threads,
    )
    result = run_search(job)
    payload = result.to_json()
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0


def _cmd_verify_paper(args: argparse.Namespace) -> int:
    from .verify import verify_paper

    results = verify_paper(args.level)
    if args.json:
        print(json.dumps([
            {
                "criterion": r.cid,
                "title": r.title,
                "passed": r.passed,
                "detail": r.detail,
                "seconds": round(r.seconds, 3),
            }
            for r in results
        ], indent=2))
    else:
        for r in results:
            print(r.line())
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tdlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_input(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", help="graph file (default: stdin)")
        p.add_argument("--json", action="store_true", help="JSON output")

    p_td = sub.add_parser("td", help="tree-depth with witness labeling")
    add_graph_input(p_td)
    p_td.set_defaults(fn=_cmd_td)

    p_check = sub.add_parser("check-labeling", help="verify a labeling is feasible")
    add_graph_input(p_check)
    p_check.add_argument("labeling", help="comma-separated labels in vertex order")
    p_check.set_defaults(fn=_cmd_check_labeling)

    p_report = sub.add_parser("report", help="criticality and uniqueness report")
    add_graph_input(p_report)
    p_report.set_defaults(fn=_cmd_report)

    p_family = sub.add_parser("family", help="emit a named family member as graph6")
    p_family.add_argument("name", choices=(*FAMILIES, "pattern"))
    p_family.add_argument("param", nargs="?", help="integer parameter, or pattern id for 'pattern'")
    p_family.add_argument("--json", action="store_true")
    p_family.set_defaults(fn=_cmd_family)

    p_search = sub.add_parser("search", help="screen graphs for critical / non-1-unique hits")
    p_search.add_argument("--td", type=int, required=True, help="target tree-depth")
    p_search.add_argument("--n", type=int, help=f"built-in enumeration order (1..{ENUM_MAX_N})")
    p_search.add_argument("--input", help="graph6 stream file")
    p_search.add_argument("--critical", action="store_true", help="keep only minor-critical graphs")
    p_search.add_argument("--non-1-unique", dest="non_1_unique", action="store_true",
                          help="keep only graphs with a non-1-unique vertex")
    p_search.add_argument("--connected-only", action="store_true")
    p_search.add_argument("--threads", type=int, default=1,
                          help="worker processes, at most one per core and one per line")
    p_search.add_argument("--allow-skips", action="store_true",
                          help=f"tolerate graphs over {MAX_VERTICES} vertices (recorded as skips)")
    p_search.add_argument("--output", help="write the JSON result here instead of stdout")
    p_search.set_defaults(fn=_cmd_search)

    p_verify = sub.add_parser("verify-paper", help="run the replication criteria")
    p_verify.add_argument("--level", choices=("quick", "full"), default="quick")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(fn=_cmd_verify_paper)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (Graph6Error, BudgetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())
