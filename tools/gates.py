"""Identity gates: one sha256 line per exact output, plus the package size.

Run it on two checkouts and diff the outputs; equal lines mean the change
kept that output byte-identical. The package under test is whichever
``tdlab`` the interpreter imports, so point PYTHONPATH at a checkout:

    PYTHONPATH=src python3 tools/gates.py > after.txt
    PYTHONPATH=/path/to/other/src python3 tools/gates.py > before.txt
    diff before.txt after.txt

The canonical-form gate takes the regular-graph corpus from
``tests/oracles.py`` in this script's own checkout, so runs against either
package see the same inputs. The last line counts the code lines of the imported package, without
docstrings, comments and blank lines. One run takes one to two minutes on
a 2-core machine with Python 3.11, most of it in the labeling stream.
"""

from __future__ import annotations

import ast
import hashlib
import io
import json
import random
import sys
import tempfile
import tokenize
from pathlib import Path

import tdlab
from tdlab.criticality import _MinorTable
from tdlab.graphs import bits, mask_components
from tdlab.solver import _SubsetSolver
from tdlab.verify import _graphs_upto

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import cell_colours, regular_corpus  # noqa: E402

# The six screens of the census-n7 benchmark workload: (--critical, --td),
# each run over all graphs on 7 vertices with --non-1-unique.
SCREENS = ((True, 3), (True, 4), (True, 5), (True, 6), (False, 3), (False, 6))
NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _check_text(check: tdlab.FeasibilityCheck) -> str:
    return f"{check.feasible} {check.violation}\n"


def labeling_gates() -> list[str]:
    """The feasible_labelings(g, g.n) stream over all graphs n <= 6, and
    verify_feasible on each labeling and on it with its last label set to
    its first."""
    stream, checks = hashlib.sha256(), hashlib.sha256()
    count = infeasible = 0
    for g in _graphs_upto(6):
        stream.update(f"{tdlab.to_graph6(g)}\n".encode())
        for lab in tdlab.feasible_labelings(g, g.n):
            count += 1
            stream.update(f"{tdlab.format_labeling(lab)}\n".encode())
            bent = lab[:-1] + lab[:1]
            bent_check = tdlab.verify_feasible(g, bent)
            infeasible += not bent_check
            checks.update(_check_text(tdlab.verify_feasible(g, lab)).encode())
            checks.update(_check_text(bent_check).encode())
    return [
        f"feasible_labelings n<=6: {count} labelings {stream.hexdigest()}",
        f"FeasibilityCheck n<=6: {2 * count} checks, {infeasible} infeasible {checks.hexdigest()}",
    ]


def _gnp(rng: random.Random, n: int, p: float) -> tdlab.Graph:
    return tdlab.Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def _report_digest(graphs: list[tdlab.Graph]) -> str:
    """sha256 of one graph6 and CriticalityReport.to_dict JSON line per graph."""
    digest = hashlib.sha256()
    for g in graphs:
        report = tdlab.criticality_report(g).to_dict()
        digest.update(f"{tdlab.to_graph6(g)} {json.dumps(report, sort_keys=True)}\n".encode())
    return digest.hexdigest()


def report_gate() -> str:
    """The report of every graph with n <= 7."""
    graphs = list(_graphs_upto(7))
    return f"criticality_report n<=7: {len(graphs)} graphs {_report_digest(graphs)}"


def random_report_gate() -> str:
    """The reports of 150 seeded random graphs with 8 <= n <= 10 and
    td <= 6: the part of the old t-uniqueness search cap (n <= 10, td <= 6)
    that the n <= 7 gate does not reach."""
    count = 150
    rng = random.Random(810)
    graphs: list[tdlab.Graph] = []
    while len(graphs) < count:
        g = _gnp(rng, rng.randint(8, 10), rng.choice((0.3, 0.45, 0.6)))
        if tdlab.tree_depth(g).value <= 6:
            graphs.append(g)
    return f"criticality_report 8<=n<=10, td<=6: {count} random graphs {_report_digest(graphs)}"


def min_t_gate() -> str:
    """_MinorTable.min_t at every vertex of 150 seeded G(n, m) graphs with
    8 <= n <= 10 and td >= 7, asked vertex by vertex: the deep part of the
    t-uniqueness range, which the random report gate leaves out."""
    count = 150
    rng = random.Random(1031)
    digest = hashlib.sha256()
    made = 0
    while made < count:
        n = rng.randint(8, 10)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = tdlab.Graph.from_edges(n, rng.sample(pairs, round(rng.choice((0.6, 0.75, 0.9)) * len(pairs))))
        if tdlab.tree_depth(g).value >= 7:
            table = _MinorTable(g)
            digest.update(f"{tdlab.to_graph6(g)} {[table.min_t(v) for v in range(n)]}\n".encode())
            made += 1
    return f"min_t 8<=n<=10, td>=7: {count} G(n, m) graphs {digest.hexdigest()}"


def critical_flags_gate() -> str:
    """is_minor_critical(g) and is_one_unique(g), one pair of bits per
    graph, for every graph with n <= 7 and for 150 seeded G(n, m) graphs
    with 8 <= n <= 10."""
    rng = random.Random(3302)
    graphs = list(_graphs_upto(7))
    for _ in range(150):
        n = rng.randint(8, 10)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        graphs.append(tdlab.Graph.from_edges(n, rng.sample(pairs, round(rng.choice((0.3, 0.5, 0.7)) * len(pairs)))))
    text = "".join(f"{tdlab.is_minor_critical(g):d}{tdlab.is_one_unique(g):d}\n" for g in graphs)
    return (f"is_minor_critical, is_one_unique n<=7 and 150 G(n, m) 8<=n<=10: {len(graphs)} graphs, "
            f"{text[0::3].count('1')} minor-critical, {text[1::3].count('1')} 1-unique "
            f"{hashlib.sha256(text.encode()).hexdigest()}")


def _family_graphs() -> list[tdlab.Graph]:
    """co-C8..co-C16 and G_8, G_12, G_16: graphs of td n - 1, where the
    solver's surplus-one bound ends most scans."""
    return [tdlab.cycle_complement(n) for n in range(8, 17)] + [tdlab.g4k(k) for k in range(2, 5)]


def family_report_gate() -> str:
    """The reports of the family graphs."""
    graphs = _family_graphs()
    return f"criticality_report co-C8..co-C16, g4k(2..4): {len(graphs)} graphs {_report_digest(graphs)}"


def orbit_gate() -> str:
    """The least vertex of each vertex orbit and the least edge index of
    each edge orbit (graphs.orbits) of the family graphs."""
    graphs = _family_graphs()
    digest = hashlib.sha256("".join(f"{tdlab.graphs.orbits(g)}\n" for g in graphs).encode())
    return f"orbits co-C8..co-C16, g4k(2..4): {len(graphs)} graphs {digest.hexdigest()}"


def large_report_gate() -> str:
    """The reports of And(5), And(6), H7, H8, co-C14, the 7-net and the K6
    prism (12 <= n <= 17), each as built and under two seeded relabelings:
    minor tables larger than the other report gates reach."""
    rng = random.Random(1217)
    graphs: list[tdlab.Graph] = []
    for g in (tdlab.andrasfai(5), tdlab.andrasfai(6), tdlab.h_graph(7), tdlab.h_graph(8),
              tdlab.cycle_complement(14), tdlab.k_net(7), tdlab.clique_prism(6)):
        graphs += [g] + [g.relabeled(rng.sample(range(g.n), g.n)) for _ in range(2)]
    return (f"criticality_report And(5..6), H7, H8, co-C14, 7-net, K6 prism, 3 labelings each: "
            f"{len(graphs)} graphs {_report_digest(graphs)}")


def bench_report_gate() -> str:
    """The reports of the report-family benchmark's members, And(4), H5,
    H6, co-C10, co-C12, the 6-net, the K5 prism and G_12, under 12 seeded
    relabelings each, drawn here as the benchmark draws them (a shuffled
    vertex list per member and round) but from this gate's own seed."""
    rng = random.Random(3201)
    members = (tdlab.andrasfai(4), tdlab.h_graph(5), tdlab.h_graph(6), tdlab.cycle_complement(10),
               tdlab.cycle_complement(12), tdlab.k_net(6), tdlab.clique_prism(5), tdlab.g4k(3))
    graphs: list[tdlab.Graph] = []
    for _ in range(12):
        for g in members:
            perm = list(range(g.n))
            rng.shuffle(perm)
            graphs.append(g.relabeled(perm))
    return (f"criticality_report And(4), H5, H6, co-C10, co-C12, 6-net, K5 prism, G_12, 12 labelings each: "
            f"{len(graphs)} graphs {_report_digest(graphs)}")


def spanning_subgraph_gate() -> str:
    """The graph6 of critical_spanning_subgraph(g) for every graph with
    n <= 7 and for the family graphs."""
    graphs = list(_graphs_upto(7)) + _family_graphs()
    digest = hashlib.sha256()
    for g in graphs:
        digest.update(f"{tdlab.to_graph6(tdlab.critical_spanning_subgraph(g))}\n".encode())
    return f"critical_spanning_subgraph n<=7, co-C8..co-C16, g4k(2..4): {len(graphs)} graphs {digest.hexdigest()}"


def solve_sequence_gate(sizes: range = range(10, 16), seed: int = 1015) -> str:
    """The solve-gnp benchmark's calls on seeded G(n, m) graphs, two at
    each n in ``sizes`` and density .35, .5 and .7: the witness labeling
    and forest, the decisions at td and td - 1, then the same calls in
    reverse order, so that later calls meet a solver that earlier calls on
    the same graph have filled."""
    rng = random.Random(seed)
    digest = hashlib.sha256()
    count = 0
    for n in sizes:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for p in (0.35, 0.5, 0.7):
            for _ in range(2):
                g = tdlab.Graph.from_edges(n, rng.sample(pairs, round(p * len(pairs))))
                w = tdlab.tree_depth(g)
                at, below = tdlab.tree_depth_decision(g, w.value), tdlab.tree_depth_decision(g, w.value - 1)
                back = (tdlab.tree_depth_decision(g, w.value - 1), tdlab.tree_depth_decision(g, w.value),
                        tdlab.tree_depth(g))
                digest.update(f"{tdlab.to_graph6(g)} {w} {at} {below} {back}\n".encode())
                count += 1
    return f"solve sequence G(n, m) {sizes[0]}<=n<={sizes[-1]}: {count} graphs {digest.hexdigest()}"


def certificate_gate() -> str:
    """The sets that the solver's certificate search returns on settle
    cases of seeded G(n, m) with 12 <= n <= 16 and p = .3, .35 and .5: in
    each graph, every component of four or more vertices of 60 random
    subsets is an S, each vertex x of S that is not universal in S is
    tried, and need = |S| - td(S - x), one more than the surplus of S - x."""
    rng = random.Random(3018)
    digest = hashlib.sha256()
    count = found = 0
    for n in range(12, 17):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for p in (0.3, 0.35, 0.5):
            g = tdlab.Graph.from_edges(n, rng.sample(pairs, round(p * len(pairs))))
            solver = _SubsetSolver(g.adj)
            for _ in range(60):
                for mask in mask_components(g.adj, rng.getrandbits(n)):
                    if mask.bit_count() < 4:
                        continue
                    for x in bits(mask):
                        bit = 1 << x
                        if g.adj[x] & mask != mask ^ bit:
                            need = mask.bit_count() - solver.td(mask ^ bit)
                            got = solver._certificate(mask, bit, need)
                            digest.update(f"{tdlab.to_graph6(g)} {mask} {x} {need} {got}\n".encode())
                            count += 1
                            found += got > 0
    return f"_certificate G(n, m) 12<=n<=16: {count} settle cases, {found} found {digest.hexdigest()}"


def _canonical_corpus() -> list[tdlab.Graph]:
    """3,000 seeded random graphs with n <= 10, the tests' regular corpus,
    where refinement splits no cell, and ten symmetric graphs on 8 to 10
    vertices."""
    rng = random.Random(2207)
    graphs = [_gnp(rng, rng.randint(0, 10), rng.choice((0.2, 0.5, 0.8))) for _ in range(3000)]
    petersen = tdlab.Graph.from_edges(
        10, [(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
    )
    graphs += regular_corpus() + [
        tdlab.complete(10), tdlab.Graph(10, [0] * 10), tdlab.cycle(10), tdlab.cycle_complement(10),
        petersen, tdlab.andrasfai(3), tdlab.h_graph(5), tdlab.clique_prism(5), tdlab.g4k(2), tdlab.k_net(5),
    ]
    return graphs


def canonical_gate() -> str:
    """canonical_form of the canonical-form corpus."""
    graphs = _canonical_corpus()
    text = "".join(f"{tdlab.canonical_form(g)}\n" for g in graphs)
    return f"canonical_form n<=10: {len(graphs)} graphs {hashlib.sha256(text.encode()).hexdigest()}"


def refine_gate() -> str:
    """The colourings that graphs._refine gives over the canonical-form
    corpus: from the unit partition, and after individualizing each vertex
    in that result. _refine returns an ordered list of cell bitmasks; the
    digest hashes the colour lists ``oracles.cell_colours`` derives from
    them (the colour of a vertex is the index of its cell). It pins the
    cell order itself, apart from the strings built on it."""
    graphs = _canonical_corpus()
    digest = hashlib.sha256()
    count = 0
    for g in graphs:
        unit = tdlab.graphs._refine(g.adj)
        partitions = [unit] + [tdlab.graphs._refine(g.adj, unit, v) for v in range(g.n)]
        colorings = [cell_colours(cells, g.n) for cells in partitions]
        count += len(colorings)
        digest.update("".join(f"{c}\n" for c in colorings).encode())
    return f"_refine n<=10, unit and first individualizations: {len(graphs)} graphs, {count} colourings {digest.hexdigest()}"


def induced_gate() -> str:
    """contains_induced of every graph with n <= 7 against every named
    pattern, and of 3,000 seeded random pairs: g with n <= 10, the pattern
    with n <= 6."""
    patterns = [tdlab.pattern(name) for name in tdlab.PATTERNS]
    pairs = [(g, p) for g in _graphs_upto(7) for p in patterns]
    rng = random.Random(2301)
    for _ in range(3000):
        g = _gnp(rng, rng.randint(0, 10), rng.choice((0.2, 0.5, 0.8)))
        pairs.append((g, _gnp(rng, rng.randint(0, 6), rng.choice((0.2, 0.5, 0.8)))))
    text = "".join("01"[tdlab.contains_induced(g, p)] for g, p in pairs)
    return (f"contains_induced n<=7 x patterns, 3000 random pairs: {len(pairs)} pairs, "
            f"{text.count('1')} contained {hashlib.sha256(text.encode()).hexdigest()}")


def _malformed(rng: random.Random) -> str:
    """A graph6 line with one random fault: cut short, extended, one byte
    replaced, padding bits set, or a line ending or space appended. Some
    stay valid."""
    line = tdlab.to_graph6(_gnp(rng, rng.randint(0, 20), 0.5))
    k = rng.randrange(len(line))
    fault = rng.randrange(5)
    if fault == 0:
        return line[:k]
    if fault == 1:
        return line + chr(rng.randint(63, 126)) * rng.randint(1, 3)
    if fault == 2:
        return line[:k] + chr(rng.randint(0, 200)) + line[k + 1:]
    if fault == 3:
        return line[:-1] + chr((ord(line[-1]) - 63 | rng.randint(1, 63)) + 63)
    return line + rng.choice(("\n", "\r\n", " "))


def graph6_gate() -> str:
    """to_graph6 of 4,000 seeded random graphs with n <= 62, and
    parse_graph6 of 3,000 seeded faulty lines: the rows, or the error text
    with its byte offset."""
    rng = random.Random(2206)
    digest = hashlib.sha256()
    for _ in range(4000):
        digest.update(f"{tdlab.to_graph6(_gnp(rng, rng.randint(0, 62), rng.random()))}\n".encode())
    errors = 0
    for _ in range(3000):
        try:
            text = str(tdlab.parse_graph6(_malformed(rng)).adj)
        except tdlab.Graph6Error as exc:
            errors += 1
            text = str(exc)
        digest.update(f"{text}\n".encode())
    return f"to_graph6 n<=62 and parse_graph6 of faulty lines: 4000 graphs, 3000 lines, {errors} errors {digest.hexdigest()}"


def search_gates() -> list[str]:
    out = []
    for critical, td in SCREENS:
        job = tdlab.SearchJob(td_target=td, n=7, critical=critical, non_one_unique=True)
        text = tdlab.run_search(job).to_json()
        out.append(
            f"run_search n=7 td={td} critical={critical}: "
            f"{hashlib.sha256(text.encode()).hexdigest()}"
        )
    return out


def stream_gate() -> str:
    """The --td 5 --critical --non-1-unique screen of a graph6 file that
    holds a header, a blank line and the n = 7 census twice, at threads 1
    and 2. The digest covers the hits and the counters, not the provenance,
    which names the temporary file."""
    census = [tdlab.to_graph6(g) for g in tdlab.enumerate_graphs(7)]
    digests = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "census7x2.g6"
        path.write_text(">>graph6<<\n\n" + "".join(f"{g6}\n" for g6 in census * 2))
        for threads in (1, 2):
            job = tdlab.SearchJob(td_target=5, graph6_path=str(path), critical=True,
                                  non_one_unique=True, threads=threads)
            data = tdlab.run_search(job).to_dict()
            text = json.dumps([data["hits"], data["counters"]], sort_keys=True)
            digests.append(hashlib.sha256(text.encode()).hexdigest())
    return f"run_search file n=7 census x2 td=5 critical=True, threads 1 and 2: {' '.join(digests)}"


def ledger_gate() -> str:
    """The quick level's result lines of criteria 1..10, which hold no timing."""
    digest = hashlib.sha256()
    for cid in range(1, 11):
        digest.update(f"{tdlab.run_criterion(cid, 'quick').line()}\n".encode())
    return f"verify-paper quick, criteria 1..10: {digest.hexdigest()}"


def code_lines(package: Path) -> int:
    """Lines holding a token other than a comment, outside docstrings."""
    total = 0
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        docstrings: set[int] = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                first = node.body[0] if node.body else None
                if (
                    isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)
                ):
                    docstrings.update(range(first.lineno, first.end_lineno + 1))
        lines: set[int] = set()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type not in NON_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
        total += len(lines - docstrings)
    return total


def main() -> None:
    graph_gates = [report_gate(), random_report_gate(), min_t_gate(), critical_flags_gate(),
                   family_report_gate(), orbit_gate(),
                   large_report_gate(), bench_report_gate(), spanning_subgraph_gate(), solve_sequence_gate(), solve_sequence_gate(range(16, 19), 1618),
                   certificate_gate(),
                   canonical_gate(), refine_gate(), graph6_gate(), induced_gate()]
    for line in labeling_gates() + graph_gates + search_gates() + [stream_gate(), ledger_gate()]:
        print(line)
    print(f"code lines in the tdlab package: {code_lines(Path(tdlab.__file__).parent)}")


if __name__ == "__main__":
    main()
