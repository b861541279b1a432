"""The benchmark's three workloads.

Each workload makes its inputs from the seed, then runs "rounds": a round is
a fixed unit of work over the inputs (one graph per (n, density) stratum, one
relabeled copy of every family member, or one full n = 7 census pass), timed
item by item. The timed loop runs whole rounds, so every run measures the
same mix of work. Outputs are kept and checked only after timing stops.

solve-gnp and report-family run in this process. A census-n7 round runs in a
fresh interpreter, as a ``tdlab search`` invocation does, so the built-in
enumeration is cold on every round and no cache inside tdlab carries over.
"""

from __future__ import annotations

import contextlib
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import tdlab
import tdlab.cli
from tdlab import families

import checks
import speed
import tracing

BENCH_DIR = Path(__file__).resolve().parent
RUN_PY = BENCH_DIR / "run.py"
CHILD_TIMEOUT_S = 150


@dataclass
class Item:
    """One timed unit: a graph, a report, or a census screen of ``weight`` graphs."""

    key: Any
    seconds: float
    output: Any = None
    error: str | None = None
    weight: int = 1
    calib_s: float = 0.0

    @property
    def scaled_s(self) -> float:
        return speed.scaled(self.seconds, self.calib_s)


@dataclass
class Round:
    """One round: its items, the median calibration time of the round, and
    timed work that belongs to no item (the census enumeration)."""

    items: list[Item]
    calib_s: float
    unitemized_s: float = 0.0
    spans: dict | None = None
    peak_rss_mb: float | None = None
    extra: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.unitemized_s + sum(it.seconds for it in self.items)

    @property
    def scaled_s(self) -> float:
        return speed.scaled(self.unitemized_s, self.calib_s) + sum(it.scaled_s for it in self.items)


def _calibrated_round(items: list[Item], calibs: list[float], **kwargs) -> Round:
    """``calibs``: kernel times before the first piece of work and after
    every piece (for the census, the enumeration is the first piece)."""
    local = speed.local_calibrations(calibs)
    for item, calib in zip(items, local[len(local) - len(items):]):
        item.calib_s = calib
    return Round(items, statistics.median(calibs), **kwargs)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed(fn, *args) -> tuple[Any, str | None, float]:
    t0 = time.perf_counter()
    try:
        out, err = fn(*args), None
    except Exception as exc:  # a failing item is counted, not fatal
        out, err = None, f"{type(exc).__name__}: {exc}"
    return out, err, time.perf_counter() - t0


def _run_in_process(items_in, run_one, trace: bool) -> Round:
    tracer = tracing.Tracer() if trace else None
    items = []
    calibs = [speed.calibrate()]
    with tracer.installed() if tracer else contextlib.nullcontext():
        for key, arg in items_in:
            out, err, dt = _timed(run_one, arg)
            items.append(Item(key, dt, out, err))
            calibs.append(speed.calibrate())
    return _calibrated_round(items, calibs, spans=tracer.to_dict() if tracer else None)


class SolveGnp:
    name = "solve-gnp"
    uses_seed = True
    SIZES = (15, 16, 17)
    DENSITIES = (0.35, 0.5, 0.7)
    ROUNDS = 6  # distinct graph sets per seed; later rounds repeat them

    def make_inputs(self, seed: int) -> list[list[tdlab.Graph]]:
        rng = random.Random(seed)
        rounds = []
        for _ in range(self.ROUNDS):
            graphs = []
            for n in self.SIZES:
                pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
                for p in self.DENSITIES:
                    # G(n, m) at m = p * C(n, 2): the density of G(n, p) without its
                    # edge-count lottery, which doubled the seed-to-seed spread of
                    # the solver's work per round.
                    edges = rng.sample(pairs, round(p * len(pairs)))
                    graphs.append(tdlab.Graph.from_edges(n, edges))
            rounds.append(graphs)
        return rounds

    @staticmethod
    def _solve(g: tdlab.Graph) -> tuple:
        w = tdlab.tree_depth(g)
        at_td = tdlab.tree_depth_decision(g, w.value)
        below = tdlab.tree_depth_decision(g, w.value - 1)
        return (w.value, w.labeling, at_td, below)

    def run_round(self, inputs, r: int, trace: bool) -> Round:
        idx = r % len(inputs)
        return _run_in_process(
            [((idx, j), g) for j, g in enumerate(inputs[idx])], self._solve, trace
        )

    def check_item(self, inputs, item: Item, seed: int) -> list[str]:
        idx, j = item.key
        expected = checks.EXPECTED_GNP_TD.get(seed)
        return checks.check_gnp(
            inputs[idx][j], item.output, expected[idx][j] if expected else None
        )


class ReportFamily:
    name = "report-family"
    uses_seed = True
    # And(5) is left out: its report alone takes longer than a whole round.
    MEMBERS = (
        ("And(4)", lambda: families.andrasfai(4)),
        ("H5", lambda: families.h_graph(5)),
        ("H6", lambda: families.h_graph(6)),
        ("co-C10", lambda: families.cycle_complement(10)),
        ("co-C12", lambda: families.cycle_complement(12)),
        ("6-net", lambda: families.k_net(6)),
        ("K5-prism", lambda: families.clique_prism(5)),
        ("G_12", lambda: families.g4k(3)),
    )
    ROUNDS = 12

    def make_inputs(self, seed: int) -> list[list[tuple[str, list[int], tdlab.Graph]]]:
        rng = random.Random(seed)
        members = [(name, build()) for name, build in self.MEMBERS]
        rounds = []
        for _ in range(self.ROUNDS):
            row = []
            for name, g in members:
                perm = list(range(g.n))
                rng.shuffle(perm)
                row.append((name, perm, g.relabeled(perm)))
            rounds.append(row)
        return rounds

    def run_round(self, inputs, r: int, trace: bool) -> Round:
        idx = r % len(inputs)
        return _run_in_process(
            [((idx, j), entry[2]) for j, entry in enumerate(inputs[idx])], self._report, trace
        )

    @staticmethod
    def _report(g: tdlab.Graph):
        # Looked up at call time, so a traced round sees the wrapped function.
        return tdlab.criticality_report(g)

    def check_item(self, inputs, item: Item, seed: int) -> list[str]:
        idx, j = item.key
        name, perm, g = inputs[idx][j]
        return checks.check_report(name, perm, g, item.output)


class CensusN7:
    name = "census-n7"
    uses_seed = False  # the input is the built-in census of all 1044 graphs on 7 vertices

    def make_inputs(self, seed: int) -> tuple[tuple[bool, int], ...]:
        return checks.SCREENS

    def run_round(self, inputs, r: int, trace: bool) -> Round:
        scratch = BENCH_DIR / ".tmp"
        scratch.mkdir(exist_ok=True)
        out_dir = Path(tempfile.mkdtemp(prefix="census-", dir=scratch))
        try:
            cmd = [sys.executable, str(RUN_PY), "--child", "census-pass", "--workload", self.name,
                   "--out", str(out_dir), "--trace", str(int(trace))]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                raise RuntimeError(f"census pass exited {proc.returncode}: {proc.stderr[-2000:]}")
            report = json.loads(proc.stdout.strip().splitlines()[-1])
            items = []
            for i, screen in enumerate(inputs):
                path = out_dir / f"screen-{i}.json"
                result = json.loads(path.read_text()) if path.exists() else None
                rc = report["exit_codes"][i]
                err = None if rc == 0 else f"tdlab search failed: {rc}"
                items.append(Item(screen, report["screen_s"][i], result, err, checks.CENSUS_SIZE))
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return _calibrated_round(items, report["calib_s"], unitemized_s=report["enumerate_s"],
                                 spans=report["spans"], peak_rss_mb=report["peak_rss_mb"],
                                 extra={"enumeration": report["enumeration"]})

    def check_item(self, inputs, item: Item, seed: int) -> list[str]:
        critical, td = item.key
        return checks.check_screen(critical, td, item.output)

    @staticmethod
    def check_round(rnd: Round) -> list[str]:
        return checks.check_enumeration(rnd.extra["enumeration"])


def census_pass(out_dir: str, trace: bool) -> dict:
    """Body of one census-n7 round, run in a fresh interpreter: a cold
    enumeration of the n = 7 census, then every screen through the CLI."""
    tracer = tracing.Tracer() if trace else None
    screen_s, exit_codes = [], []
    calibs = [speed.calibrate()]
    with tracer.installed() if tracer else contextlib.nullcontext():
        t0 = time.perf_counter()
        with tracing.span(tracer, "search.enumerate_graphs"):
            graphs = list(tdlab.enumerate_graphs(7))
        enumerate_s = time.perf_counter() - t0
        calibs.append(speed.calibrate())
        for i, (critical, td) in enumerate(checks.SCREENS):
            argv = ["search", "--td", str(td), "--n", "7", "--non-1-unique",
                    "--threads", "1", "--output", str(Path(out_dir) / f"screen-{i}.json")]
            if critical:
                argv.append("--critical")
            rc, err, dt = _timed(tdlab.cli.main, argv)
            exit_codes.append(rc if err is None else err)
            screen_s.append(dt)
            calibs.append(speed.calibrate())
    return {
        "enumerate_s": enumerate_s,
        "screen_s": screen_s,
        "calib_s": calibs,
        "exit_codes": exit_codes,
        "enumeration": [tdlab.to_graph6(g) for g in graphs],
        "peak_rss_mb": _peak_rss_mb(),
        "spans": tracer.to_dict() if tracer else None,
    }


WORKLOADS = {w.name: w for w in (SolveGnp(), ReportFamily(), CensusN7())}
