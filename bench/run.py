"""tdlab benchmark: one workload, timed end to end, or traced per layer.

    python3 bench/run.py --workload solve-gnp --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json and bench/README.md): solve-gnp,
report-family, census-n7. The package is imported from ``src/`` of the
checkout this file sits in; nothing needs to be installed.

With ``--trace 0`` the run repeats whole rounds of the workload for
``--seconds`` and reports the end-to-end metrics. With ``--trace 1`` it runs
round 0 four times, alternately untraced and traced, and reports the
per-layer spans, exact work counts and the tracing overhead. Every output is checked after
timing stops. The last stdout line is the result object; the line before it
is the full record, stamped with a machine note.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("solve-gnp", "report-family", "census-n7")
SETUP_PROBES = 9
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)  # tail percentiles tried, highest first
TAIL_MIN_BEYOND = 10
HD_STEPS = 8  # integration steps per sample for the Harrell-Davis weights
MAX_PROBLEMS_SHOWN = 20


def use_source_tree() -> None:
    """Put the checkout's ``src/`` first on the path; exit with status 1 if it is missing."""
    if not (SRC / "tdlab" / "__init__.py").is_file():
        sys.exit(f"bench: no tdlab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import tdlab

    if Path(tdlab.__file__).resolve().parent != SRC / "tdlab":
        sys.exit(f"bench: imported tdlab from {tdlab.__file__}, not from {SRC}")


# -- child processes -------------------------------------------------------


def child_setup(workload: str, seed: int) -> dict:
    """Set-up cost in a fresh interpreter: the import plus input generation,
    with the calibration kernel timed right before and after it."""
    calib_before = speed.calibrate()
    t0 = time.perf_counter()
    use_source_tree()
    import workloads

    workloads.WORKLOADS[workload].make_inputs(seed)
    setup_s = time.perf_counter() - t0
    return {"setup_s": setup_s, "calib_s": (calib_before + speed.calibrate()) / 2}


def child_census_pass(out_dir: str, trace: bool) -> dict:
    use_source_tree()
    import workloads

    return workloads.census_pass(out_dir, trace)


def setup_samples(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Raw and scaled set-up times of SETUP_PROBES fresh interpreters."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", "setup",
           "--workload", workload, "--seed", str(seed)]
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(probe["setup_s"])
        scaled.append(speed.scaled(probe["setup_s"], probe["calib_s"]))
    return raw, scaled


# -- statistics and the machine note ---------------------------------------


def percentile(sorted_vals: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile: a mean of all order
    statistics, weighted by the Beta((n + 1) q, (n + 1)(1 - q)) density.
    Item times form clusters (one per family member, one per graph order),
    and a single order statistic jumps from run to run when the percentile
    sits on the gap between two clusters; this estimate moves smoothly."""
    n = len(sorted_vals)
    a, b = q / 100.0 * (n + 1), (1.0 - q / 100.0) * (n + 1)
    steps = n * HD_STEPS
    log_density = [
        (a - 1.0) * math.log((j + 0.5) / steps) + (b - 1.0) * math.log(1.0 - (j + 0.5) / steps)
        for j in range(steps)
    ]
    top = max(log_density)
    density = [math.exp(v - top) for v in log_density]
    weights = [sum(density[i * HD_STEPS:(i + 1) * HD_STEPS]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, sorted_vals)) / sum(weights)


def tail_percentile(sorted_vals: list[float]) -> tuple[float, float]:
    """The highest ladder percentile with at least ten samples beyond it,
    falling back to the median when there are too few samples."""
    n = len(sorted_vals)
    for q in TAIL_LADDER:
        if n * (100.0 - q) >= TAIL_MIN_BEYOND * 100.0 - 1e-9:
            return q, percentile(sorted_vals, q)
    return 50.0, percentile(sorted_vals, 50.0)


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_note(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "seed": seed,
    }


# -- the run ---------------------------------------------------------------


def check_rounds(wl, inputs, rounds, seed: int, repeats: bool) -> tuple[int, int, list[str]]:
    """Check every item; with ``repeats``, every round must also give the
    same outputs as the first (the traced run repeats round 0)."""
    attempted = failed = 0
    problems: list[str] = []
    for r, rnd in enumerate(rounds):
        round_problems = wl.check_round(rnd) if hasattr(wl, "check_round") else []
        for i, item in enumerate(rnd.items):
            attempted += item.weight
            found = [item.error] if item.error else wl.check_item(inputs, item, seed)
            found = found + round_problems
            if repeats and item.output != rounds[0].items[i].output:
                found.append("output differs from the first repeat")
            if found:
                failed += item.weight
                problems.extend(f"round {r} item {item.key}: {p}" for p in found)
    return attempted, failed, problems


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(rounds, setup_raw: list[float], setup_scaled: list[float]) -> tuple[dict, dict]:
    """Scaled metrics for the result, plus the raw readings for the record."""

    def figures(scale: bool) -> dict:
        # An input that several rounds repeat (every census screen) gives
        # one latency sample, at its median time.
        by_key: dict = {}
        for r in rounds:
            for it in r.items:
                if it.error is None:
                    ms = (it.scaled_s if scale else it.seconds) * 1000.0 / it.weight
                    by_key.setdefault(it.key, (it.weight, []))[1].append(ms)
        latencies = sorted(
            ms for weight, times in by_key.values() for ms in [statistics.median(times)] * weight
        )
        tail_q, tail_ms = tail_percentile(latencies)
        return {
            "setup_s": statistics.median(setup_scaled if scale else setup_raw),
            "items_per_s": items / sum(r.scaled_s if scale else r.seconds for r in rounds),
            "item_p50_ms": percentile(latencies, 50.0),
            "item_tail_ms": tail_ms,
            "tail_q": tail_q,
            "samples": len(latencies),
        }

    items = sum(it.weight for r in rounds for it in r.items)
    scaled = figures(True)
    raw = figures(False)
    rss = [r.peak_rss_mb for r in rounds if r.peak_rss_mb is not None]
    peak = max(rss) if rss else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": metric(scaled["setup_s"], "s"),
        "items_per_s": metric(scaled["items_per_s"], "1/s"),
        "item_p50_ms": metric(scaled["item_p50_ms"], "ms"),
        "item_tail_ms": metric(scaled["item_tail_ms"], "ms"),
        "peak_rss_mb": metric(peak, "MB"),
    }
    detail = {
        "rounds": len(rounds),
        "items": items,
        "latency_samples": scaled["samples"],
        "tail_percentile": scaled["tail_q"],
        "graphs_per_latency_sample": max(it.weight for r in rounds for it in r.items),
        "raw": {k: raw[k] for k in ("setup_s", "items_per_s", "item_p50_ms", "item_tail_ms")},
        "timed_s": sum(r.seconds for r in rounds),
        "round_scaled_s": [r.scaled_s for r in rounds],
        "calib_s": [r.calib_s for r in rounds],
        "setup_samples_s": setup_raw,
    }
    return metrics, detail


def per_layer(untraced: list, traced: list) -> tuple[dict, dict]:
    """Spans and counts of the first traced round; overhead over all rounds."""
    spans = traced[0].spans
    metrics = {}
    for name, st in spans.items():
        metrics[f"{name}.calls"] = metric(st["calls"], "count")
        metrics[f"{name}.self_s"] = metric(st["self_s"], "s")
        metrics[f"{name}.total_s"] = metric(st["total_s"], "s")
    for name in tracing.FOUND_SPANS:
        st = spans[name]
        metrics[f"{name}.found_ratio"] = metric(st["found"] / st["calls"] if st["calls"] else 0.0, "ratio")
    counters = {"graphs_scanned": 0, "graphs_at_target_td": 0, "critical_count": 0, "hits": 0}
    for item in traced[0].items:
        if isinstance(item.output, dict):
            for key in counters:
                counters[key] += len(item.output["hits"]) if key == "hits" else item.output["counters"][key]
    for key, val in counters.items():
        metrics[f"search.{key}"] = metric(val, "count")
    untraced_s = sum(r.scaled_s for r in untraced)
    traced_s = sum(r.scaled_s for r in traced)
    metrics["trace_overhead_ratio"] = metric(traced_s / untraced_s, "ratio")
    detail = {
        "untraced_scaled_s": untraced_s,
        "traced_scaled_s": traced_s,
        "calib_s": [r.calib_s for pair in zip(untraced, traced) for r in pair],
        "trace_items": sum(it.weight for it in traced[0].items),
        "counts_repeat": all(
            traced[0].spans[name]["calls"] == r.spans[name]["calls"]
            for r in traced[1:] for name in spans
        ),
    }
    return metrics, detail


def run(args) -> int:
    use_source_tree()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.make_inputs(args.seed)
    if args.trace:
        # Round 0 four times, alternating untraced and traced.
        rounds = [wl.run_round(inputs, 0, trace) for trace in (False, True, False, True)]
    else:
        setup_raw, setup_scaled = setup_samples(args.workload, args.seed)
        rounds = []
        t0 = time.perf_counter()
        while not rounds or time.perf_counter() - t0 < args.seconds:
            rounds.append(wl.run_round(inputs, len(rounds), False))

    attempted, failed, problems = check_rounds(wl, inputs, rounds, args.seed, bool(args.trace))
    if failed == attempted:
        sys.exit("bench: every item failed, nothing to time: " + "; ".join(problems[:MAX_PROBLEMS_SHOWN]))
    if args.trace:
        metrics, detail = per_layer(rounds[0::2], rounds[1::2])
    else:
        metrics, detail = end_to_end(rounds, setup_raw, setup_scaled)

    record = {
        "benchmark": "tdlab",
        "workload": wl.name,
        "seed_used": wl.uses_seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "machine": machine_note(args.seed),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "problems": problems[:MAX_PROBLEMS_SHOWN],
        **detail,
        "metrics": metrics,
    }
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "census-pass"), help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child == "setup":
        print(json.dumps(child_setup(args.workload, args.seed)))
        return 0
    if args.child == "census-pass":
        print(json.dumps(child_census_pass(args.out, bool(args.trace))))
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
