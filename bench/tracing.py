"""Per-layer spans for the traced benchmark run.

Nothing inside tdlab is instrumented. Instead, for the duration of a traced
round, every module-level binding of a traced function inside the ``tdlab``
package is replaced by a timing wrapper: the binding in the defining module
(so same-module calls are seen) and every binding that another tdlab module
made with ``from .x import f`` (so cross-module calls are seen). The
benchmark calls tdlab through module attributes, so its own calls are seen
too. Everything is restored when the round ends.

Spans are aggregated in memory per name: calls, total time (outermost calls
only, so a span nested in itself is not counted twice) and self time (total
minus the time covered by traced callees).
"""

from __future__ import annotations

import contextlib
import sys
import time
from dataclasses import dataclass

# Span name is "<defining module>.<function>"; the Graph minor operations
# share one span.
FUNCTION_SPANS = (
    "graphs.mask_components",
    "graphs.canonical_form",
    "solver.tree_depth",
    "solver.tree_depth_decision",
    "labelings.t_uniqueness",
    "criticality.criticality_report",
    "criticality.one_unique_vertices",
    "search.run_search",
    "cli.main",
)
MINOR_OPS = ("delete_edge", "delete_vertex", "contract_edge", "star_clique_transform")
# Spans the benchmark opens around its own calls (enumerate_graphs is a
# generator, so a wrapper would time only its creation).
BENCH_SPANS = ("search.enumerate_graphs",)
# Spans that also count calls returning something other than None.
FOUND_SPANS = ("labelings.t_uniqueness",)

SPAN_NAMES = FUNCTION_SPANS + ("graphs.minor_ops",) + BENCH_SPANS


@dataclass
class SpanStats:
    calls: int = 0
    found: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    active: int = 0


class Tracer:
    def __init__(self) -> None:
        self.spans = {name: SpanStats() for name in SPAN_NAMES}
        self._stack: list[list[float]] = []  # one cell per open span: time of traced callees

    def _enter(self, st: SpanStats) -> list[float]:
        frame = [0.0]
        self._stack.append(frame)
        st.active += 1
        return frame

    def _exit(self, st: SpanStats, frame: list[float], dt: float) -> None:
        self._stack.pop()
        st.active -= 1
        st.calls += 1
        st.self_s += dt - frame[0]
        if not st.active:
            st.total_s += dt
        if self._stack:
            self._stack[-1][0] += dt

    def wrap(self, name: str, fn):
        st = self.spans[name]
        enter, exit_, clock = self._enter, self._exit, time.perf_counter
        count_found = name in FOUND_SPANS

        def traced(*args, **kwargs):
            frame = enter(st)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                exit_(st, frame, clock() - t0)
            if count_found and out is not None:
                st.found += 1
            return out

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        st = self.spans[name]
        frame = self._enter(st)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._exit(st, frame, time.perf_counter() - t0)

    @contextlib.contextmanager
    def installed(self):
        """Patch every tdlab binding of the traced functions; restore on exit."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "tdlab" or name.startswith("tdlab."))]
        undo: list[tuple[object, str, object]] = []
        try:
            for span_name in FUNCTION_SPANS:
                mod_name, attr = span_name.rsplit(".", 1)
                orig = getattr(sys.modules.get("tdlab." + mod_name), attr, None)
                if orig is None:
                    continue
                wrapped = self.wrap(span_name, orig)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            undo.append((mod, key, val))
                            setattr(mod, key, wrapped)
            graph_cls = sys.modules["tdlab.graphs"].Graph
            for attr in MINOR_OPS:
                orig = graph_cls.__dict__.get(attr)
                if orig is not None:
                    undo.append((graph_cls, attr, orig))
                    setattr(graph_cls, attr, self.wrap("graphs.minor_ops", orig))
            yield self
        finally:
            for owner, key, val in reversed(undo):
                setattr(owner, key, val)

    def to_dict(self) -> dict[str, dict[str, float]]:
        return {
            name: {"calls": st.calls, "found": st.found,
                   "self_s": st.self_s, "total_s": st.total_s}
            for name, st in self.spans.items()
        }


def span(tracer: Tracer | None, name: str):
    """The tracer's span, or a no-op when the round is untraced."""
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()

