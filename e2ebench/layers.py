"""Per-layer attribution for the traced run.

The benchmark never edits the program to trace it.  Instead
:class:`LayerTrace` replaces each layer's public entry point, at the
module that looks it up, with a wrapper that records one span per call:
``(layer, start, end, parent)``.  Spans stay in memory and are written
once, after the run, by :meth:`LayerTrace.write`.

A layer's *self time* is its span's duration minus the time covered by
the spans nested directly inside it, so self times of all spans add up
to the time the root spans cover.  ``orchestration`` is what is left of
the pass: suite bookkeeping, checkpoints and row assembly.

The wrappers run in the benchmark process only.  Work done in a service
sandbox subprocess is not seen here; the service workload reads the
service's own trace file for its per-layer numbers instead.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

ALGORITHMS = ("minobs", "minobswin")


@dataclass
class Span:
    layer: str
    start: float
    end: float = 0.0
    parent: int = -1
    child_time: float = 0.0

    @property
    def self_time(self) -> float:
        return (self.end - self.start) - self.child_time


class LayerTrace:
    """Install wrappers around layer entry points and collect spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self.counts: dict[str, float] = defaultdict(float)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def enclosing(self, *layers: str) -> str | None:
        """The innermost open span whose layer is one of ``layers``."""
        for index in reversed(self._stack):
            if self.spans[index].layer in layers:
                return self.spans[index].layer
        return None

    def _call(self, layer: str | Callable[..., str], func, args, kwargs,
              on_result):
        name = layer(*args, **kwargs) if callable(layer) else layer
        span = Span(name, 0.0, parent=self._stack[-1] if self._stack
                    else -1)
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if span.parent >= 0:
                self.spans[span.parent].child_time += span.end - span.start
        if on_result is not None:
            on_result(result, *args, **kwargs)
        return result

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, module: Any, attr: str,
             layer: str | Callable[..., str],
             on_result: Callable[..., None] | None = None) -> None:
        """Replace ``module.attr`` (a plain function) with a recorder."""
        func = getattr(module, attr)

        def wrapper(*args, **kwargs):
            return self._call(layer, func, args, kwargs, on_result)

        self._patch(module, attr, wrapper)

    def wrap_method(self, cls: type, attr: str, layer: str,
                    on_result: Callable[..., None] | None = None) -> None:
        """Replace a method or classmethod of ``cls`` with a recorder."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            func = raw.__func__

            def wrapper(klass, *args, **kwargs):
                return self._call(layer, func, (klass, *args), kwargs,
                                  on_result)

            self._patch(cls, attr, classmethod(wrapper))
            return

        def method(*args, **kwargs):
            return self._call(layer, raw, args, kwargs, on_result)

        self._patch(cls, attr, method)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.layer] += span.self_time
        return dict(out)

    def calls(self, layer: str) -> int:
        return sum(1 for span in self.spans if span.layer == layer)

    def inclusive(self, layer: str) -> float:
        """Time under ``layer`` spans, counting only the outermost."""
        total = 0.0
        for span in self.spans:
            if span.layer != layer:
                continue
            parent = span.parent
            while parent >= 0 and self.spans[parent].layer != layer:
                parent = self.spans[parent].parent
            if parent < 0:
                total += span.end - span.start
        return total

    def covered(self) -> float:
        """Time covered by root spans (= the sum of all self times)."""
        return sum(span.end - span.start for span in self.spans
                   if span.parent < 0)

    def write(self, path: str) -> None:
        """Write every span as one JSON line (once, after the run)."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "parent": span.parent, "layer": span.layer,
                    "start": span.start, "dur": span.end - span.start,
                    "self": span.self_time}) + "\n")


def install_pipeline_wrappers(trace: LayerTrace) -> None:
    """Wrap every pipeline layer entry point the batch workloads reach.

    Each function is replaced where the caller looks it up: the suite
    runner imports its stage functions by name, and ``boundary_labels``
    is imported into three modules, so each of those is wrapped too.
    """
    from repro.core import constraints, initialization
    from repro.core.regular_forest import RegularForest
    from repro.flatcore import engine
    from repro.graph import timing
    from repro.graph.retiming_graph import RetimingGraph
    from repro.retime import setup_hold
    from repro.runtime import suite

    counts = trace.counts

    def solver_layer(problem, r0, algorithm, *args, **kwargs) -> str:
        return f"core.solve.{algorithm}"

    def solved(result, problem, r0, algorithm, *args, **kwargs) -> None:
        counts[f"core.iterations.{algorithm}"] += result.iterations
        counts[f"core.commits.{algorithm}"] += result.commits
        counts[f"core.constraints_added.{algorithm}"] += \
            result.constraints_added
        counts[f"core.blocked.{algorithm}"] += result.blocked
        counts[f"core.passes.{algorithm}"] += result.passes
        counts["core.solver_vertices"] += problem.graph.n_vertices - 1

    def initialized(result, *args, **kwargs) -> None:
        counts["core.init_fallbacks"] += int(result.used_fallback)

    def guarded(report, *args, **kwargs) -> None:
        counts["runtime.guard_rejects"] += int(not report.ok)

    def rebuilt(result, *args, **kwargs) -> None:
        counts["retime.exact_states"] += int(bool(result[1]))

    def elw_reuse(result, *args, **kwargs) -> None:
        counts["core.elw_reused"] += result[1]["reused"]
        counts["core.elw_recomputed"] += result[1]["recomputed"]

    def labels_layer(*args, **kwargs) -> str:
        owner = trace.enclosing("core.init", "core.solve.minobs",
                                "core.solve.minobswin")
        if owner == "core.init":
            return "graph.labels.init"
        if owner is not None:
            return "graph.labels.solve"
        return "graph.labels.other"

    trace.wrap(suite, "compute_observability", "sim.observability")
    trace.wrap(suite, "initialize", "core.init", initialized)
    trace.wrap(suite, "run_solver", solver_layer, solved)
    trace.wrap(suite, "rebuild_retimed_states", "retime.rebuild", rebuilt)
    trace.wrap(suite, "verify_retimed", "runtime.guard", guarded)
    trace.wrap(suite, "circuit_elws", "core.elw")
    trace.wrap(suite, "incremental_circuit_elws", "core.elw", elw_reuse)
    trace.wrap(suite, "analyze_ser", "ser.analyze")
    trace.wrap(suite, "validate_circuit", "netlist.validate")
    trace.wrap(engine, "lower", "flatcore.lower")
    for module in (timing, setup_hold, initialization, constraints):
        trace.wrap(module, "boundary_labels", labels_layer)
    trace.wrap_method(RetimingGraph, "from_circuit", "graph.build")
    trace.wrap_method(RegularForest, "positive_delta", "core.forest_dp")


def pipeline_layer_metrics(trace: LayerTrace, wall: float) -> dict[str, float]:
    """Per-layer metric values of one traced batch pass."""
    self_s = trace.self_times()
    counts = trace.counts
    out: dict[str, float] = {}
    total_iters = 0.0
    for algorithm in ALGORITHMS:
        layer = f"core.solve.{algorithm}"
        out[f"core.solve_s.{algorithm}"] = self_s.get(layer, 0.0)
        out[f"core.solve_total_s.{algorithm}"] = trace.inclusive(layer)
        for key in ("iterations", "commits", "constraints_added", "blocked",
                    "passes"):
            out[f"core.{key}.{algorithm}"] = counts[f"core.{key}.{algorithm}"]
        total_iters += counts[f"core.iterations.{algorithm}"]
    solve_total = sum(out[f"core.solve_total_s.{a}"] for a in ALGORITHMS)
    vertices = counts["core.solver_vertices"]
    out["core.iters_per_vertex"] = total_iters / vertices if vertices else 0.0
    out["core.s_per_iter"] = solve_total / total_iters if total_iters else 0.0
    out["core.forest_dp_calls"] = trace.calls("core.forest_dp")
    out["core.forest_dp_s"] = self_s.get("core.forest_dp", 0.0)
    for caller in ("init", "solve", "other"):
        layer = f"graph.labels.{caller}"
        out[f"graph.labels_calls.{caller}"] = trace.calls(layer)
        out[f"graph.labels_s.{caller}"] = self_s.get(layer, 0.0)
    out["core.init_s"] = self_s.get("core.init", 0.0)
    out["core.init_fallbacks"] = counts["core.init_fallbacks"]
    out["runtime.guard_s"] = self_s.get("runtime.guard", 0.0)
    out["runtime.guard_calls"] = trace.calls("runtime.guard")
    out["runtime.guard_rejects"] = counts["runtime.guard_rejects"]
    out["sim.observability_s"] = self_s.get("sim.observability", 0.0)
    out["core.elw_s"] = self_s.get("core.elw", 0.0)
    out["core.elw_reused"] = counts["core.elw_reused"]
    out["core.elw_recomputed"] = counts["core.elw_recomputed"]
    out["ser.analyze_s"] = self_s.get("ser.analyze", 0.0)
    out["retime.rebuild_s"] = self_s.get("retime.rebuild", 0.0)
    rebuilds = trace.calls("retime.rebuild")
    out["retime.exact_states_share"] = \
        counts["retime.exact_states"] / rebuilds if rebuilds else 0.0
    out["netlist.validate_s"] = self_s.get("netlist.validate", 0.0)
    out["flatcore.lower_s"] = self_s.get("flatcore.lower", 0.0)
    out["graph.build_s"] = self_s.get("graph.build", 0.0)
    covered = trace.covered()
    out["trace.covered_share"] = covered / wall if wall else 0.0
    out["trace.orchestration_s"] = max(0.0, wall - covered)
    return out
