"""Batch workloads: ``table1``, ``corpus-small`` and ``solver-deep``.

One *pass* is one :func:`repro.runtime.suite.run_suite` call over the
workload's circuits, from built circuits to certified rows.  Every pass
starts cold: fresh ``Circuit`` objects (the flat arena is cached on the
circuit), an empty observability memo, and no analysis cache.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any

from . import layers, speed
from .metrics import another_pass, median, peak_rss_mb, tail

#: Rows whose status is neither ``ok`` nor a ladder degradation: the
#: pipeline gave up on the circuit.
FAILED_PREFIX = "failed:"


class GateError(Exception):
    """A correctness gate failed; the run must not report a result."""


@dataclass
class Pass:
    wall: float
    rows: dict[str, dict[str, Any]]  # name -> {"status", "digest"}
    layer_metrics: dict[str, float] = field(default_factory=dict)
    tracer: layers.LayerTrace | None = None
    #: The pass's input circuits and suite result, kept on the latest
    #: pass only, for :func:`guard_problems`.
    circuits: dict[str, Any] | None = None
    suite: Any = None

    @property
    def checksum(self) -> str:
        body = sorted((name, row["status"], row["digest"])
                      for name, row in self.rows.items())
        return hashlib.sha256(json.dumps(body).encode()).hexdigest()


def run_pass(inputs, trace: bool = False,
             yardstick: list[float] | None = None) -> Pass:
    """One pass; with ``yardstick``, one kernel call is timed before each
    row and appended to it, and its time is left out of the pass's wall
    time."""
    from repro.corpus.matrix import cell_digest
    from repro.runtime.suite import clear_obs_cache, run_suite

    circuits = inputs.build()
    in_pass: list[float] = []

    def factory(name: str):
        if yardstick is not None:
            in_pass.append(speed.call())
        return circuits[name]

    clear_obs_cache()
    tracer = None
    if trace:
        tracer = layers.LayerTrace()
        layers.install_pipeline_wrappers(tracer)
    try:
        t0 = time.perf_counter()
        result = run_suite(inputs.config, circuit_factory=factory)
        wall = time.perf_counter() - t0 - sum(in_pass)
    finally:
        if tracer is not None:
            tracer.restore()
    rows = {}
    for run in result.runs:
        record = run.to_record().to_dict()
        rows[run.name] = {"status": run.status,
                          "digest": cell_digest(record)}
    if yardstick is not None:
        yardstick.extend(in_pass)
    out = Pass(wall=wall, rows=rows, tracer=tracer, circuits=circuits,
               suite=result)
    if tracer is not None:
        out.layer_metrics = layers.pipeline_layer_metrics(tracer, wall)
    return out


def check_rows(rows: dict[str, dict[str, Any]],
               expected: dict[str, dict[str, str]]) -> list[str]:
    """Mismatches between a pass's rows and the committed expectation."""
    problems = []
    for name, row in rows.items():
        want = expected.get(name)
        if want is None:
            problems.append(f"{name}: no committed digest")
        elif want["digest"] != row["digest"]:
            problems.append(f"{name}: digest {row['digest']} != committed "
                            f"{want['digest']}")
        elif want["status"] != row["status"]:
            problems.append(f"{name}: status {row['status']!r} != committed "
                            f"{want['status']!r}")
    return problems


def guard_problems(one: Pass, config) -> list[str]:
    """Re-run the co-simulation guard on every retimed outcome of a pass.

    The pipeline guards its own results and sends a rejected one down the
    solver ladder, so a rejection only shows as a row status.  This check
    does not trust the pipeline: it rebuilds each retiming from the
    circuit and the solver's labels and runs
    :func:`repro.runtime.guards.verify_retimed` on the retimed circuit the
    row reports, with the suite's own guard settings.
    """
    from repro.graph.retiming_graph import RetimingGraph
    from repro.pipeline import rebuild_retimed_states
    from repro.runtime.guards import verify_retimed

    problems = []
    for run in one.suite.runs:
        if run.result is None:
            continue
        circuit = one.circuits[run.name]
        graph = RetimingGraph.from_circuit(circuit)
        for algorithm, outcome in run.result.outcomes.items():
            r = outcome.result.r
            if not r.any():
                continue
            _, exact = rebuild_retimed_states(circuit, graph, r)
            report = verify_retimed(
                circuit, outcome.circuit, graph, r, run.result.init.phi,
                circuit.library.setup_time, exact_states=exact,
                check_cycles=config.guard_cycles,
                n_patterns=config.guard_patterns, seed=config.seed)
            if not report.ok:
                problems.append(f"{run.name}/{algorithm}: guard rejects the "
                                f"reported retiming: {report.notes}")
    return problems


def gate(passes: list[Pass], expected: dict[str, dict[str, str]]) -> None:
    """Raise :class:`GateError` unless every pass matches ``expected``."""
    for index, one in enumerate(passes):
        problems = check_rows(one.rows, expected)
        if problems:
            raise GateError(f"pass {index}: " + "; ".join(problems))
    checksums = {one.checksum for one in passes}
    if len(checksums) != 1:
        raise GateError(f"passes disagree: result checksums {checksums}")


def failures(one: Pass) -> tuple[int, int]:
    """``(failed, not_ok)`` row counts of a pass."""
    failed = sum(row["status"].startswith(FAILED_PREFIX)
                 for row in one.rows.values())
    not_ok = sum(row["status"] != "ok" for row in one.rows.values())
    return failed, not_ok


def run_batch(inputs, expected, seconds: float, trace: bool,
              setup: dict[str, float]) -> dict[str, Any]:
    """Measure a batch workload; returns the result fields for run.py."""
    yardstick = speed.sample()
    passes = [run_pass(inputs, yardstick=yardstick)]
    yardstick += speed.sample()

    def next_pass(traced: bool = False) -> None:
        passes[-1].circuits = passes[-1].suite = None
        # A traced pass's time is all the program's: no yardstick calls.
        passes.append(run_pass(inputs, trace=traced,
                               yardstick=None if traced else yardstick))
        yardstick.extend(speed.sample())

    if trace:
        next_pass(traced=True)
    else:
        while another_pass([p.wall for p in passes], seconds):
            next_pass()
    # Read before the guard re-runs, so the figure is the program's.
    rss = peak_rss_mb()
    gate(passes, expected)
    # Every pass has the same checksum, so certifying one certifies all.
    problems = guard_problems(passes[-1], inputs.config)
    if problems:
        raise GateError("; ".join(problems))
    attempted = sum(len(p.rows) for p in passes)
    failed = sum(failures(p)[0] for p in passes)
    not_ok = sum(failures(p)[1] for p in passes)
    # A batch job is one pass: the suite run a user starts and waits for.
    walls = [p.wall for p in passes]
    tail_value, tail_pct, samples = tail(walls)
    if not trace:
        metrics = {
            "wall_s": median(walls),
            "jobs_per_s": len(passes) / sum(walls),
            "job_p50_s": median(walls),
            "job_tail_s": tail_value,
            "peak_rss_mb": rss,
        }
    else:
        untraced, traced = passes
        metrics = dict(traced.layer_metrics)
        metrics.update({
            "trace.wall_s": traced.wall,
            "trace.overhead_share": traced.wall / untraced.wall - 1.0,
            "corpus.generate_s": setup["generate_s"],
            "failed_share": not_ok / attempted,
            "job_tail.percentile": tail_pct,
            "job_tail.samples": samples,
        })
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "yardstick": yardstick, "tracer": passes[-1].tracer,
            "summary": {"passes": len(passes), "checksum": passes[0].checksum,
                        "not_ok": not_ok,
                        "statuses": {name: row["status"] for name, row
                                     in passes[0].rows.items()
                                     if row["status"] != "ok"},
                        "job_tail": {"percentile": tail_pct,
                                     "samples": samples}}}
