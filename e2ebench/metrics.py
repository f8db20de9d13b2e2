"""Metric catalogue and the statistics every workload shares.

``BENCHMARK.json`` lists the same names and units; the self-tests check
the two agree.  Every run prints every end-to-end metric (``--trace 0``)
or every per-layer metric (``--trace 1``), whatever its workload, so a
metric a workload does not exercise reads 0 in a traced run.
"""

from __future__ import annotations

import resource
import statistics
from collections.abc import Sequence

#: End-to-end metrics: (name, unit).
END_TO_END: tuple[tuple[str, str], ...] = (
    ("wall_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

_SOLVER_COUNTS = ("iterations", "commits", "constraints_added", "blocked",
                  "passes")

#: Per-layer metrics: (name, unit).  Layer prefixes are module names.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("core.solve_s.minobs", "s"),
    ("core.solve_s.minobswin", "s"),
    ("core.solve_total_s.minobs", "s"),
    ("core.solve_total_s.minobswin", "s"),
    *((f"core.{key}.{alg}", "count") for key in _SOLVER_COUNTS
      for alg in ("minobs", "minobswin")),
    ("core.iters_per_vertex", "iter/vertex"),
    ("core.s_per_iter", "s/iter"),
    ("core.forest_dp_calls", "count"),
    ("core.forest_dp_s", "s"),
    ("graph.labels_calls.init", "count"),
    ("graph.labels_calls.solve", "count"),
    ("graph.labels_calls.other", "count"),
    ("graph.labels_s.init", "s"),
    ("graph.labels_s.solve", "s"),
    ("graph.labels_s.other", "s"),
    ("core.init_s", "s"),
    ("core.init_fallbacks", "count"),
    ("runtime.guard_s", "s"),
    ("runtime.guard_calls", "count"),
    ("runtime.guard_rejects", "count"),
    ("sim.observability_s", "s"),
    ("core.elw_s", "s"),
    ("core.elw_reused", "count"),
    ("core.elw_recomputed", "count"),
    ("ser.analyze_s", "s"),
    ("retime.rebuild_s", "s"),
    ("retime.exact_states_share", "ratio"),
    ("netlist.parse_s", "s"),
    ("netlist.validate_s", "s"),
    ("flatcore.lower_s", "s"),
    ("graph.build_s", "s"),
    ("corpus.generate_s", "s"),
    ("service.post_s", "s"),
    ("service.polls_per_job", "count"),
    ("service.exec_s", "s"),
    ("service.outside_s", "s"),
    ("service.queue_wait_s", "s"),
    ("service.sandbox_s", "s"),
    ("service.persist_s", "s"),
    ("service.requeues", "count"),
    ("service.crashes", "count"),
    ("cache.hits", "count"),
    ("failed_share", "ratio"),
    ("job_tail.percentile", "%"),
    ("job_tail.samples", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.covered_share", "ratio"),
    ("trace.orchestration_s", "s"),
    ("bench.yardstick_s", "s"),
)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> tuple[float, float, int]:
    """``(value, percentile, samples)`` of the latency tail.

    The tail is the highest percentile with at least ten samples beyond
    it: the ``(n - 10)``-th smallest of ``n`` samples.  A run with ten
    samples or fewer has no such percentile; its slowest sample is
    reported as the 100th percentile instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    rank = n - 10
    return ordered[rank - 1], 100.0 * rank / n, n


def another_pass(walls: Sequence[float], seconds: float) -> bool:
    """Whether one more pass brings the measured time nearer ``seconds``.

    Passes take 10-30 s, so stopping before the budget would be overrun
    wastes up to a pass of it and overrunning adds up to a pass; a pass
    is started when it is expected to end at most half a pass past
    ``seconds``.
    """
    return sum(walls) + walls[-1] / 2 <= seconds


def peak_rss_mb() -> float:
    """Largest peak resident set of this process and its waited children.

    ``ru_maxrss`` is in KiB on Linux.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0
