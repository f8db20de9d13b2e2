"""Machine-speed yardstick, so runs minutes apart can be compared.

The benchmark runs on shared hosts whose speed drifts by up to 1.5x over
minutes: one Table I pass took 13.7 s in one run and 20.8 s in the next,
34 s later, with CPU time moving with wall time.  Raw times of ten runs then
spread by more than any bound a change could be held to.  So every run
also times :func:`_kernel` -- benchmark code that shares nothing with
the program -- before its first pass, after each pass, and in a batch
pass before each row, and reports its times scaled to the speed at which
one kernel call takes :data:`REFERENCE_S`.  A change to the program
moves the scaled times exactly as it moves the raw ones; only the
machine's drift cancels.

The kernel is interpreter-bound dict, set and sort work plus small numpy
calls, the mix the program spends its time in.  Over eight minutes of
alternating kernel samples with six Table I rows, the program's time
over 26 s windows spread 0.234 (interquartile range over median) and its
ratio to the kernel time 0.078.  A memory-bound numpy kernel tracked the
program worse (0.105-0.146).
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

#: Seconds one kernel call takes at the reference speed.  About its
#: median on a 2-vCPU x86-64 VM, so scaled times read close to raw ones
#: there.
REFERENCE_S = 0.15
#: Kernel calls timed before the first pass and after each pass.
REPEATS = 5


def _kernel() -> int:
    counts: dict[int, int] = {}
    for i in range(120_000):
        counts[i % 5003] = counts.get(i % 5003, 0) + i
    seen = set()
    for i in range(60_000):
        seen.add((i * 7919) % 10007)
    order = sorted(range(100_000), key=lambda x: (x * 31) % 1000)
    values = np.arange(50_000, dtype=np.int64)
    total = 0
    for _ in range(200):
        total = int(np.cumsum(values[values % 7 == 3])[-1])
    return len(counts) + len(seen) + order[0] + total


def call() -> float:
    """Seconds of one kernel call.

    The collector is off while the kernel runs, so the program's live
    heap does not add collection time to the yardstick.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def sample() -> list[float]:
    """Seconds of :data:`REPEATS` kernel calls, after a collection."""
    gc.collect()
    return [call() for _ in range(REPEATS)]


def factor(calls: list[float]) -> float:
    """The run's scale factor: reference over mean call seconds.

    The mean, not the median: a pass's time integrates the machine's
    slow moments too.  On five ``solver-deep`` runs the scaled wall time
    spread 0.049 with the mean and 0.076 with the median.
    """
    return REFERENCE_S / statistics.fmean(calls)


def scale(values: dict[str, float], units: dict[str, str],
          factor: float) -> dict[str, float]:
    """``values`` with times multiplied and rates divided by ``factor``."""
    out = {}
    for name, value in values.items():
        unit = units[name]
        if unit in ("s", "s/iter"):
            value *= factor
        elif unit == "1/s":
            value /= factor
        out[name] = value
    return out
