"""The memoized flat arena behind every analysis stage.

Each analysis stage (simulation, observability, ELW, SER) runs on the
circuit's :class:`~repro.flatcore.arena.FlatCircuit`, lowered once per
circuit structure.  Nothing here enters a cache key: the arena is a
pure function of the circuit, so a cached analysis result is keyed by
the circuit alone.
"""

from __future__ import annotations

from ..netlist.circuit import Circuit
from .arena import FlatCircuit, lower


def flat_for(circuit: Circuit) -> FlatCircuit:
    """The memoized arena of ``circuit``.

    The arena is cached on the circuit and invalidated by any
    structural mutation.  A lowering failure raises
    :class:`~repro.errors.FlatCoreError` (and is retried on the next
    call); a :class:`~repro.errors.CombinationalCycleError` propagates.
    """
    flat = circuit._flat_cache
    if flat is None:
        # Module-level lookup at call time, so wrappers of ``lower``
        # (profilers, tests) see every lowering.
        flat = lower(circuit)
        circuit._flat_cache = flat
    return flat
