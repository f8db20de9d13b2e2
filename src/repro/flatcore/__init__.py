"""Flat CSR netlist core with vectorized analysis kernels.

The flat core is the only production analysis engine.  See
``docs/flatcore.md`` for the arena layout, the level-sweep kernel
contract and the test-only reference core the kernels are held
bit-identical to.
"""

from .arena import (DIGEST_TAG, OP_CODES, FlatCircuit, GatePlan, LevelPlan,
                    lower, validate_flat)
from .engine import flat_for
from .kernels import (circuit_elws_flat, observability_flat,
                      record_frames_flat, ser_totals_flat,
                      simulate_comb_flat)

__all__ = [
    "DIGEST_TAG", "OP_CODES", "FlatCircuit", "GatePlan", "LevelPlan",
    "lower", "validate_flat",
    "flat_for",
    "circuit_elws_flat", "observability_flat", "record_frames_flat",
    "ser_totals_flat", "simulate_comb_flat",
]
