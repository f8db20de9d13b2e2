"""Bit-parallel combinational simulation.

:func:`simulate_comb` evaluates a circuit on packed signatures with the
flat level-sweep kernel (:mod:`repro.flatcore`); :func:`eval_gate` is
the one-gate word-level evaluator, tested against the scalar reference
semantics in :func:`repro.netlist.cell_library.evaluate_op`.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from ..errors import SimulationError
from ..netlist.circuit import Circuit
from .bitvec import all_ones, all_zeros

_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def eval_gate(op: str, inputs: Sequence[np.ndarray],
              n_patterns: int) -> np.ndarray:
    """Evaluate one gate on packed input signatures.

    Contract: the returned array is always *fresh* -- it never aliases
    any entry of ``inputs`` (nor any other live signature).  Callers
    rely on this to mutate the result in place: running
    :func:`repro.sim.bitvec.trim` on it would silently corrupt a shared
    input signature if the result were an alias.  The
    one-input degenerate forms (a single-input AND/OR/XOR is a BUF, a
    single-input NAND/NOR/XNOR a NOT) therefore copy before returning,
    and the contract is pinned by
    ``tests/sim/test_eval_gate_property.py``.

    Padding bits may become 1 for inverting ops; callers that count ones
    must mask with :func:`repro.sim.bitvec.trim`.
    """
    if op == "CONST0":
        return all_zeros(n_patterns)
    if op == "CONST1":
        return all_ones(n_patterns)
    if op == "BUF":
        return inputs[0].copy()
    if op == "NOT":
        return inputs[0] ^ _ONES  # fresh: binary ufunc allocates
    if op in ("AND", "NAND"):
        acc = inputs[0].copy() if len(inputs) == 1 \
            else inputs[0] & inputs[1]
        for sig in inputs[2:]:
            acc &= sig
        if op == "NAND":
            acc ^= _ONES
        return acc
    if op in ("OR", "NOR"):
        acc = inputs[0].copy() if len(inputs) == 1 \
            else inputs[0] | inputs[1]
        for sig in inputs[2:]:
            acc |= sig
        if op == "NOR":
            acc ^= _ONES
        return acc
    if op in ("XOR", "XNOR"):
        acc = inputs[0].copy() if len(inputs) == 1 \
            else inputs[0] ^ inputs[1]
        for sig in inputs[2:]:
            acc ^= sig
        if op == "XNOR":
            acc ^= _ONES
        return acc
    raise SimulationError(f"unknown op {op!r}")


def simulate_comb(circuit: Circuit, values: Mapping[str, np.ndarray],
                  n_patterns: int,
                  force: Mapping[str, np.ndarray] | None = None,
                  ) -> dict[str, np.ndarray]:
    """Evaluate all gates of ``circuit`` for one clock cycle.

    Parameters
    ----------
    values:
        Signatures for every primary input and every flip-flop output.
    n_patterns:
        Number of valid patterns in each signature.
    force:
        Optional overrides: nets whose value is forced (after evaluation
        of the driving gate) -- used for fault injection and exact-ODC
        flips.

    Returns
    -------
    dict
        Signature for every net (inputs and flip-flop outputs included).
    """
    from ..flatcore.engine import flat_for
    from ..flatcore.kernels import simulate_comb_flat

    return simulate_comb_flat(flat_for(circuit), values, n_patterns, force)
