"""Vectorized analysis kernels over a :class:`~repro.flatcore.arena.FlatCircuit`.

These kernels are the production analysis stages.  Each one is held to
a *bit-identity* contract with the per-gate *object core* it replaced
(kept as a test-only reference in ``tests/object_core.py``): given the
same inputs it produces exactly the values (and, where relevant, the
same dict orders) the object walks produce -- the differential suite
in ``tests/flatcore`` pins this on the whole committed corpus.  The
bit-identity rules:

* packed-signature logic is pure ``uint64`` bitwise algebra, which is
  exact and associative, so grouped evaluation order is free;
* scalar float *accumulators* (SER sums) must add in the object core's
  sequential element order -- ``np.sum`` is pairwise and would drift in
  the last ulp -- so sums run over ``.tolist()`` in declaration order
  while the per-element products stay vectorized (IEEE-754 elementwise
  ops match Python's scalar ops bit for bit);
* :class:`~repro.core.intervals.IntervalSet` normalization is confluent
  under pre-merging, so building each net's ELW from raw shifted
  endpoint pairs in one constructor call matches the object core's
  shift-then-union exactly.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from ..core.intervals import IntervalSet
from ..errors import AnalysisError, FlatCoreError, SimulationError
from ..netlist.cell_library import SUPPORTED_OPS
from ..sim.bitvec import _tail_mask, n_words, popcount
from .arena import FlatCircuit

_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def _reduce_group(op: str, ins: np.ndarray) -> np.ndarray:
    """Evaluate one ``(op, arity)`` group on gathered input signatures.

    ``ins`` is ``[n_gates_in_group, arity, n_words]``; the result is
    ``[n_gates_in_group, n_words]`` with padding bits possibly set for
    inverting ops (callers trim, mirroring the object core).
    """
    if op == "BUF":
        return ins[:, 0]
    if op == "NOT":
        return ins[:, 0] ^ _ONES
    # Two-input groups dominate real netlists; a direct binary op skips
    # the ufunc-reduce machinery (bitwise algebra, so same bits).
    two = ins.shape[1] == 2
    if op in ("AND", "NAND"):
        out = (ins[:, 0] & ins[:, 1]) if two \
            else np.bitwise_and.reduce(ins, axis=1)
        if op == "NAND":
            out = out ^ _ONES
        return out
    if op in ("OR", "NOR"):
        out = (ins[:, 0] | ins[:, 1]) if two \
            else np.bitwise_or.reduce(ins, axis=1)
        if op == "NOR":
            out = out ^ _ONES
        return out
    if op in ("XOR", "XNOR"):
        out = (ins[:, 0] ^ ins[:, 1]) if two \
            else np.bitwise_xor.reduce(ins, axis=1)
        if op == "XNOR":
            out = out ^ _ONES
        return out
    raise FlatCoreError(f"no grouped evaluator for op {op!r}")


# ----------------------------------------------------------------------
# Logic simulation
# ----------------------------------------------------------------------

def _level_sweep(flat: FlatCircuit, value_matrix: np.ndarray,
                 words: int, tail: np.uint64,
                 forced_by_level: Mapping[int, list] | None = None) -> None:
    """Evaluate every gate level in place on ``[n_nodes, words]``.

    Input and register rows must already hold their signatures; gate
    rows are overwritten level by level.  ``forced_by_level`` optionally
    injects per-level overrides after that level evaluates (a forced
    gate's readers all sit at strictly higher levels)."""
    for level_plan in flat.plans:
        for plan in level_plan.groups:
            count = len(plan.gates)
            if plan.op == "CONST0":
                out = np.zeros((count, words), dtype=np.uint64)
            elif plan.op == "CONST1":
                out = np.full((count, words), _ONES, dtype=np.uint64)
            else:
                out = _reduce_group(plan.op, value_matrix[plan.fanin])
            out[:, -1] &= tail
            value_matrix[plan.gates] = out
        if forced_by_level:
            for node, sig in forced_by_level.get(level_plan.level, ()):
                value_matrix[node] = sig


def record_frames_flat(flat: FlatCircuit, n_frames: int, n_patterns: int,
                       warmup: int, rng: np.random.Generator,
                       ) -> list[np.ndarray]:
    """Matrix-native replacement for ``repro.sim.odc._record_frames``.

    Runs the warmup and recorded cycles entirely on ``[n_nodes, words]``
    matrices -- no per-net dicts, no per-register copies.  Bit-identity
    with the object recorder holds because the RNG stream is drawn
    identically (one :func:`random_patterns` call per primary input, in
    declaration order, per cycle) and the register clocking rule is the
    same gather (``state = values[dff_d]``) the object simulator
    expresses one ``.copy()`` at a time.
    """
    words = n_words(n_patterns)
    tail = _tail_mask(n_patterns)
    n_inputs = flat.n_inputs
    dff_base = n_inputs + flat.n_gates

    ones_row = np.full(words, _ONES, dtype=np.uint64)
    ones_row[-1] &= tail
    # reset_state: init=1 registers power up all-ones, the rest all-zero
    state = np.zeros((flat.n_dffs, words), dtype=np.uint64)
    state[flat.dff_init.astype(bool)] = ones_row

    value_matrix = np.zeros((flat.n_nodes, words), dtype=np.uint64)
    frames: list[np.ndarray] = []
    for cycle in range(warmup + n_frames):
        if n_inputs:
            # One batched draw per cycle.  PCG64 fills a C-contiguous
            # uint64 request word by word from the same stream, so this
            # consumes the generator identically to one
            # ``random_patterns`` call per input (pinned by
            # ``test_batched_input_draws_match_per_input_draws``).
            draws = rng.integers(0, 2 ** 64, size=(n_inputs, words),
                                 dtype=np.uint64)
            draws[:, -1] &= tail
            value_matrix[:n_inputs] = draws
        value_matrix[dff_base:] = state
        _level_sweep(flat, value_matrix, words, tail)
        state = value_matrix[flat.dff_d]  # fancy indexing: a fresh copy
        if cycle >= warmup:
            frames.append(value_matrix.copy())
    return frames


def simulate_comb_flat(flat: FlatCircuit,
                       values: Mapping[str, np.ndarray],
                       n_patterns: int,
                       force: Mapping[str, np.ndarray] | None = None,
                       ) -> dict[str, np.ndarray]:
    """Level-sweep replacement for :func:`repro.sim.logicsim.simulate_comb`.

    Signatures for all nodes live in one ``[n_nodes, n_words]`` matrix;
    each topological level evaluates as a handful of gathered numpy
    expressions.  The returned dict matches the object core exactly:
    inputs/registers alias the caller's arrays, forced nets alias the
    force arrays (untrimmed), and gate entries are trimmed rows of the
    value matrix (disjoint -- no aliasing between gates).
    """
    words = n_words(n_patterns)
    tail = _tail_mask(n_patterns)
    n_inputs, n_gates = flat.n_inputs, flat.n_gates
    dff_base = n_inputs + n_gates
    value_matrix = np.zeros((flat.n_nodes, words), dtype=np.uint64)

    result: dict[str, np.ndarray] = {}
    for node in range(n_inputs):
        net = flat.names[node]
        if net not in values:
            raise SimulationError(f"missing value for primary input {net!r}")
        sig = values[net]
        value_matrix[node] = sig
        result[net] = sig
    for k in range(flat.n_dffs):
        net = flat.names[dff_base + k]
        if net not in values:
            raise SimulationError(f"missing value for flip-flop {net!r}")
        sig = values[net]
        value_matrix[dff_base + k] = sig
        result[net] = sig

    forced_by_level: dict[int, list[tuple[int, np.ndarray]]] = {}
    if force:
        for net, sig in force.items():
            node = flat.index.get(net)
            if node is None:
                continue
            if n_inputs <= node < dff_base:
                lvl = int(flat.level[node - n_inputs])
                forced_by_level.setdefault(lvl, []).append((node, sig))
            else:
                value_matrix[node] = sig
                result[net] = sig

    # A forced gate's own evaluation is discarded; the per-level
    # overwrite inside the sweep reproduces the object core's
    # skip-and-alias semantics (padding included).
    _level_sweep(flat, value_matrix, words, tail, forced_by_level)

    for node in flat.topo.tolist():
        net = flat.names[node]
        if force and net in force:
            result[net] = force[net]
        else:
            result[net] = value_matrix[node]
    return result


# ----------------------------------------------------------------------
# Observability (backward ODC sweep)
# ----------------------------------------------------------------------

@dataclass
class _SensGroup:
    """Sensitization edges sharing (op, arity), evaluated together."""

    op: str
    edge_ids: np.ndarray   # rows of the global edge arrays
    gate_nodes: np.ndarray
    fanin: np.ndarray      # [n_edges_in_group, arity]
    flip: np.ndarray       # bool mask: ports driven by the edge's source


@dataclass
class _ScatterStage:
    """One reverse-sweep stage: all edges whose source sits at a level."""

    edge_order: np.ndarray   # edge ids sorted by source node
    reader_nodes: np.ndarray
    src_nodes: np.ndarray    # distinct sources, ascending
    starts: np.ndarray       # reduceat segment starts into edge_order


def _sens_plans(flat: FlatCircuit) -> tuple[list[_SensGroup],
                                            list[_ScatterStage]]:
    """Build (and memoize on the arena) the observability sweep plans."""
    cached = flat._memo.get("sens_plans")
    if cached is not None:
        return cached

    n_inputs, n_gates = flat.n_inputs, flat.n_gates
    edge_gate, edge_src = flat.edge_gate, flat.edge_src
    n_edges = len(edge_gate)

    groups: list[_SensGroup] = []
    if n_edges:
        ordinals = edge_gate - n_inputs
        keys = flat.op_code[ordinals].astype(np.int64) * (2 ** 32) \
            + flat.arity[ordinals].astype(np.int64)
        for key in np.unique(keys):
            ids = np.nonzero(keys == key)[0]
            code = int(key >> 32)
            arity = int(key & 0xFFFFFFFF)
            lo = flat.fanin_indptr[ordinals[ids]]
            fanin = flat.fanin[lo[:, None] + np.arange(arity)]
            flip = fanin == edge_src[ids][:, None]
            groups.append(_SensGroup(op=SUPPORTED_OPS[code], edge_ids=ids,
                                     gate_nodes=edge_gate[ids],
                                     fanin=fanin, flip=flip))

    # Scatter stages: gate sources by descending level, then all
    # input/register sources (level tag -1) -- the object core's
    # reverse-topo-then-sources order, which OR-commutativity makes a
    # scheduling choice, not a semantic one.  One stable lexsort over
    # (descending level, source) replaces a per-level edge scan, which
    # on deep circuits (10^4+ levels) was quadratic in practice.
    stages: list[_ScatterStage] = []
    if n_edges:
        src_level = np.full(n_edges, -1, dtype=np.int64)
        is_gate_src = (edge_src >= n_inputs) & (edge_src < n_inputs + n_gates)
        src_level[is_gate_src] = flat.level[edge_src[is_gate_src] - n_inputs]
        order_all = np.lexsort((edge_src, -src_level))
        level_sorted = src_level[order_all]
        src_sorted = edge_src[order_all]
        cuts = np.nonzero(np.diff(level_sorted))[0] + 1
        for a, b in zip(np.concatenate(([0], cuts)).tolist(),
                        np.concatenate((cuts, [n_edges])).tolist()):
            order = order_all[a:b]
            srcs = src_sorted[a:b]
            # srcs is sorted: segment starts fall where the value changes
            starts = np.concatenate(
                ([0], np.nonzero(np.diff(srcs))[0] + 1))
            stages.append(_ScatterStage(edge_order=order,
                                        reader_nodes=edge_gate[order],
                                        src_nodes=srcs[starts],
                                        starts=starts))

    flat._memo["sens_plans"] = (groups, stages)
    return groups, stages


def observability_flat(flat: FlatCircuit,
                       frames: list[np.ndarray],
                       n_frames: int, n_patterns: int, keep_masks: bool,
                       ) -> tuple[dict[str, float],
                                  dict[str, np.ndarray] | None]:
    """Vectorized backward ODC sweep over recorded frame matrices.

    ``frames`` holds one ``[n_nodes, words]`` value matrix per cycle
    (:func:`record_frames_flat`).  Mirrors the object core's backward
    ODC walk bit for bit: per frame,
    per-edge sensitization masks are evaluated in grouped numpy
    expressions, base masks seed primary outputs (and, on the final
    frame, register reads), and a reverse level sweep OR-scatters
    ``sens & reader_mask`` into each source net.
    """
    words = n_words(n_patterns)
    tail = _tail_mask(n_patterns)
    n_nodes = flat.n_nodes
    n_dffs = flat.n_dffs
    dff_base = flat.n_inputs + flat.n_gates
    groups, stages = _sens_plans(flat)

    ones_row = np.full(words, _ONES, dtype=np.uint64)
    ones_row[-1] &= tail
    po_nodes = np.nonzero(flat.is_po)[0]
    dff_rows = np.arange(dff_base, dff_base + n_dffs)

    sens = np.zeros((flat.n_edges, words), dtype=np.uint64)
    next_masks = np.zeros((n_dffs, words), dtype=np.uint64)
    masks = np.zeros((n_nodes, words), dtype=np.uint64)
    for t in range(n_frames - 1, -1, -1):
        value_matrix = frames[t]
        last = t == n_frames - 1

        for group in groups:
            ins = value_matrix[group.fanin]      # fresh gather
            ins[group.flip] ^= _ONES
            flipped = _reduce_group(group.op, ins)
            flipped[:, -1] &= tail
            sens[group.edge_ids] = value_matrix[group.gate_nodes] ^ flipped

        masks = np.zeros((n_nodes, words), dtype=np.uint64)
        if len(po_nodes):
            masks[po_nodes] = ones_row
        if n_dffs:
            contrib = np.broadcast_to(ones_row, (n_dffs, words)) if last \
                else next_masks
            np.bitwise_or.at(masks, flat.dff_d, contrib)

        for stage in stages:
            contrib = sens[stage.edge_order] & masks[stage.reader_nodes]
            merged = np.bitwise_or.reduceat(contrib, stage.starts, axis=0)
            masks[stage.src_nodes] |= merged

        if n_dffs:
            next_masks = masks[dff_rows].copy()

    if hasattr(np, "bitwise_count"):
        counts = np.bitwise_count(masks).sum(axis=1)
    else:  # pragma: no cover - numpy < 2 fallback
        counts = np.array([popcount(row) for row in masks], dtype=np.int64)
    # Dict order matches the object core: reverse-topo gates, then
    # primary inputs, then registers.
    node_order = list(reversed(flat.topo.tolist())) \
        + list(range(flat.n_inputs)) + dff_rows.tolist()
    obs = {flat.names[node]: int(counts[node]) / float(n_patterns)
           for node in node_order}
    kept = {flat.names[node]: masks[node].copy() for node in node_order} \
        if keep_masks else None
    return obs, kept


# ----------------------------------------------------------------------
# Error-latching windows (eq. 3)
# ----------------------------------------------------------------------

def _elw_readers(flat: FlatCircuit) -> list[list[tuple[int, float]]]:
    """Per node: ``(reader_gate_node, -delay(reader))`` pairs, memoized."""
    cached = flat._memo.get("elw_readers")
    if cached is not None:
        return cached
    neg_delay = (-flat.gate_delay).tolist()
    readers = flat.reader.tolist()
    indptr = flat.reader_indptr.tolist()
    n_inputs = flat.n_inputs
    nested = [[(r, neg_delay[r - n_inputs])
               for r in readers[indptr[node]:indptr[node + 1]]]
              for node in range(flat.n_nodes)]
    flat._memo["elw_readers"] = nested
    return nested


def circuit_elws_flat(flat: FlatCircuit,
                      window: IntervalSet) -> dict[str, IntervalSet]:
    """Exact ELW of every net (eq. 3), in the object core's net order.

    Walks nets in reverse-topological order, but builds each
    net's ELW with a *single* :class:`IntervalSet` construction from raw
    shifted endpoint pairs -- sound because interval-union normalization
    is confluent: pre-merging any subset (what the object core's
    intermediate ``shift``/``union`` sets do) never changes the final
    merged intervals.  Shifts use the identical float expression
    ``endpoint + (-delay)``.
    """
    readers = _elw_readers(flat)
    window_pairs = tuple(window.intervals)
    is_po = flat.is_po
    dff_read = flat.dff_read
    by_node: list[IntervalSet | None] = [None] * flat.n_nodes

    dff_base = flat.n_inputs + flat.n_gates
    node_order = list(reversed(flat.topo.tolist())) \
        + list(range(flat.n_inputs)) \
        + list(range(dff_base, dff_base + flat.n_dffs))
    empty = IntervalSet.empty()
    for node in node_order:
        pairs = list(window_pairs) if (is_po[node] or dff_read[node]) else []
        for reader, offset in readers[node]:
            for left, right in by_node[reader].intervals:
                pairs.append((left + offset, right + offset))
        by_node[node] = IntervalSet(pairs) if pairs else empty
    return {flat.names[node]: by_node[node] for node in node_order}


# ----------------------------------------------------------------------
# SER aggregation (eq. 4)
# ----------------------------------------------------------------------

def ser_totals_flat(flat: FlatCircuit, obs_full: Mapping[str, float],
                    elws: Mapping[str, IntervalSet], model_name: str,
                    unit: float, base_reg_err: float, phi: float,
                    derate: Mapping[str, float] | None = None,
                    ) -> tuple[dict[str, float], float, float, float]:
    """Vectorized eq. (4) aggregation.

    Returns ``(per_element, comb, reg, no_timing)``: per-element values
    ``obs * err * (|ELW| / phi)`` with ``err = (rate * unit) * derate``
    (``derate``, the optional per-net electrical derating, multiplies in
    after the raw rate), computed as elementwise float64 products
    (bit-identical to Python scalar arithmetic in the same order); the
    running sums accumulate sequentially in declaration order, gates
    first, then registers.  An unknown ``model_name`` raises
    :class:`~repro.errors.AnalysisError`.
    """
    n_inputs, n_gates = flat.n_inputs, flat.n_gates
    gate_names = flat.names[n_inputs:n_inputs + n_gates]
    dff_names = flat.names[n_inputs + n_gates:]

    if model_name == "library":
        err = flat.gate_raw_ser * unit
    elif model_name == "uniform":
        err = np.full(n_gates, unit, dtype=np.float64)
    elif model_name == "area":
        err = (flat.arity + 1.0) * unit
    else:
        raise AnalysisError(f"unknown rate model {model_name!r}")
    dff_err = np.full(len(dff_names), base_reg_err, dtype=np.float64)
    if derate is not None:
        err = err * np.array([derate[name] for name in gate_names],
                             dtype=np.float64)
        dff_err = dff_err * np.array([derate[name] for name in dff_names],
                                     dtype=np.float64)
    obs_arr = np.array([obs_full[name] for name in gate_names],
                       dtype=np.float64)
    meas = np.array([elws[name].measure for name in gate_names],
                    dtype=np.float64)
    values = obs_arr * err * (meas / phi)
    no_timing_terms = obs_arr * err

    per_element: dict[str, float] = {}
    comb = reg = 0.0
    no_timing = 0.0
    for name, value in zip(gate_names, values.tolist()):
        per_element[name] = value
        comb += value
    for term in no_timing_terms.tolist():
        no_timing += term

    dff_obs = np.array([obs_full[name] for name in dff_names],
                       dtype=np.float64)
    dff_meas = np.array([elws[name].measure for name in dff_names],
                        dtype=np.float64)
    dff_values = dff_obs * dff_err * (dff_meas / phi)
    dff_no_timing = dff_obs * dff_err
    for name, value in zip(dff_names, dff_values.tolist()):
        per_element[name] = value
        reg += value
    for term in dff_no_timing.tolist():
        no_timing += term
    return per_element, comb, reg, no_timing
