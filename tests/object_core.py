"""The object core: a per-gate reference for the flat analysis kernels.

These are the original object-walk implementations of the four analysis
stages that :mod:`repro.flatcore` replaced in production -- packed logic
simulation, backward-ODC observability, exact ELWs (eq. 3) and the
eq. (4) SER aggregation.  The stage bodies are kept verbatim so the
flat kernels can be held to bit-identical results (same floats, same
interval endpoints, same dict orders).  Only the plumbing around them
changed: each body is a plain function here, and SER computes its
observability and ELWs with the reference stages.  Observability
records its frames with :func:`repro.sim.odc._record_frames`, which
steps the production simulator -- diffed against :func:`simulate_comb`
on its own, and replaced by it under :func:`install`.

:func:`install` routes the production stage entry points through these
functions, so a whole suite or matrix run can be computed by the
reference core alone and its digests compared with the production
run's.

Used by ``tests/flatcore/test_differential.py`` and
``benchmarks/bench_flatcore.py``.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.core.elw import latching_window
from repro.core.intervals import IntervalSet
from repro.errors import AnalysisError, FlatCoreError, SimulationError
from repro.netlist.circuit import Circuit
from repro.ser.analysis import SerAnalysis, extend_obs_to_registers
from repro.ser.rates import RateModel
from repro.sim.bitvec import all_ones, all_zeros, fraction_of_ones, trim
from repro.sim.logicsim import eval_gate
from repro.sim.odc import ObservabilityResult, _record_frames

_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


# ----------------------------------------------------------------------
# Logic simulation (repro.sim.logicsim.simulate_comb)
# ----------------------------------------------------------------------

def simulate_comb(circuit: Circuit, values: Mapping[str, np.ndarray],
                  n_patterns: int,
                  force: Mapping[str, np.ndarray] | None = None,
                  ) -> dict[str, np.ndarray]:
    """Evaluate all gates of ``circuit`` for one clock cycle, per gate."""
    result: dict[str, np.ndarray] = {}
    for net in circuit.inputs:
        if net not in values:
            raise SimulationError(f"missing value for primary input {net!r}")
        result[net] = values[net]
    for name in circuit.dffs:
        if name not in values:
            raise SimulationError(f"missing value for flip-flop {name!r}")
        result[name] = values[name]
    if force:
        for net, sig in force.items():
            if net in result:
                result[net] = sig

    for gate_name in circuit.topo_gates():
        if force and gate_name in force:
            result[gate_name] = force[gate_name]
            continue
        gate = circuit.gates[gate_name]
        ins = [result[n] for n in gate.inputs]
        sig = eval_gate(gate.op, ins, n_patterns)
        result[gate_name] = trim(sig, n_patterns)
    return result


# ----------------------------------------------------------------------
# Observability (repro.sim.odc._observability_impl)
# ----------------------------------------------------------------------

def _input_sensitization(circuit: Circuit, gate_name: str, net: str,
                         frame: dict[str, np.ndarray],
                         n_patterns: int) -> np.ndarray:
    """Mask of patterns where flipping input ``net`` flips the gate output.

    Exact per-gate: evaluates the gate with ``net`` complemented on every
    port it drives (a net feeding two ports of an XOR correctly cancels).
    """
    gate = circuit.gates[gate_name]
    normal = frame[gate_name]
    flipped_in = [frame[i] ^ _ONES if i == net else frame[i]
                  for i in gate.inputs]
    flipped = trim(eval_gate(gate.op, flipped_in, n_patterns), n_patterns)
    return normal ^ flipped


def observability(circuit: Circuit, n_frames: int = 15,
                  n_patterns: int = 256, warmup: int | None = None,
                  seed: int = 0,
                  keep_masks: bool = False) -> ObservabilityResult:
    """Signature-based observability with backward ODC propagation."""
    if n_frames < 1:
        raise AnalysisError("n_frames must be >= 1")
    rng = np.random.default_rng(seed)
    if warmup is None:
        warmup = n_frames

    frames, _, _, _ = _record_frames(circuit, n_frames, n_patterns, warmup, rng)

    po_nets = set(circuit.outputs)
    # Readers of each net: (kind, name) with kind 'gate' or 'dff'.
    readers: dict[str, list[tuple[str, str]]] = {n: [] for n in circuit.nets}
    for gate in circuit.gates.values():
        for net in set(gate.inputs):
            readers[net].append(("gate", gate.name))
    for dff in circuit.dffs.values():
        readers[dff.d].append(("dff", dff.name))

    reverse_topo = list(reversed(circuit.topo_gates()))
    sources = list(circuit.inputs) + list(circuit.dffs)

    next_dff_masks: dict[str, np.ndarray] = {}
    masks: dict[str, np.ndarray] = {}
    for t in range(n_frames - 1, -1, -1):
        frame = frames[t]
        last = (t == n_frames - 1)
        masks = {}

        def net_mask(net: str) -> np.ndarray:
            acc = all_ones(n_patterns) if net in po_nets \
                else all_zeros(n_patterns)
            for kind, name in readers[net]:
                if kind == "gate":
                    sens = _input_sensitization(circuit, name, net, frame,
                                                n_patterns)
                    acc = acc | (sens & masks[name])
                else:  # register boundary
                    if last:
                        acc = acc | all_ones(n_patterns)
                    else:
                        acc = acc | next_dff_masks[name]
            return acc

        for gate_name in reverse_topo:
            masks[gate_name] = net_mask(gate_name)
        for net in sources:
            masks[net] = net_mask(net)
        next_dff_masks = {name: masks[name] for name in circuit.dffs}

    obs = {net: fraction_of_ones(mask, n_patterns)
           for net, mask in masks.items()}
    kept = {net: trim(mask.copy(), n_patterns)
            for net, mask in masks.items()} if keep_masks else None
    return ObservabilityResult(obs=obs, n_patterns=n_patterns,
                               n_frames=n_frames, method="backward",
                               masks=kept)


# ----------------------------------------------------------------------
# Error-latching windows (repro.core.elw._circuit_elws_impl)
# ----------------------------------------------------------------------

def circuit_elws(circuit: Circuit, phi: float, setup: float = 0.0,
                 hold: float = 2.0) -> dict[str, IntervalSet]:
    """Exact ELW of every net of ``circuit``, by a reverse-topo walk."""
    window = latching_window(phi, setup, hold)

    po_nets = set(circuit.outputs)

    # Readers per net.
    gate_readers: dict[str, list[str]] = {n: [] for n in circuit.nets}
    dff_read: dict[str, bool] = {n: False for n in circuit.nets}
    for gate in circuit.gates.values():
        for net in set(gate.inputs):
            gate_readers[net].append(gate.name)
    for dff in circuit.dffs.values():
        dff_read[dff.d] = True

    elws: dict[str, IntervalSet] = {}

    def net_elw(net: str) -> IntervalSet:
        parts: list[IntervalSet] = []
        if net in po_nets or dff_read[net]:
            parts.append(window)
        for reader in gate_readers[net]:
            parts.append(elws[reader] - circuit.gate_delay(reader))
        if not parts:
            return IntervalSet.empty()
        return parts[0].union(*parts[1:])

    for gate_name in reversed(circuit.topo_gates()):
        elws[gate_name] = net_elw(gate_name)
    for net in list(circuit.inputs) + list(circuit.dffs):
        elws[net] = net_elw(net)
    return elws


# ----------------------------------------------------------------------
# SER aggregation (repro.ser.analysis._analyze_ser_impl)
# ----------------------------------------------------------------------

def analyze_ser(circuit: Circuit, phi: float,
                setup: float | None = None, hold: float | None = None,
                obs: Mapping[str, float] | None = None,
                rate_model: RateModel | str = "library",
                n_frames: int = 15, n_patterns: int = 256,
                seed: int = 0,
                electrical_tau: float | None = None,
                latch_width: float = 1.0,
                elws: Mapping[str, IntervalSet] | None = None,
                ) -> SerAnalysis:
    """The SER of ``circuit`` at clock period ``phi`` (eq. 4), per element."""
    if phi <= 0:
        raise AnalysisError("clock period must be positive")
    if setup is None:
        setup = circuit.library.setup_time
    if hold is None:
        hold = circuit.library.hold_time
    if isinstance(rate_model, str):
        rate_model = RateModel(rate_model)

    if obs is None:
        obs = observability(circuit, n_frames=n_frames,
                            n_patterns=n_patterns, seed=seed).obs
    obs_full = extend_obs_to_registers(circuit, obs)
    if elws is None:
        elws = circuit_elws(circuit, phi, setup, hold)
    derate: Mapping[str, float] | None = None
    if electrical_tau is not None:
        from repro.sim.electrical import electrical_derating

        derate = electrical_derating(circuit, tau=electrical_tau,
                                     latch_width=latch_width)

    per_element: dict[str, float] = {}
    comb = reg = 0.0
    no_timing = 0.0
    for name in circuit.gates:
        err = rate_model.gate_rate(circuit, name)
        if derate is not None:
            err *= derate[name]
        window = elws[name].measure / phi
        value = obs_full[name] * err * window
        per_element[name] = value
        comb += value
        no_timing += obs_full[name] * err
    base_reg_err = rate_model.register_rate(circuit)
    for name in circuit.dffs:
        reg_err = base_reg_err
        if derate is not None:
            reg_err *= derate[name]
        window = elws[name].measure / phi
        value = obs_full[name] * reg_err * window
        per_element[name] = value
        reg += value
        no_timing += obs_full[name] * reg_err

    return SerAnalysis(total=comb + reg, comb=comb, reg=reg,
                       total_no_timing=no_timing, per_element=per_element,
                       phi=phi, setup=setup, hold=hold)


# ----------------------------------------------------------------------
# Whole-pipeline substitution
# ----------------------------------------------------------------------

def _no_flat(circuit: Circuit):
    raise FlatCoreError(f"a flat kernel ran on circuit {circuit.name!r} "
                        f"during a reference-core run")


def install(monkeypatch) -> None:
    """Route every production analysis stage through the reference core.

    ``monkeypatch`` is a :class:`pytest.MonkeyPatch`; undoing it restores
    the production stages.  Fetching a flat arena is made to raise, so
    a production kernel reached by a path this misses fails loudly.  Child processes
    started by the parallel executor are not covered: run the reference
    side serially.
    """
    from repro.core import elw
    from repro.flatcore import engine
    from repro.ser import analysis
    from repro.sim import logicsim, odc, sequential

    for module in (logicsim, sequential, odc):
        monkeypatch.setattr(module, "simulate_comb", simulate_comb)
    monkeypatch.setattr(odc, "_observability_impl", observability)
    monkeypatch.setattr(elw, "_circuit_elws_impl", circuit_elws)
    monkeypatch.setattr(analysis, "_analyze_ser_impl", analyze_ser)
    monkeypatch.setattr(engine, "flat_for", _no_flat)
