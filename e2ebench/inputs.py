"""Workload inputs, made from the ``--seed`` argument only.

The seed renames every net of every circuit (prefix ``s<seed>_``; the
service adds the job number).  Renaming changes each circuit's
fingerprint, so no cache keyed by circuit content can carry results from
one run to the next, but it changes no result: the gates hold every
seed to the same committed digests.  That is a metamorphic check of the
whole pipeline, and it keeps the work per run the same from seed to
seed.  Seeding the circuit generator or the suite seed instead changes
the work: the five ``solver-deep`` circuits took 27.6-34.1 s over
generator seeds 0-2 and 30.2-34.1 s over suite seeds 0-1, and Table I
22.9-24.0 s over suite seeds 0-1, wider than any bound the benchmark
could hold.

The program never sees the seed itself, only the inputs made here:
:class:`~repro.runtime.suite.SuiteConfig` values, circuits and job specs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

#: Table I suite scale.  The repo's headline command runs 0.02; one pass
#: of that takes about 55 s here, which does not fit the run budget of a
#: four-workload benchmark, so the workload runs the same 21 rows at half
#: that size (largest row 2.26k vertices, 22-24 s per pass).
TABLE1_SCALE = 0.01

#: ``solver-deep`` members: (name, family, params).  Generated from the
#: corpus families with generator seed 0, the seed at which the
#: ``fsm_datapath`` member is a known baseline failure.
DEEP_SPECS: tuple[tuple[str, str, dict[str, Any]], ...] = (
    ("deep_pipe", "pipeline", {"stages": 16, "width": 24}),
    ("deep_cslow", "cslow", {"c": 3, "base_family": "pipeline",
                             "base_params": {"stages": 10, "width": 30}}),
    ("deep_mesh", "mesh", {"rows": 16, "cols": 16}),
    ("deep_tree", "tree", {"leaves": 1024, "reg_every": 2}),
    ("deep_fsmdp", "fsm_datapath",
     {"state_bits": 6, "stages": 12, "width": 30}),
)
DEEP_GENERATOR_SEED = 0

#: Tiny stand-ins used by the benchmark's own smoke tests (``--tiny``).
TINY_TABLE1_ROWS = ("s13207", "b14_opt")
TINY_CORPUS = ("pipe_a", "cslow_a")
TINY_DEEP_SPECS: tuple[tuple[str, str, dict[str, Any]], ...] = (
    ("deep_pipe", "pipeline", {"stages": 3, "width": 4}),
    ("deep_mesh", "mesh", {"rows": 3, "cols": 3}),
)

#: Service job knobs (the matrix's ``shallow`` fault model).
SERVICE_FRAMES = 2
SERVICE_PATTERNS = 64


def net_prefix(seed: int) -> str:
    return f"s{seed}_"


def renamed(circuit: Any, prefix: str) -> Any:
    """A copy of ``circuit`` with ``prefix`` on every net name.

    Declaration order is kept, so the retiming graph has the same vertex
    order and every result is the same as the original's.
    """
    from repro.netlist.circuit import Circuit

    out = Circuit(circuit.name, circuit.library)
    for net in circuit.inputs:
        out.add_input(prefix + net)
    for net in circuit.outputs:
        out.add_output(prefix + net)
    for gate in circuit.gates.values():
        out.add_gate(prefix + gate.name, gate.op,
                     [prefix + net for net in gate.inputs])
    for dff in circuit.dffs.values():
        out.add_dff(prefix + dff.name, prefix + dff.d, dff.init)
    return out


@dataclass
class BatchInputs:
    """One batch workload's inputs: a suite config and circuit builders."""

    config: Any
    #: Circuit name -> zero-argument builder of a fresh Circuit.
    builders: dict[str, Callable[[], Any]]

    def build(self) -> dict[str, Any]:
        return {name: make() for name, make in self.builders.items()}


def table1_inputs(seed: int, tiny: bool = False) -> BatchInputs:
    from repro.circuits.suites import TABLE1_ROWS, table1_circuit
    from repro.runtime.suite import SuiteConfig

    names = TINY_TABLE1_ROWS if tiny else \
        tuple(row.name for row in TABLE1_ROWS)
    # Paper settings: SuiteConfig defaults are 15 frames, 256 patterns,
    # epsilon 0.10, both solvers, guard on, analysis cache off.
    config = SuiteConfig(circuits=names, scale=TABLE1_SCALE, seed=0)
    prefix = net_prefix(seed)
    builders = {name: (lambda n=name: renamed(
                    table1_circuit(n, scale=TABLE1_SCALE, seed=0), prefix))
                for name in names}
    return BatchInputs(config, builders)


def corpus_small_inputs(seed: int, tiny: bool = False) -> BatchInputs:
    from repro.corpus.families import corpus_circuit, tier_specs
    from repro.corpus.matrix import SCENARIOS, scenario_config

    names = TINY_CORPUS if tiny else \
        tuple(spec.name for spec in tier_specs("small"))
    config = scenario_config("small", SCENARIOS["shallow-both"],
                             circuits=names)
    # Built with corpus_circuit, as run_matrix does.  Parsing the
    # committed corpus bytes instead gives a different vertex order
    # (pipe_a: 275 vs 208 solver iterations) and different digests.
    prefix = net_prefix(seed)
    builders = {name: (lambda n=name: renamed(corpus_circuit("small", n),
                                              prefix))
                for name in names}
    return BatchInputs(config, builders)


def solver_deep_inputs(seed: int, tiny: bool = False) -> BatchInputs:
    from repro.corpus.families import CircuitSpec, build_circuit
    from repro.runtime.suite import SuiteConfig

    specs = [CircuitSpec(name=name, family=family, params=params,
                         seed=DEEP_GENERATOR_SEED)
             for name, family, params in
             (TINY_DEEP_SPECS if tiny else DEEP_SPECS)]
    config = SuiteConfig(circuits=tuple(spec.name for spec in specs),
                         seed=0, n_frames=SERVICE_FRAMES,
                         n_patterns=SERVICE_PATTERNS)
    prefix = net_prefix(seed)
    builders = {spec.name: (lambda s=spec: renamed(build_circuit(s), prefix))
                for spec in specs}
    return BatchInputs(config, builders)


BATCH_INPUTS = {
    "table1": table1_inputs,
    "corpus-small": corpus_small_inputs,
    "solver-deep": solver_deep_inputs,
}

def service_circuits(tiny: bool = False) -> dict[str, Any]:
    """The small-tier circuits the service job mix is made from."""
    from repro.corpus.families import build_circuit, tier_specs

    return {spec.name: build_circuit(spec) for spec in tier_specs("small")
            if not tiny or spec.name in TINY_CORPUS}


def service_jobs(seed: int, circuits: dict[str, Any]) -> list[dict[str, Any]]:
    """One pass of job specs: each circuit of the mix once.

    Each circuit goes out as inline ``.bench`` text (the BLIF members
    too).  Job ``k`` has job seed ``k`` and nets prefixed ``s<seed>j<k>_``,
    so no two jobs share an analysis-cache key: the service cache keys
    initialization and ELW results by circuit content, not by job seed.
    """
    from repro.netlist.bench_format import dumps_bench

    mix = sorted(circuits.items())
    return [{"netlist": dumps_bench(renamed(circuit, f"s{seed}j{k}_")),
             "name": name, "seed": k, "frames": SERVICE_FRAMES,
             "patterns": SERVICE_PATTERNS}
            for k, (name, circuit) in enumerate(mix)]
