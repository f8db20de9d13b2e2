"""End-to-end benchmark of the retiming pipeline and service.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload table1 --seed 0 --seconds 20 --trace 0

Workloads: ``table1``, ``corpus-small``, ``solver-deep`` (batch suite
runs) and ``service-process`` (a closed loop against a live service).
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer metrics.  Every
output is checked; a failed check prints ``"correct": false`` and exits
1.  Times are scaled to a reference machine speed (``speed.py``).  The
last line of standard output is the JSON result.  See
``e2ebench/README.md``.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("table1", "corpus-small", "solver-deep", "service-process")
#: Set-up repetitions whose median is ``setup_s``.
SETUP_REPEATS = 3


def bootstrap() -> None:
    """Import the program from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"e2ebench: no program source at {SRC}/repro; "
                         f"run from the root of a repository checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    import repro

    if os.path.dirname(os.path.abspath(repro.__file__)) != \
            os.path.join(SRC, "repro"):
        raise SystemExit(f"e2ebench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="two small circuits per workload (self-tests)")
    return parser.parse_args(argv)


def expected_rows(workload: str,
                  tiny: bool) -> dict[str, dict[str, str]]:
    """Committed ``{circuit: {"status", "digest"}}`` for a batch workload."""
    if workload == "corpus-small":
        path = os.path.join(ROOT, "corpus", "small", "matrix-golden.json")
        with open(path, encoding="utf-8") as handle:
            golden = json.load(handle)
        prefix = "shallow-both/"
        return {key[len(prefix):]: {"digest": digest,
                                    "status": golden["statuses"][key]}
                for key, digest in golden["cells"].items()
                if key.startswith(prefix)}
    path = os.path.join(ROOT, "e2ebench", "expected.json")
    with open(path, encoding="utf-8") as handle:
        table = json.load(handle)
    return table[workload + ("-tiny" if tiny else "")]


def _warm_up(workload: str) -> None:
    """One untimed tiny run, so first-call imports are not timed."""
    import dataclasses

    from repro.corpus.families import CircuitSpec, build_circuit
    from repro.runtime.suite import clear_obs_cache, run_suite

    circuit = build_circuit(CircuitSpec("warm_up", "pipeline",
                                        {"stages": 2, "width": 3}))
    if workload == "service-process":
        from repro.netlist.bench_format import dumps_bench
        from repro.service.workers import ExecutionDefaults, execute_job

        execute_job({"netlist": dumps_bench(circuit), "name": "warm_up",
                     "frames": 2, "patterns": 64}, ExecutionDefaults())
    else:
        from e2ebench.inputs import BATCH_INPUTS

        config = dataclasses.replace(BATCH_INPUTS[workload](0, True).config,
                                     circuits=("warm_up",))
        run_suite(config, circuit_factory=lambda name: circuit)
    clear_obs_cache()


def _timed(func) -> float:
    t0 = time.perf_counter()
    func()
    return time.perf_counter() - t0


def measure(args: argparse.Namespace, work: str) -> dict:
    from e2ebench import inputs as workload_inputs
    from e2ebench.metrics import median

    if args.workload == "service-process":
        import repro.service.app  # noqa: F401
        import repro.service.workers  # noqa: F401
        from repro.netlist.bench_format import loads_bench

        from e2ebench import service_load
        import_s = time.perf_counter() - _T_START

        def emit():
            return workload_inputs.service_jobs(
                args.seed, workload_inputs.service_circuits(args.tiny))

        generate_s = median([_timed(emit) for _ in range(SETUP_REPEATS)])
        specs = emit()
        parse_s = _timed(lambda: [loads_bench(s["netlist"], s["name"])
                                  for s in specs])
        startups = []
        for index in range(SETUP_REPEATS):
            svc = service_load.start_service(
                os.path.join(work, f"setup-{index}"))
            svc.stop()
            startups.append(svc.startup_s)
        setup = {"import_s": import_s, "generate_s": generate_s,
                 "parse_s": parse_s, "startup_s": median(startups)}
        _warm_up(args.workload)
        result = service_load.run_service(specs, work, args.seconds,
                                          bool(args.trace), setup)
    else:
        import repro.circuits.suites  # noqa: F401
        import repro.corpus.matrix  # noqa: F401
        import repro.runtime.suite  # noqa: F401

        from e2ebench import batch
        import_s = time.perf_counter() - _T_START
        inputs = workload_inputs.BATCH_INPUTS[args.workload](args.seed,
                                                             args.tiny)
        generate_s = median([_timed(inputs.build)
                             for _ in range(SETUP_REPEATS)])
        setup = {"import_s": import_s, "generate_s": generate_s}
        expected = expected_rows(args.workload, args.tiny)
        _warm_up(args.workload)
        result = batch.run_batch(inputs, expected, args.seconds,
                                 bool(args.trace), setup)
    result["setup"] = setup
    return result


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    bootstrap()
    from e2ebench import speed
    from e2ebench.batch import GateError
    from e2ebench.metrics import END_TO_END, PER_LAYER

    work_root = os.path.join(ROOT, ".e2ebench_work")
    work = os.path.join(work_root,
                        f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    # Sandbox workdirs and any other temporary files stay in the checkout.
    os.environ["TMPDIR"] = tempfile.tempdir = os.path.join(work, "tmp")
    try:
        result = measure(args, work)
    except GateError as exc:
        print(f"e2ebench: correctness gate failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = result["metrics"]
    if args.trace:
        catalogue = PER_LAYER
        # Layers this workload does not reach read 0.
        values = {name: values.get(name, 0.0) for name, _ in PER_LAYER}
        tracer = result.get("tracer")
        if tracer is not None:
            tracer.write(os.path.join(
                work_root, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        catalogue = END_TO_END
        setup = result["setup"]
        values["setup_s"] = (setup["import_s"] + setup["generate_s"]
                             + setup.get("startup_s", 0.0))
    # Every time of the run is scaled by the same machine-speed factor.
    factor = speed.factor(result["yardstick"])
    raw = values
    values = speed.scale(values, dict(catalogue), factor)
    if args.trace:
        values["bench.yardstick_s"] = speed.REFERENCE_S / factor
    summary = dict(result["summary"], workload=args.workload,
                   seed=args.seed, setup=result["setup"],
                   yardstick_s=result["yardstick"], speed_factor=factor,
                   raw_metrics=raw)
    print(json.dumps(summary, sort_keys=True), file=sys.stderr)
    print(json.dumps({
        "correct": True, "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in catalogue}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
